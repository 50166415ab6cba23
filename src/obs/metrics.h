// Low-overhead telemetry: a registry of named counters, gauges, and
// log-bucketed latency histograms.
//
// The design goal is SALSA-style counter discipline for *telemetry*: the
// filter/sketch/SPMD hot loops must pay at most one cache-local increment
// per instrumented event, and the whole subsystem must compile out to
// nothing under -DASKETCH_NO_TELEMETRY.
//
// Counters are the hot primitive, so they get the careful layout. Each
// thread owns a ThreadBlock — a fixed array of one 8-byte cell per
// registered counter — handed out by the registry the first time the
// thread increments anything. A cell has exactly one writer (its owning
// thread), so an increment is a relaxed load + add + relaxed store: no
// lock prefix, no RMW, no shared-line ping-pong. Readers sum the cell
// across all blocks under the registry mutex; relaxed atomics make the
// cross-thread reads well-defined without slowing the writer. Blocks are
// pooled: when a thread exits its block returns to a free list and the
// next thread reuses it, so counter totals survive thread churn and
// memory stays bounded by the peak thread count.
//
// Gauges are instantaneous values (queue depth, open connections): a single
// shared atomic, set from cold paths only. Callback gauges are evaluated
// at collection time and cost the hot path nothing — they are how
// always-current values like queue occupancy are exposed.
//
// Histograms bucket by floor(log2(value))+1 — bucket i covers
// [2^(i-1), 2^i - 1], bucket 0 holds zeros — with an explicit overflow
// bucket past kHistogramBuckets. Record() is two relaxed fetch_adds plus
// a rarely-taken max CAS; it belongs on per-batch / per-snapshot paths,
// not per-tuple ones. Percentiles (p50/p90/p99) are computed at read
// time from the cumulative bucket counts.
//
// Naming scheme (see DESIGN.md §5): `asketch_<subsystem>_<what>[_total|_ns]`
// with Prometheus conventions — `_total` for monotonic counters, `_ns`
// histograms record nanoseconds. Labels are pre-rendered exposition
// fragments like `worker="3"`.

#ifndef ASKETCH_OBS_METRICS_H_
#define ASKETCH_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#ifndef ASKETCH_NO_TELEMETRY
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#endif

/// Expands its arguments only when telemetry is compiled in. Hot-path
/// instrumentation sites wrap every telemetry statement (including any
/// timer reads feeding a histogram) in this macro so a
/// -DASKETCH_NO_TELEMETRY build contains no trace of them.
#ifndef ASKETCH_NO_TELEMETRY
#define ASKETCH_TELEMETRY_ONLY(...) __VA_ARGS__
#else
#define ASKETCH_TELEMETRY_ONLY(...)
#endif

namespace asketch {
namespace obs {

/// Number of finite histogram buckets. Bucket i < kHistogramBuckets covers
/// values with bit_width(v) == i (i.e. [2^(i-1), 2^i - 1]; bucket 0 is
/// exactly {0}); everything at or above 2^(kHistogramBuckets-1) lands in
/// the overflow bucket with index kHistogramBuckets. 40 finite buckets
/// cover latencies up to ~9 minutes in nanoseconds.
inline constexpr uint32_t kHistogramBuckets = 40;

/// Bucket index of `value` (see kHistogramBuckets).
inline uint32_t HistogramBucketIndex(uint64_t value) {
  uint32_t width = 0;
  while (value != 0) {
    ++width;
    value >>= 1;
  }
  return width < kHistogramBuckets ? width : kHistogramBuckets;
}

/// Inclusive upper bound of finite bucket i: 2^i - 1.
inline uint64_t HistogramBucketUpperBound(uint32_t i) {
  return (uint64_t{1} << i) - 1;
}

/// Point-in-time value of one counter.
struct CounterSample {
  std::string name;
  std::string labels;  ///< pre-rendered, e.g. `worker="3"`; may be empty
  uint64_t value = 0;
};

/// Point-in-time value of one gauge (stored or callback).
struct GaugeSample {
  std::string name;
  std::string labels;
  double value = 0;
};

/// Point-in-time state of one histogram, with derived percentiles.
struct HistogramSample {
  std::string name;
  std::string labels;
  /// Per-bucket counts; index kHistogramBuckets is the overflow bucket.
  std::array<uint64_t, kHistogramBuckets + 1> buckets{};
  uint64_t count = 0;  ///< sum of buckets
  uint64_t sum = 0;    ///< sum of recorded values
  uint64_t max = 0;    ///< largest recorded value
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};

/// Everything a registry knows at one instant; what the exporters render.
/// Each section is sorted by (name, labels) so output is deterministic.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Percentile estimate from bucket counts: the upper bound of the first
/// bucket whose cumulative count reaches q*count (the overflow bucket
/// reports `max`). Exact for distributions that stay within one bucket
/// per quantile; otherwise an over-estimate by at most the bucket width.
double HistogramPercentileFromBuckets(
    const std::array<uint64_t, kHistogramBuckets + 1>& buckets,
    uint64_t count, uint64_t max, double q);

#ifndef ASKETCH_NO_TELEMETRY

class MetricsRegistry;

namespace internal {

/// Per-thread counter cells: one slot per registered counter index.
/// Single writer (the owning thread); readers use relaxed loads.
struct ThreadBlock {
  static constexpr uint32_t kMaxCounters = 256;
  std::array<std::atomic<uint64_t>, kMaxCounters> cells{};
};

/// One-entry cache mapping the most recently used registry to this
/// thread's cell block. Lives in the header so Counter::Add's fast path
/// inlines into instrumented hot loops (constant-initialized, so access
/// carries no TLS init guard). The epoch invalidates every cache when any
/// registry is destroyed, so a new registry reusing the address of a dead
/// one can never alias its freed blocks.
struct TlsBlockCache {
  MetricsRegistry* registry = nullptr;
  ThreadBlock* block = nullptr;
  uint64_t epoch = 0;
};

inline thread_local TlsBlockCache tls_block_cache;

/// Bumped by every registry destruction (see TlsBlockCache).
inline std::atomic<uint64_t> g_registry_epoch{1};

}  // namespace internal

/// Monotonic counter. Obtain via MetricsRegistry::GetCounter; references
/// stay valid for the registry's lifetime.
class Counter {
 public:
  /// Construct via MetricsRegistry::GetCounter (public only so the
  /// registry's container can emplace it).
  Counter(MetricsRegistry* owner, uint32_t index)
      : owner_(owner), index_(index) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Hot-path increment: one cache-local relaxed load+store on this
  /// thread's cell (plus a shared fetch_add fallback for counters past
  /// the per-block cell budget). Defined below MetricsRegistry so the
  /// fast path inlines into instrumented loops.
  inline void Add(uint64_t n);
  void Increment() { Add(1); }

  /// Sum over every thread's cell. Takes the registry mutex; cold.
  uint64_t Value() const;

 private:
  friend class MetricsRegistry;

  MetricsRegistry* owner_;
  const uint32_t index_;
  /// Shared fallback cell used when index_ >= ThreadBlock::kMaxCounters.
  std::atomic<uint64_t> overflow_{0};
};

/// Instantaneous value; a single shared atomic. Not for per-tuple paths.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed histogram (see the file comment). Record() is safe from
/// any thread; meant for per-batch and per-snapshot latencies.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    buckets_[HistogramBucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Point-in-time copy with derived count/percentiles (name/labels left
  /// empty; the registry fills them during Collect()).
  HistogramSample Sample() const;

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets + 1> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Owner of every metric. One process-wide instance (Global()) backs all
/// library instrumentation; tests may create private registries — their
/// metrics behave identically, just with cold increments competing for
/// the same per-thread cache slot.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed, so instrumented code may
  /// use it from static destructors).
  static MetricsRegistry& Global();

  /// Finds or creates the metric named (`name`, `labels`). References
  /// remain valid until the registry is destroyed. A name/labels pair
  /// identifies exactly one metric kind: re-requesting it as a different
  /// kind aborts (programming error).
  Counter& GetCounter(std::string_view name, std::string_view labels = "");
  Gauge& GetGauge(std::string_view name, std::string_view labels = "");
  Histogram& GetHistogram(std::string_view name,
                          std::string_view labels = "");

  /// Registers a gauge whose value is computed by `fn` at Collect() time
  /// (zero hot-path cost). Returns an id for UnregisterCallbackGauge.
  /// `fn` may take registry locks (e.g. Counter::Value()) but must not
  /// call Register/UnregisterCallbackGauge or Collect.
  uint64_t RegisterCallbackGauge(std::string name, std::string labels,
                                 std::function<double()> fn);

  /// Removes the callback and blocks until any in-flight Collect() is
  /// done invoking it, so the caller may destroy captured state
  /// immediately afterwards.
  void UnregisterCallbackGauge(uint64_t id);

  /// Snapshot of every metric, sections sorted by (name, labels).
  MetricsSnapshot Collect() const;

  /// Number of distinct registered metrics (all kinds).
  size_t MetricCount() const;

  /// Returns a thread's cell block to the reuse pool (called from the
  /// thread-exit hook; not part of the public surface).
  void ReleaseBlock(internal::ThreadBlock* block);

 private:
  friend class Counter;

  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    std::string labels;
    Kind kind;
    void* object;  // Counter*/Gauge*/Histogram*; stable (deque-backed)
  };

  struct CallbackEntry {
    uint64_t id;
    std::string name;
    std::string labels;
    std::function<double()> fn;
  };

  /// Allocates (or reuses) this thread's cell block and refreshes the
  /// TLS cache; Counter::Add's inline fast path calls this on cache miss.
  internal::ThreadBlock* LocalBlockSlow();

  /// Sums `index` across all blocks plus `overflow`.
  uint64_t SumCounter(uint32_t index,
                      const std::atomic<uint64_t>& overflow) const;

  /// Finds or creates the metric and returns a stable pointer to its
  /// storage object (cast per `kind`).
  void* FindOrCreate(std::string_view name, std::string_view labels,
                     Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  // key: name + '\0' + labels
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<std::unique_ptr<internal::ThreadBlock>> blocks_;
  std::vector<internal::ThreadBlock*> free_blocks_;
  /// Guards callbacks_ and is HELD while Collect() invokes them, so
  /// UnregisterCallbackGauge synchronizes with in-flight evaluation.
  /// Lock order: callback_mutex_ may be held while taking mutex_ (a
  /// callback reading a Counter), never the reverse.
  mutable std::mutex callback_mutex_;
  std::vector<CallbackEntry> callbacks_;
  uint64_t next_callback_id_ = 1;
};

inline void Counter::Add(uint64_t n) {
  if (index_ < internal::ThreadBlock::kMaxCounters) {
    const internal::TlsBlockCache& cache = internal::tls_block_cache;
    internal::ThreadBlock* block =
        (cache.registry == owner_ &&
         cache.epoch ==
             internal::g_registry_epoch.load(std::memory_order_relaxed))
            ? cache.block
            : owner_->LocalBlockSlow();
    std::atomic<uint64_t>& cell = block->cells[index_];
    // Single writer per cell: a plain load/add/store pair is exact and
    // avoids the locked RMW a fetch_add would cost on the hot path.
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  } else {
    overflow_.fetch_add(n, std::memory_order_relaxed);
  }
}

#else  // ASKETCH_NO_TELEMETRY

// ---------------------------------------------------------------------
// Compiled-out telemetry: the same API as above, reduced to no-ops the
// optimizer deletes entirely. Exporters still link and render an empty
// snapshot, so tools keep working.
// ---------------------------------------------------------------------

class Counter {
 public:
  void Add(uint64_t) {}
  void Increment() {}
  uint64_t Value() const { return 0; }
};

class Gauge {
 public:
  void Set(int64_t) {}
  void Add(int64_t) {}
  int64_t Value() const { return 0; }
};

class Histogram {
 public:
  void Record(uint64_t) {}
  HistogramSample Sample() const { return {}; }
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global() {
    static MetricsRegistry registry;
    return registry;
  }

  Counter& GetCounter(std::string_view, std::string_view = "") {
    static Counter counter;
    return counter;
  }
  Gauge& GetGauge(std::string_view, std::string_view = "") {
    static Gauge gauge;
    return gauge;
  }
  Histogram& GetHistogram(std::string_view, std::string_view = "") {
    static Histogram histogram;
    return histogram;
  }

  template <typename Fn>
  uint64_t RegisterCallbackGauge(std::string, std::string, Fn&&) {
    return 0;
  }
  void UnregisterCallbackGauge(uint64_t) {}

  MetricsSnapshot Collect() const { return {}; }
  size_t MetricCount() const { return 0; }
};

#endif  // ASKETCH_NO_TELEMETRY

/// True when the library was built with telemetry compiled in.
inline constexpr bool TelemetryCompiledIn() {
#ifndef ASKETCH_NO_TELEMETRY
  return true;
#else
  return false;
#endif
}

}  // namespace obs
}  // namespace asketch

#endif  // ASKETCH_OBS_METRICS_H_
