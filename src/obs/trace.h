// Per-thread trace-event ring buffers with scoped-span macros and
// Chrome/Perfetto trace_event JSON export.
//
// Each thread that records a span owns a TraceRing: a fixed-capacity ring
// of seqlock-protected slots written only by that thread (SPSC: the owner
// produces, the exporter consumes). Recording a completed span is two
// steady_clock reads plus a handful of relaxed stores; when the ring
// wraps, the oldest events are overwritten (recent history wins, which is
// what a flight recorder wants). The per-slot sequence number lets the
// exporter detect and discard slots that were mid-overwrite while it was
// reading — no locks touch the recording path.
//
// Tracing is off by default: ASKETCH_TRACE_SPAN costs one relaxed load
// and a branch until TraceRegistry::SetEnabled(true), and compiles out
// entirely under -DASKETCH_NO_TELEMETRY.
//
// Export renders the Chrome tracing format ("trace_event"), loadable in
// chrome://tracing and Perfetto: complete events ("ph":"X") with
// microsecond timestamps relative to steady_clock's epoch.
//
//   { "traceEvents": [ {"name":"snapshot_save","cat":"asketch","ph":"X",
//                       "ts":12.5,"dur":340.2,"pid":1,"tid":2} ] }

#ifndef ASKETCH_OBS_TRACE_H_
#define ASKETCH_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#ifndef ASKETCH_NO_TELEMETRY
#include <atomic>
#include <memory>
#include <mutex>
#endif

namespace asketch {
namespace obs {

/// One completed span, as collected for export. `name` must be a string
/// with static storage duration (the ring stores the pointer).
struct CollectedTraceEvent {
  const char* name = "";
  uint64_t ts_ns = 0;   ///< steady_clock start, nanoseconds
  uint64_t dur_ns = 0;  ///< span duration, nanoseconds
  uint32_t tid = 0;     ///< small per-ring thread id
};

/// Renders events as Chrome trace_event JSON (see the file comment).
std::string RenderTraceJson(const std::vector<CollectedTraceEvent>& events);

#ifndef ASKETCH_NO_TELEMETRY

namespace internal {

/// Seqlock-protected slot. The sequence is 2*write_index+2 when the slot
/// holds a fully written event; odd while the owner is writing it.
struct TraceSlot {
  std::atomic<uint64_t> seq{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> ts_ns{0};
  std::atomic<uint64_t> dur_ns{0};
};

/// A thread's ring. Created lazily on a thread's first span and owned by
/// the TraceRegistry, so its events survive the recording thread's exit.
/// An exiting thread hands its ring back, and the next thread that
/// records without one continues in it under the same tid.
class TraceRing {
 public:
  TraceRing(uint32_t tid, size_t capacity);

  /// Owner thread only.
  void Record(const char* name, uint64_t ts_ns, uint64_t dur_ns);

  /// Any thread; skips slots that are concurrently overwritten.
  void CollectInto(std::vector<CollectedTraceEvent>* out) const;

  uint32_t tid() const { return tid_; }
  uint64_t dropped() const {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    return head > slots_.size() ? head - slots_.size() : 0;
  }

 private:
  const uint32_t tid_;
  std::vector<TraceSlot> slots_;
  std::atomic<uint64_t> head_{0};  // next write index (monotonic)
};

}  // namespace internal

/// Process-wide owner of every thread's ring.
class TraceRegistry {
 public:
  static TraceRegistry& Global();

  /// Master switch; spans recorded while disabled cost one load+branch.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Ring capacity (events) for rings created after this call; existing
  /// rings keep their size. Default 4096 events per thread.
  void SetRingCapacity(size_t capacity);

  /// All events from all rings, ordered by (ts, tid). Overwritten-while-
  /// reading slots are skipped, never torn.
  std::vector<CollectedTraceEvent> Collect() const;

  /// Total events overwritten before collection (ring wrap), across all
  /// rings.
  uint64_t DroppedEvents() const;

  /// Forgets all rings (events recorded afterwards allocate fresh ones).
  /// Only safe when no instrumented thread is running; meant for tests
  /// and tools that take repeated independent traces.
  void Reset();

  /// The calling thread's ring (on first use, a ring released by an
  /// exited thread, else a new one). Peak ring count is thus the peak
  /// number of live recording threads, however many come and go.
  internal::TraceRing* LocalRing();

  /// Called on thread exit: `ring` (handed out at `generation`) becomes
  /// reusable. A ring from before the last Reset() is already gone.
  void ReleaseRing(internal::TraceRing* ring, uint64_t generation);

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<internal::TraceRing>> rings_;
  std::vector<internal::TraceRing*> free_rings_;
  size_t ring_capacity_ = 4096;
  uint32_t next_tid_ = 1;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> generation_{1};

  friend class ScopedSpan;
};

/// RAII span: records a complete event from construction to destruction
/// when tracing is enabled. Use via ASKETCH_TRACE_SPAN.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (TraceRegistry::Global().enabled()) {
      name_ = name;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedSpan() {
    if (name_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    const uint64_t ts_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start_.time_since_epoch())
            .count());
    const uint64_t dur_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count());
    TraceRegistry::Global().LocalRing()->Record(name_, ts_ns, dur_ns);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

#define ASKETCH_TRACE_CONCAT_INNER(a, b) a##b
#define ASKETCH_TRACE_CONCAT(a, b) ASKETCH_TRACE_CONCAT_INNER(a, b)
/// Records the enclosing scope as a trace span named `name` (a string
/// literal / static string).
#define ASKETCH_TRACE_SPAN(name) \
  ::asketch::obs::ScopedSpan ASKETCH_TRACE_CONCAT(asketch_span_, \
                                                  __LINE__)(name)

#else  // ASKETCH_NO_TELEMETRY

class TraceRegistry {
 public:
  static TraceRegistry& Global() {
    static TraceRegistry registry;
    return registry;
  }
  void SetEnabled(bool) {}
  bool enabled() const { return false; }
  void SetRingCapacity(size_t) {}
  std::vector<CollectedTraceEvent> Collect() const { return {}; }
  uint64_t DroppedEvents() const { return 0; }
  void Reset() {}
};

#define ASKETCH_TRACE_SPAN(name) \
  do {                           \
  } while (0)

#endif  // ASKETCH_NO_TELEMETRY

}  // namespace obs
}  // namespace asketch

#endif  // ASKETCH_OBS_TRACE_H_
