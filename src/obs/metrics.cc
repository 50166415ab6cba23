#include "src/obs/metrics.h"

#include <algorithm>

#include "src/common/check.h"

namespace asketch {
namespace obs {

double HistogramPercentileFromBuckets(
    const std::array<uint64_t, kHistogramBuckets + 1>& buckets,
    uint64_t count, uint64_t max, double q) {
  if (count == 0) return 0.0;
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  const uint64_t target = rank < count ? rank + 1 : count;
  uint64_t cumulative = 0;
  for (uint32_t i = 0; i <= kHistogramBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= target) {
      if (i == kHistogramBuckets) return static_cast<double>(max);
      // Never report past the observed maximum: a quantile that lands in
      // the max's bucket is capped at the max itself.
      return std::min(static_cast<double>(HistogramBucketUpperBound(i)),
                      static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

#ifndef ASKETCH_NO_TELEMETRY

namespace {

/// Returns blocks to their registry's free list when the thread exits, so
/// thread churn (e.g. repeated SpmdGroup::Process calls) reuses blocks
/// instead of growing the registry without bound. Guarded by the same
/// epoch: if any registry died since acquisition, the pointer is not
/// trusted and the block is intentionally leaked to its (still-alive)
/// owner's blocks_ list.
struct TlsBlockReleaser {
  MetricsRegistry* registry = nullptr;
  internal::ThreadBlock* block = nullptr;
  uint64_t epoch = 0;
  ~TlsBlockReleaser();
};

thread_local TlsBlockReleaser tls_block_releaser;

}  // namespace

MetricsRegistry::MetricsRegistry() = default;

MetricsRegistry::~MetricsRegistry() {
  internal::g_registry_epoch.fetch_add(1, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Intentionally leaked: instrumentation may run during static
  // destruction, and Global() must stay valid for the whole process.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

internal::ThreadBlock* MetricsRegistry::LocalBlockSlow() {
  internal::ThreadBlock* block = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_blocks_.empty()) {
      block = free_blocks_.back();
      free_blocks_.pop_back();
    } else {
      blocks_.push_back(std::make_unique<internal::ThreadBlock>());
      block = blocks_.back().get();
    }
  }
  const uint64_t epoch =
      internal::g_registry_epoch.load(std::memory_order_relaxed);
  internal::tls_block_cache = {this, block, epoch};
  // Register the exit hook only for the global registry: private (test)
  // registries may die before the thread does, and their blocks_ list
  // already owns the memory.
  if (this == &Global() && tls_block_releaser.registry == nullptr) {
    tls_block_releaser.registry = this;
    tls_block_releaser.block = block;
    tls_block_releaser.epoch = epoch;
  }
  return block;
}

namespace {
TlsBlockReleaser::~TlsBlockReleaser() {
  if (registry == nullptr) return;
  if (epoch != internal::g_registry_epoch.load(std::memory_order_relaxed)) {
    return;
  }
  registry->ReleaseBlock(block);
}
}  // namespace

void MetricsRegistry::ReleaseBlock(internal::ThreadBlock* block) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_blocks_.push_back(block);
}

uint64_t Counter::Value() const {
  return owner_->SumCounter(index_, overflow_);
}

uint64_t MetricsRegistry::SumCounter(
    uint32_t index, const std::atomic<uint64_t>& overflow) const {
  uint64_t total = overflow.load(std::memory_order_relaxed);
  if (index < internal::ThreadBlock::kMaxCounters) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& block : blocks_) {
      total += block->cells[index].load(std::memory_order_relaxed);
    }
  }
  return total;
}

HistogramSample Histogram::Sample() const {
  HistogramSample sample;
  for (uint32_t i = 0; i <= kHistogramBuckets; ++i) {
    sample.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    sample.count += sample.buckets[i];
  }
  sample.sum = sum_.load(std::memory_order_relaxed);
  sample.max = max_.load(std::memory_order_relaxed);
  sample.p50 = HistogramPercentileFromBuckets(sample.buckets, sample.count,
                                              sample.max, 0.50);
  sample.p90 = HistogramPercentileFromBuckets(sample.buckets, sample.count,
                                              sample.max, 0.90);
  sample.p99 = HistogramPercentileFromBuckets(sample.buckets, sample.count,
                                              sample.max, 0.99);
  return sample;
}

void* MetricsRegistry::FindOrCreate(std::string_view name,
                                    std::string_view labels, Kind kind) {
  std::string key;
  key.reserve(name.size() + 1 + labels.size());
  key.append(name);
  key.push_back('\0');
  key.append(labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A metric name identifies one kind for its whole lifetime;
    // re-requesting it as another kind is a programming error.
    ASKETCH_CHECK(it->second.kind == kind);
    return it->second.object;
  }
  Entry entry;
  entry.name = std::string(name);
  entry.labels = std::string(labels);
  entry.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      counters_.emplace_back(this,
                             static_cast<uint32_t>(counters_.size()));
      entry.object = &counters_.back();
      break;
    case Kind::kGauge:
      gauges_.emplace_back();
      entry.object = &gauges_.back();
      break;
    case Kind::kHistogram:
      histograms_.emplace_back();
      entry.object = &histograms_.back();
      break;
  }
  return entries_.emplace(std::move(key), std::move(entry))
      .first->second.object;
}

Counter& MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view labels) {
  return *static_cast<Counter*>(FindOrCreate(name, labels, Kind::kCounter));
}

Gauge& MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view labels) {
  return *static_cast<Gauge*>(FindOrCreate(name, labels, Kind::kGauge));
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view labels) {
  return *static_cast<Histogram*>(
      FindOrCreate(name, labels, Kind::kHistogram));
}

uint64_t MetricsRegistry::RegisterCallbackGauge(std::string name,
                                                std::string labels,
                                                std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(callback_mutex_);
  const uint64_t id = next_callback_id_++;
  callbacks_.push_back(
      {id, std::move(name), std::move(labels), std::move(fn)});
  return id;
}

void MetricsRegistry::UnregisterCallbackGauge(uint64_t id) {
  std::lock_guard<std::mutex> lock(callback_mutex_);
  for (auto it = callbacks_.begin(); it != callbacks_.end(); ++it) {
    if (it->id == id) {
      callbacks_.erase(it);
      return;
    }
  }
}

MetricsSnapshot MetricsRegistry::Collect() const {
  MetricsSnapshot snapshot;
  // Phase 1 under the lock: copy entry descriptors and raw storage
  // pointers. Phase 2 (counter sums, callbacks) re-locks per item or runs
  // caller code, so it happens outside.
  struct Pending {
    std::string name;
    std::string labels;
    Kind kind;
    const void* object;
  };
  std::vector<Pending> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      pending.push_back(
          {entry.name, entry.labels, entry.kind, entry.object});
    }
  }
  for (const Pending& p : pending) {
    switch (p.kind) {
      case Kind::kCounter: {
        const auto* counter = static_cast<const Counter*>(p.object);
        snapshot.counters.push_back({p.name, p.labels, counter->Value()});
        break;
      }
      case Kind::kGauge: {
        const auto* gauge = static_cast<const Gauge*>(p.object);
        snapshot.gauges.push_back(
            {p.name, p.labels, static_cast<double>(gauge->Value())});
        break;
      }
      case Kind::kHistogram: {
        HistogramSample sample =
            static_cast<const Histogram*>(p.object)->Sample();
        sample.name = p.name;
        sample.labels = p.labels;
        snapshot.histograms.push_back(std::move(sample));
        break;
      }
    }
  }
  {
    // Held across invocation: UnregisterCallbackGauge blocking on this
    // mutex is the guarantee that lets callers destroy captured state
    // right after unregistering (see the header).
    std::lock_guard<std::mutex> lock(callback_mutex_);
    for (const CallbackEntry& cb : callbacks_) {
      snapshot.gauges.push_back({cb.name, cb.labels, cb.fn()});
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  };
  std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_name);
  std::sort(snapshot.histograms.begin(), snapshot.histograms.end(), by_name);
  return snapshot;
}

size_t MetricsRegistry::MetricCount() const {
  size_t count;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    count = entries_.size();
  }
  std::lock_guard<std::mutex> lock(callback_mutex_);
  return count + callbacks_.size();
}

#endif  // ASKETCH_NO_TELEMETRY

}  // namespace obs
}  // namespace asketch
