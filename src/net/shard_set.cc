#include "src/net/shard_set.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/crc32c.h"
#include "src/net/net_metrics.h"
#include "src/obs/metrics.h"

namespace asketch {
namespace net {

namespace {

constexpr uint32_t kShardSetMagic = 0x31445253u;  // "SRD1"

AnyServingSketch MakeServingSketch(const ShardSetOptions& options) {
  if (options.backend == SketchBackend::kSalsa) {
    return MakeASketchSalsa<RelaxedHeapFilter>(options.shard_config);
  }
  return MakeASketchCountMin<RelaxedHeapFilter>(options.shard_config);
}

/// The options, after the constructor's precondition: ShardRouter
/// divides by num_shards.
const ShardSetOptions& Checked(const ShardSetOptions& options) {
  ASKETCH_CHECK(!options.Validate().has_value());
  return options;
}

}  // namespace

uint64_t DeltaIngestState::PendingTuples() const {
  uint64_t pending = 0;
  for (const auto& slot : per_shard_) {
    if (slot.has_value()) pending += slot->tuple_count();
  }
  return pending;
}

namespace {

/// Shard s's codes start after every earlier shard's head size.
std::vector<uint32_t> CodeBases(
    const std::vector<std::shared_ptr<const HeadIndex>>& heads) {
  std::vector<uint32_t> base(heads.size() + 1, 0);
  for (size_t s = 0; s < heads.size(); ++s) {
    ASKETCH_CHECK(heads[s]->size() < INT32_MAX - base[s]);
    base[s + 1] = base[s] + static_cast<uint32_t>(heads[s]->size());
  }
  return base;
}

KeyTable CodeTable(const ShardRouter& router,
                   const std::vector<std::shared_ptr<const HeadIndex>>& heads,
                   const std::vector<uint32_t>& base) {
  std::vector<item_t> keys;
  std::vector<int32_t> codes;
  for (uint32_t s = 0; s < heads.size(); ++s) {
    const std::span<const item_t> head_keys = heads[s]->keys();
    for (uint32_t rank = 0; rank < head_keys.size(); ++rank) {
      if (router(head_keys[rank]) != s) continue;
      keys.push_back(head_keys[rank]);
      codes.push_back(static_cast<int32_t>(base[s] + rank));
    }
  }
  return KeyTable(keys, codes);
}

}  // namespace

SplitIndex::SplitIndex(const ShardRouter& router,
                       std::vector<std::shared_ptr<const HeadIndex>> heads)
    : heads_(std::move(heads)),
      base_(CodeBases(heads_)),
      codes_(CodeTable(router, heads_, base_)) {
  ASKETCH_CHECK(heads_.size() == router.num_shards() &&
                heads_.size() <= kMaxShards);
}

void SplitFrame(std::span<const Tuple> tuples, const ShardRouter& router,
                const SplitIndex& index,
                const std::function<void(uint32_t, ShardDelta)>& emit) {
  const uint32_t n = router.num_shards();
  ASKETCH_CHECK(index.num_shards() == n);
  ASKETCH_CHECK(tuples.size() <= UINT32_MAX);
  // Head weight and tuples per code, then kSpares spares that absorb
  // the misses in rotation, so consecutive misses never add to the same
  // place.
  struct Sum {
    uint64_t weight;
    uint64_t tuples;
  };
  constexpr uint32_t kSpares = 8;
  // Per-thread buffers, grown to the largest frame, head and shard
  // count seen and reused.
  struct Scratch {
    std::vector<Sum> sums;
    std::vector<Tuple> misses;        ///< in arrival order
    std::vector<uint8_t> miss_shard;  ///< their shards
    std::vector<std::vector<Tuple>> lists;
  };
  thread_local Scratch scratch;
  scratch.sums.assign(index.base(n) + kSpares, Sum{0, 0});
  scratch.misses.resize(tuples.size());
  scratch.miss_shard.resize(tuples.size());
  Sum* const sums = scratch.sums.data();
  Tuple* const misses = scratch.misses.data();
  uint8_t* const miss_shard = scratch.miss_shard.data();
  const KeyTable::View table = index.codes().view();

  // Pass 1, every tuple: one probe of the code table and no branch on
  // its outcome, which a stream mixing head and tail keys cannot
  // predict. A head tuple adds to its code's sums; a miss adds to a
  // spare past the last code and is copied to the miss buffer,
  // whose cursor only a miss advances. No head tuple is routed.
  const uint32_t spare = index.base(n);
  size_t missed = 0;
  for (size_t i = 0; i < tuples.size(); ++i) {
    const Tuple t = tuples[i];
    const int32_t code = table.Find(t.key);
    // All ones for a miss. Masks, not `?:`, which GCC turns back into
    // a branch.
    const uint32_t miss = static_cast<uint32_t>(code >> 31);
    const uint32_t sink = spare + static_cast<uint32_t>(i % kSpares);
    Sum& sum = sums[(static_cast<uint32_t>(code) & ~miss) | (sink & miss)];
    sum.weight += t.value;
    ++sum.tuples;
    misses[missed] = t;
    missed += miss & 1;
  }

  // Pass 2, the misses: route each one. Add keeps no zero weight, so a
  // shard counts its misses in the low word and the nonzero-weight ones
  // in the high word: one add per miss.
  uint64_t miss_counts[kMaxShards];
  std::fill_n(miss_counts, n, uint64_t{0});
  for (size_t j = 0; j < missed; ++j) {
    const uint32_t s = router(misses[j].key);
    miss_shard[j] = static_cast<uint8_t>(s);
    miss_counts[s] += (uint64_t{misses[j].value != 0} << 32) | 1;
  }

  // Pass 3: each shard's nonzero-weight misses, in arrival order, into
  // a list of exactly their number.
  std::vector<std::vector<Tuple>>& lists = scratch.lists;
  lists.resize(n);
  Tuple* next[kMaxShards];
  for (uint32_t s = 0; s < n; ++s) {
    lists[s].resize(miss_counts[s] >> 32);
    next[s] = lists[s].data();
  }
  for (size_t j = 0; j < missed; ++j) {
    if (misses[j].value != 0) *next[miss_shard[j]]++ = misses[j];
  }

  for (uint32_t s = 0; s < n; ++s) {
    const Sum* const first = sums + index.base(s);
    const Sum* const last = sums + index.base(s + 1);
    uint64_t tuple_count = miss_counts[s] & 0xffffffffu;
    for (const Sum* sum = first; sum != last; ++sum) {
      tuple_count += sum->tuples;
    }
    if (tuple_count == 0) continue;
    uint64_t weight = 0;
    for (const Tuple& t : lists[s]) weight += t.value;
    std::vector<uint64_t> totals(static_cast<size_t>(last - first));
    for (const Sum* sum = first; sum != last; ++sum) {
      weight += sum->weight;
      totals[static_cast<size_t>(sum - first)] = sum->weight;
    }
    emit(s, ShardDelta(index.head(s), std::move(totals), std::move(lists[s]),
                       tuple_count, weight));
  }
}

std::optional<std::string> ShardSetOptions::Validate() const {
  if (num_shards < 1 || num_shards > kMaxShards) {
    return "num_shards must be in [1, " + std::to_string(kMaxShards) + "]";
  }
  if (max_queue_batches < 1) {
    return std::string("max_queue_batches must be >= 1");
  }
  return shard_config.Validate();
}

ShardSet::ShardSet(const ShardSetOptions& options)
    : options_(Checked(options)), router_(options.num_shards) {
  shards_.reserve(options.num_shards);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (uint32_t i = 0; i < options.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(MakeServingSketch(options)));
    Shard* shard = shards_.back().get();
    gauge_ids_.push_back(registry.RegisterCallbackGauge(
        "asketch_net_shard_queue_depth",
        "shard=\"" + std::to_string(i) + "\"", [shard]() -> double {
          std::lock_guard<std::mutex> lock(shard->queue_mu);
          return static_cast<double>(shard->queue.size());
        }));
  }
  // The placeholder series keeps the family present before/after any
  // ShardSet instance is alive (same trick as the pipeline gauge).
  NetMetrics::Get();
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { WorkerLoop(*s); });
  }
}

ShardSet::~ShardSet() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const uint64_t id : gauge_ids_) {
    registry.UnregisterCallbackGauge(id);
  }
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->queue_mu);
    shard->cv_pop.notify_all();
    shard->cv_push.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ShardSet::WorkerLoop(Shard& shard) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(shard.queue_mu);
      shard.cv_pop.wait(lock, [&] {
        const bool stop = stop_.load(std::memory_order_acquire);
        if (shard.queue.empty()) return stop;
        // A stop request overrides the test stall: remaining queued
        // batches are applied before the worker exits, so ~ShardSet
        // never strands acknowledged tuples.
        return stop || !stalled_.load(std::memory_order_acquire);
      });
      if (shard.queue.empty()) return;  // only reachable when stopping
    }
    // A reader may empty the queue before this thread gets the lock;
    // then there is nothing to apply.
    std::lock_guard<std::mutex> guard(shard.mu);
    ApplyQueueHeadLocked(shard);
  }
}

uint64_t ShardSet::ApplyQueueHeadLocked(Shard& shard) {
  std::optional<QueuedDelta> item;
  {
    std::lock_guard<std::mutex> lock(shard.queue_mu);
    if (shard.queue.empty()) return 0;
    item.emplace(std::move(shard.queue.front()));
    shard.queue.pop_front();
    shard.busy = true;
    shard.cv_push.notify_one();
  }
  NetMetrics::Get().queue_residency_ns.Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - item->queued_at)
          .count()));
  const uint64_t applied = ApplyLocked(shard, item->delta);
  // Release: a session that reads its count as zero also sees the
  // applied delta.
  if (item->pending != nullptr) {
    item->pending->fetch_sub(applied, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(shard.queue_mu);
    shard.busy = false;
    if (shard.queue.empty()) shard.cv_idle.notify_all();
  }
  return applied;
}

uint64_t ShardSet::ApplyLocked(Shard& shard, ShardDelta& delta) {
  NetMetrics& metrics = NetMetrics::Get();
  const auto start = std::chrono::steady_clock::now();
  std::visit([&](auto& sketch) { sketch.ApplyDelta(delta); }, shard.sketch);
  metrics.delta_merge_ns.Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  metrics.delta_merges.Add(1);
  // Release: a reader that observes this boundary via AppliedTuples()
  // is guaranteed to also observe the work it accounts for (the
  // concurrency tests' oracle bracketing).
  const uint64_t applied = delta.tuple_count();
  shard.applied_tuples.fetch_add(applied, std::memory_order_release);
  return applied;
}

uint64_t ShardSet::Submit(Shard& shard, ShardDelta delta,
                          std::atomic<uint64_t>* pending) {
  NetMetrics& metrics = NetMetrics::Get();
  bool enqueued = false;
  {
    std::unique_lock<std::mutex> lock(shard.queue_mu);
    if (shard.queue.size() >= options_.max_queue_batches) {
      metrics.enqueue_waits.Add(1);
      shard.cv_push.wait_for(
          lock, std::chrono::milliseconds(options_.max_enqueue_wait_ms),
          [&] {
            return shard.queue.size() < options_.max_queue_batches ||
                   stop_.load(std::memory_order_acquire);
          });
    }
    if (shard.queue.size() < options_.max_queue_batches &&
        !stop_.load(std::memory_order_acquire)) {
      // Counted in before any popper can see the delta, so the count
      // never goes below zero.
      if (pending != nullptr) {
        pending->fetch_add(delta.tuple_count(), std::memory_order_relaxed);
      }
      shard.queue.push_back(QueuedDelta{std::move(delta), pending,
                                        std::chrono::steady_clock::now()});
      shard.cv_pop.notify_one();
      enqueued = true;
    }
  }
  if (enqueued) return 0;
  // Bounded wait exhausted: degrade. Sticky gauge — an operator seeing
  // asketch_net_degraded == 1 knows at least one queue overflowed
  // since startup (the *_total counters say how much).
  metrics.degraded.Set(1);
  if (options_.overload == OverloadPolicy::kInlineApply) {
    std::lock_guard<std::mutex> guard(shard.mu);
    const uint64_t applied = ApplyLocked(shard, delta);
    inline_applied_.fetch_add(applied, std::memory_order_relaxed);
    metrics.inline_applied.Add(applied);
    return 0;
  }
  const uint64_t weight = delta.weight();
  shed_weight_.fetch_add(weight, std::memory_order_relaxed);
  metrics.shed_weight.Add(weight);
  return weight;
}

std::shared_ptr<const SplitIndex> ShardSet::CurrentSplitIndex() {
  std::shared_ptr<const SplitIndex> cached;
  {
    std::lock_guard<std::mutex> lock(split_index_mu_);
    cached = split_index_;
  }
  const uint32_t n = num_shards();
  bool moved[kMaxShards];
  bool any_moved = false;
  for (uint32_t s = 0; s < n; ++s) {
    moved[s] = cached == nullptr ||
               !std::visit(
                   [&](const auto& sketch) {
                     return sketch.HeadMatches(*cached->head(s));
                   },
                   shards_[s]->sketch);
    any_moved |= moved[s];
  }
  if (!any_moved) return cached;
  std::vector<std::shared_ptr<const HeadIndex>> heads(n);
  for (uint32_t s = 0; s < n; ++s) {
    heads[s] = moved[s] ? std::visit(
                              [](const auto& sketch) {
                                return sketch.HeadSnapshot();
                              },
                              shards_[s]->sketch)
                        : cached->head(s);
  }
  auto index = std::make_shared<const SplitIndex>(router_, std::move(heads));
  std::lock_guard<std::mutex> lock(split_index_mu_);
  split_index_ = index;
  return index;
}

uint64_t ShardSet::Ingest(std::span<const Tuple> tuples,
                          DeltaIngestState* delta_state,
                          OwnWrites* own_writes) {
  if (delta_state == nullptr) {
    uint64_t shed = 0;
    SplitFrame(tuples, router_, *CurrentSplitIndex(),
               [&](uint32_t s, ShardDelta delta) {
                 shed += Submit(*shards_[s], std::move(delta),
                                own_writes == nullptr
                                    ? nullptr
                                    : &own_writes->pending_[s]);
               });
    NetMetrics::Get().delta_flushed_tuples.Add(tuples.size());
    return shed;
  }
  ASKETCH_CHECK(own_writes == nullptr);
  DeltaIngestState& state = *delta_state;
  const uint32_t n = num_shards();
  ASKETCH_CHECK(state.per_shard_.size() == n);
  // Per tuple: one multiplicative hash, one head-index probe, and for a
  // miss one append. A shard's delta opens on its first tuple, with a
  // head snapshot taken lock-free from the live filter.
  for (const Tuple& t : tuples) {
    const uint32_t index = router_(t.key);
    std::optional<ShardDelta>& slot = state.per_shard_[index];
    if (!slot.has_value()) [[unlikely]] {
      slot.emplace(std::visit(
          [](const auto& sketch) { return sketch.MakeDeltaBatch(); },
          shards_[index]->sketch));
    }
    slot->Add(t.key, t.value);
  }
  uint64_t shed = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const auto& slot = state.per_shard_[i];
    if (slot.has_value() &&
        slot->tuple_count() >= ShardSetOptions::delta_flush_tuples) {
      shed += FlushShardDelta(i, state);
    }
  }
  return shed;
}

DeltaIngestState ShardSet::MakeDeltaState() const {
  DeltaIngestState state;
  state.per_shard_.resize(num_shards());
  return state;
}

uint64_t ShardSet::FlushShardDelta(uint32_t index,
                                   DeltaIngestState& state) {
  std::optional<ShardDelta>& slot = state.per_shard_[index];
  if (!slot.has_value()) return 0;
  if (slot->Empty()) {
    slot.reset();
    return 0;
  }
  NetMetrics::Get().delta_flushed_tuples.Add(slot->tuple_count());
  ShardDelta delta = std::move(*slot);
  slot.reset();
  return Submit(*shards_[index], std::move(delta), nullptr);
}

uint64_t ShardSet::FlushDeltas(DeltaIngestState& state) {
  if (state.per_shard_.empty()) return 0;
  ASKETCH_CHECK(state.per_shard_.size() == num_shards());
  uint64_t shed = 0;
  for (uint32_t i = 0; i < num_shards(); ++i) {
    shed += FlushShardDelta(i, state);
  }
  return shed;
}

void ShardSet::Drain() {
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->queue_mu);
    shard->cv_idle.wait(lock, [&] {
      return shard->queue.empty() && !shard->busy;
    });
  }
}

OwnWrites::OwnWrites(ShardSet& shards)
    : shards_(shards), pending_(shards.num_shards()) {}

OwnWrites::~OwnWrites() { shards_.AwaitOwnWrites(*this); }

void ShardSet::AwaitOwnWrites(OwnWrites& own_writes) {
  uint64_t applied = 0;
  for (uint32_t s = 0; s < num_shards(); ++s) {
    std::atomic<uint64_t>& pending = own_writes.pending_[s];
    // Acquire: a zero here follows the apply that retired the session's
    // last delta, so the lock-free read after this call sees it.
    if (pending.load(std::memory_order_acquire) == 0) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> guard(shard.mu);
    // Under mu no other thread can pop, so a non-zero count means one
    // of the session's deltas is still queued.
    while (pending.load(std::memory_order_relaxed) != 0) {
      const uint64_t head = ApplyQueueHeadLocked(shard);
      ASKETCH_CHECK(head != 0);
      applied += head;
    }
  }
  if (applied != 0) NetMetrics::Get().own_write_applied.Add(applied);
}

namespace {

/// Books one lock-free read (and any torn-snapshot retries it burned)
/// into the read-path counters.
void RecordLocklessRead(uint64_t reads, uint64_t retries) {
  NetMetrics& metrics = NetMetrics::Get();
  metrics.lockless_reads.Add(reads);
  if (retries != 0) metrics.seqlock_retries.Add(retries);
}

/// Exact filter-era hits of a filter entry, clamped at 0: a snapshot
/// forged or corrupted into new_count < old_count must not wrap the
/// unsigned subtraction into a ~2^32 "exact hit" count (every live
/// update path preserves new_count >= old_count, but deserialization
/// does not enforce it).
uint64_t ExactHits(const FilterEntry& e) {
  return e.new_count >= e.old_count
             ? static_cast<uint64_t>(e.new_count - e.old_count)
             : 0;
}

}  // namespace

count_t ShardSet::Estimate(item_t key) const {
  const Shard& shard = *shards_[router_(key)];
  uint64_t retries = 0;
  const count_t estimate = std::visit(
      [&](const auto& sketch) {
        return sketch.EstimateConcurrent(key, &retries);
      },
      shard.sketch);
  RecordLocklessRead(1, retries);
  return estimate;
}

void ShardSet::EstimateBatch(std::span<const item_t> keys,
                             std::vector<uint64_t>* estimates) const {
  const uint32_t n = num_shards();
  estimates->assign(keys.size(), 0);
  // Resolve the owning shard once per key and answer shard by shard:
  // one shard's filter ids and sketch rows stay cache-hot for its whole
  // group instead of being round-robined out by the next key's shard.
  std::vector<std::vector<uint32_t>> groups(n);
  for (size_t i = 0; i < keys.size(); ++i) {
    groups[router_(keys[i])].push_back(static_cast<uint32_t>(i));
  }
  uint64_t retries = 0;
  for (uint32_t s = 0; s < n; ++s) {
    const Shard& shard = *shards_[s];
    std::visit(
        [&](const auto& sketch) {
          for (const uint32_t i : groups[s]) {
            (*estimates)[i] = sketch.EstimateConcurrent(keys[i], &retries);
          }
        },
        shard.sketch);
  }
  RecordLocklessRead(keys.size(), retries);
}

std::vector<TopKEntry> ShardSet::TopK(uint32_t k) const {
  std::vector<TopKEntry> merged;
  uint64_t retries = 0;
  for (const auto& shard : shards_) {
    const std::vector<FilterEntry> entries = std::visit(
        [&](const auto& sketch) {
          return sketch.TopKConcurrent(&retries);
        },
        shard->sketch);
    for (const FilterEntry& e : entries) {
      merged.push_back(TopKEntry{e.key, e.new_count, ExactHits(e)});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              if (a.estimate != b.estimate) return a.estimate > b.estimate;
              return a.key < b.key;
            });
  if (merged.size() > k) merged.resize(k);
  RecordLocklessRead(1, retries);
  return merged;
}

uint64_t ShardSet::AppliedTuples(uint32_t shard) const {
  return shards_[shard]->applied_tuples.load(std::memory_order_acquire);
}

WireStats ShardSet::GetStats() const {
  WireStats stats;
  stats.num_shards = num_shards();
  stats.shed_weight = shed_weight_.load(std::memory_order_relaxed);
  stats.inline_applied = inline_applied_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard->mu);
    std::visit(
        [&](const auto& sketch) {
          const ASketchStats& s = sketch.stats();
          stats.filtered_weight += s.filtered_weight;
          stats.sketch_weight += s.sketch_weight;
          stats.exchanges += s.exchanges;
          stats.sketch_updates += s.sketch_updates;
          stats.memory_bytes += sketch.MemoryUsageBytes();
        },
        shard->sketch);
    stats.ingested +=
        shard->applied_tuples.load(std::memory_order_relaxed);
    stats.per_shard_ingested.push_back(
        shard->applied_tuples.load(std::memory_order_relaxed));
  }
  return stats;
}

std::vector<uint8_t> ShardSet::SerializeLocked() const {
  BinaryWriter writer;
  writer.PutU32(kShardSetMagic);
  writer.PutU32(num_shards());
  writer.PutU64(shed_weight_.load(std::memory_order_relaxed));
  writer.PutU64(inline_applied_.load(std::memory_order_relaxed));
  for (const auto& shard : shards_) {
    writer.PutU64(shard->applied_tuples.load(std::memory_order_relaxed));
    const bool ok = std::visit(
        [&](const auto& sketch) { return sketch.SerializeTo(writer); },
        shard->sketch);
    if (!ok) return {};
  }
  return writer.buffer();
}

std::optional<std::string> ShardSet::RestoreLocked(
    std::span<const uint8_t> payload) {
  BinaryReader reader(payload.data(), payload.size());
  uint32_t magic = 0;
  uint32_t shard_count = 0;
  uint64_t shed = 0;
  uint64_t inline_applied = 0;
  if (!reader.GetU32(&magic) || magic != kShardSetMagic ||
      !reader.GetU32(&shard_count) || !reader.GetU64(&shed) ||
      !reader.GetU64(&inline_applied)) {
    return std::string("shard-set payload: bad header");
  }
  if (shard_count != num_shards()) {
    return "shard-set payload holds " + std::to_string(shard_count) +
           " shards but this server runs " + std::to_string(num_shards()) +
           " (the key partition depends on the shard count; restart with "
           "a matching --shards)";
  }
  // Parse everything before committing, so a truncated payload cannot
  // leave the set half-restored. The parsed alternative matches the
  // running backend (ASketch's sketch magic differs per backend, so a
  // snapshot cut under the other --sketch fails to deserialize here
  // instead of half-adopting).
  std::vector<uint64_t> applied(shard_count);
  std::vector<AnyServingSketch> sketches;
  sketches.reserve(shard_count);
  for (uint32_t i = 0; i < shard_count; ++i) {
    if (!reader.GetU64(&applied[i])) {
      return std::string("shard-set payload: truncated shard header");
    }
    bool parsed = false;
    if (options_.backend == SketchBackend::kSalsa) {
      auto sketch = ServingSketchSalsa::DeserializeFrom(reader);
      if (sketch.has_value()) {
        sketches.emplace_back(*std::move(sketch));
        parsed = true;
      }
    } else {
      auto sketch = ServingSketch::DeserializeFrom(reader);
      if (sketch.has_value()) {
        sketches.emplace_back(*std::move(sketch));
        parsed = true;
      }
    }
    if (!parsed) {
      return "shard-set payload: shard " + std::to_string(i) +
             " failed to deserialize (corrupt, or cut under a different "
             "--sketch backend)";
    }
  }
  // Adopt in place: the restored state is copied into the live shards'
  // existing buffers instead of move-assigned over them, so lock-free
  // readers racing a restore (the SNAPSHOT re-adoption runs during live
  // serving) never chase a freed cell array or filter slab. That makes
  // shape compatibility a hard requirement; check every shard before
  // touching any of them so a mismatch cannot half-restore the set.
  for (uint32_t i = 0; i < shard_count; ++i) {
    const bool adoptable = std::visit(
        [&](const auto& live) {
          using SketchT = std::decay_t<decltype(live)>;
          return live.CanAdoptFrom(std::get<SketchT>(sketches[i]));
        },
        shards_[i]->sketch);
    if (!adoptable) {
      return "shard-set payload: shard " + std::to_string(i) +
             " has a different filter capacity or sketch geometry than "
             "this server's configuration (restart with the snapshot's "
             "original sizing flags)";
    }
  }
  for (uint32_t i = 0; i < shard_count; ++i) {
    std::visit(
        [&](auto& live) {
          using SketchT = std::decay_t<decltype(live)>;
          live.AdoptFrom(std::move(std::get<SketchT>(sketches[i])));
        },
        shards_[i]->sketch);
    shards_[i]->applied_tuples.store(applied[i],
                                     std::memory_order_release);
  }
  shed_weight_.store(shed, std::memory_order_relaxed);
  inline_applied_.store(inline_applied, std::memory_order_relaxed);
  return std::nullopt;
}

std::vector<uint8_t> ShardSet::SerializeState(StateDigest* digest) {
  Drain();
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mu);
  std::vector<uint8_t> payload = SerializeLocked();
  if (digest != nullptr) {
    digest->generation = 0;
    digest->ingested = 0;
    for (const auto& shard : shards_) {
      digest->ingested +=
          shard->applied_tuples.load(std::memory_order_relaxed);
    }
    digest->digest = Crc32c(payload.data(), payload.size());
  }
  return payload;
}

std::optional<std::string> ShardSet::RestoreState(
    std::span<const uint8_t> payload) {
  Drain();
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mu);
  return RestoreLocked(payload);
}

std::optional<std::string> ShardSet::SaveSnapshot(SnapshotStore& store,
                                                  StateDigest* digest) {
  Drain();
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mu);
  std::vector<uint8_t> payload = SerializeLocked();
  if (payload.empty()) {
    return std::string("shard-set serialization failed");
  }
  // Re-adopt the serialized form, so the live state continues from what
  // a recovery would load, then serialize again: deserialization
  // re-heapifies the filters, which can reorder entries, so only the
  // second serialization is a fixpoint of save -> recover -> serialize.
  // Persisting the canonical bytes makes the digest returned here match
  // what a --recover'd server reports.
  if (auto error = RestoreLocked(payload)) {
    return "post-save re-adoption failed: " + *error;
  }
  payload = SerializeLocked();
  if (payload.empty()) {
    return std::string("shard-set serialization failed");
  }
  if (auto error = store.Save(kShardSetPayloadType, payload)) return error;
  if (digest != nullptr) {
    digest->generation = store.LatestGeneration();
    digest->ingested = 0;
    for (const auto& shard : shards_) {
      digest->ingested +=
          shard->applied_tuples.load(std::memory_order_relaxed);
    }
    digest->digest = Crc32c(payload.data(), payload.size());
  }
  return std::nullopt;
}

std::optional<std::string> ShardSet::RecoverFromStore(
    const SnapshotStore& store, StateDigest* digest) {
  std::string error;
  const auto loaded = store.Load(kShardSetPayloadType, &error);
  if (!loaded.has_value()) {
    return "recovery failed: " + (error.empty() ? "no snapshot" : error);
  }
  if (auto restore_error = RestoreState(loaded->payload)) {
    return restore_error;
  }
  if (digest != nullptr) {
    digest->generation = loaded->generation;
    digest->ingested = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> guard(shard->mu);
      digest->ingested +=
          shard->applied_tuples.load(std::memory_order_relaxed);
    }
    digest->digest =
        Crc32c(loaded->payload.data(), loaded->payload.size());
  }
  return std::nullopt;
}

void ShardSet::StallWorkersForTesting(bool stalled) {
  stalled_.store(stalled, std::memory_order_release);
  if (!stalled) {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->queue_mu);
      shard->cv_pop.notify_all();
    }
  }
}

}  // namespace net
}  // namespace asketch
