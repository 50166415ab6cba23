// ASketch: a sketch augmented with an exact pre-filter for the hottest
// keys (Roy, Khan, Alonso, SIGMOD 2016).
//
// Every tuple first probes the filter. Hits aggregate exactly in the
// filter; misses flow to the underlying sketch, and when the sketch's
// estimate for the missed key exceeds the smallest count in the filter the
// two items are *exchanged* (Algorithm 1). The two-counter protocol keeps
// the one-sided guarantee of the underlying sketch:
//
//   new_count — over-estimated total frequency of a filtered key,
//   old_count — the portion already reflected inside the sketch;
//   new_count − old_count is the exact number of hits absorbed while the
//   key has been resident in the filter, and is the only quantity written
//   back to the sketch on eviction. The sketch is never decremented when a
//   key moves *into* the filter, so no other key's estimate can drop below
//   its true count (Example 1 of the paper is exactly the hazard avoided).
//
// At most one exchange is performed per sketch insertion; together with
// the zero-delta writeback suppression this yields Lemma 1: a key that
// appears t times is inserted into the sketch at most t times.
//
// Analytic model (Table 2), with w rows, h cells/row, filter of s_f bytes,
// h' = h − s_f/w, filter time t_f, sketch time t_s, total count N of which
// N2 reaches the sketch:
//   update/query time:   t_f + (N2/N)·t_s
//   estimation error:    (e/h')·N2·(N2/N)  w.p. e^{−w}   (vs (e/h)·N)
// The space identity s_f + w·h' = w·h is enforced by MakeASketch*.
//
// Deletions (Appendix A) are negative-delta updates; the filter absorbs
// them out of its exact (new−old) slack and pushes any residual into the
// sketch. No exchange is triggered by a deletion.

#ifndef ASKETCH_CORE_ASKETCH_H_
#define ASKETCH_CORE_ASKETCH_H_

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/core/delta_batch.h"
#include "src/obs/core_metrics.h"
#include "src/obs/trace.h"
#include "src/common/serialize.h"
#include "src/common/simd_scan.h"
#include "src/common/types.h"
#include "src/filter/filter_interface.h"
#include "src/filter/heap_filter.h"
#include "src/filter/stream_summary_filter.h"
#include "src/filter/vector_filter.h"
#include "src/sketch/count_min.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/fcm.h"
#include "src/sketch/frequency_estimator.h"
#include "src/sketch/salsa_count_min.h"

namespace asketch {

/// Running counters describing how the stream split between filter and
/// sketch; the basis of the selectivity and exchange experiments
/// (Figs. 3, 9, 17).
struct ASketchStats {
  /// Aggregated count absorbed by the filter (N1).
  wide_count_t filtered_weight = 0;
  /// Aggregated count forwarded to the sketch (N2). N2 / (N1 + N2) is the
  /// paper's filter_selectivity.
  wide_count_t sketch_weight = 0;
  /// Number of filter<->sketch exchanges performed (Fig. 9).
  uint64_t exchanges = 0;
  /// Number of evictions whose (new-old) delta was written back into the
  /// sketch (exchanges minus zero-delta suppressions).
  uint64_t exchange_writebacks = 0;
  /// Number of sketch insertions, including exchange writebacks.
  uint64_t sketch_updates = 0;
  /// Sketch insertions ApplyDelta's known-miss block path applied
  /// (ALGORITHMS.md §7); a subset of sketch_updates. Not serialized.
  uint64_t block_updates = 0;

  /// N2 / N, the fraction of stream weight the sketch had to process.
  double FilterSelectivity() const {
    const wide_count_t total = filtered_weight + sketch_weight;
    return total == 0 ? 0.0
                      : static_cast<double>(sketch_weight) /
                            static_cast<double>(total);
  }
};

/// The Augmented Sketch, composed of a FilterType and a sketch backend.
template <FilterType FilterT, SketchBackendType SketchT>
class ASketch {
 public:
  /// Takes ownership of a constructed filter and sketch. Use the
  /// MakeASketch* helpers to build a space-budgeted instance.
  /// `enable_exchanges = false` disables the filter<->sketch exchange
  /// (lines 9-17 of Algorithm 1), leaving a first-come early-aggregation
  /// filter — an ablation knob for quantifying the exchange policy's
  /// contribution; production use should keep it on.
  explicit ASketch(FilterT filter, SketchT sketch,
                   bool enable_exchanges = true)
      : filter_(std::move(filter)),
        sketch_(std::move(sketch)),
        enable_exchanges_(enable_exchanges) {}

  /// Algorithm 1 (positive deltas) / Appendix A (negative deltas).
  void Update(item_t key, delta_t delta = 1) {
    if (delta == 0) return;
    if (delta > 0) {
      UpdatePositive(key, delta);
    } else {
      UpdateNegative(key, delta);
    }
    // Scalar ingest flushes the pending telemetry block periodically so
    // the registry trails the sketch by at most kTelemetryFlushInterval
    // tuples; batch ingest flushes exactly once per batch instead.
    ASKETCH_TELEMETRY_ONLY(if (++pending_.since_flush >=
                               kTelemetryFlushInterval) [[unlikely]] {
      PublishTelemetry();
    })
  }

  /// Batched Algorithm 1 — the ingestion fast path. Tuples are processed
  /// in stream order and the resulting filter/sketch state is
  /// bit-identical to the equivalent sequence of Update() calls
  /// (identical hit aggregation, identical exchange decisions, identical
  /// stats). The throughput comes from working in chunks:
  ///
  ///   1. one multi-key SIMD pass over the filter id array resolves a
  ///      whole chunk of probes (FindKeysBatch) instead of re-scanning
  ///      per tuple;
  ///   2. the misses' sketch buckets are hashed in one vectorized pass
  ///      (PrepareUpdateBatch) and, for sketches too large to sit in
  ///      cache, their cells software-prefetched up front so the w
  ///      random accesses of each miss overlap the tuples ahead of it.
  ///
  /// Probed slots are reused until a structural filter change (free-slot
  /// insertion, exchange) or a slot-moving hit invalidates them; from
  /// then on the remainder of the chunk falls back to per-key Find, which
  /// keeps the walk exactly equivalent to Algorithm 1. Tuple weights are
  /// unsigned; zero-weight tuples are skipped like Update(key, 0).
  void UpdateBatch(std::span<const Tuple> tuples) {
    IngestBatch(tuples, /*known_misses=*/false);
  }

  /// Algorithm 2: filter hit answers exactly from new_count; otherwise the
  /// sketch answers.
  count_t Estimate(item_t key) const {
    const int32_t slot = filter_.Find(key);
    if (slot >= 0) return filter_.NewCount(slot);
    return sketch_.Estimate(key);
  }

  /// Top-k frequent items query (§7.2.2): the filter's contents, sorted by
  /// descending estimated frequency. k is bounded by the filter capacity.
  std::vector<FilterEntry> TopK() const {
    std::vector<FilterEntry> entries;
    entries.reserve(filter_.size());
    filter_.ForEach([&entries](const FilterEntry& e) {
      entries.push_back(e);
    });
    SortTopK(&entries);
    return entries;
  }

  /// Algorithm 2 against a concurrently-updated instance, without any
  /// lock: the filter lookup runs under its seqlock (retrying torn
  /// snapshots) and a miss falls through to relaxed atomic sketch reads.
  /// Requires a single concurrent writer (the normal shard discipline).
  ///
  /// One-sidedness survives the races (DESIGN.md §5c): a validated
  /// filter snapshot is a state the filter actually passed through, and
  /// the exchange path writes the victim's exact delta back to the
  /// sketch *before* evicting it, so by the time a reader can see a key
  /// absent from the filter the sketch already carries all of its mass
  /// — with insert-only cells the min can only sit at or above the true
  /// prefix count. `*retries` accumulates torn-snapshot retries.
  count_t EstimateConcurrent(item_t key, uint64_t* retries = nullptr) const
      requires requires(const FilterT& f, const SketchT& s, item_t k,
                        count_t* c, uint64_t* r) {
        { f.SnapshotFind(k, c, r) } -> std::same_as<bool>;
        { s.EstimateRelaxed(k) } -> std::same_as<count_t>;
      }
  {
    count_t count = 0;
    // Filter first, sketch second: if the key is mid-exchange, the
    // snapshot that no longer holds it was published after the sketch
    // writeback, which the seqlock's release/acquire pairing then makes
    // visible to the sketch reads below.
    if (filter_.SnapshotFind(key, &count, retries)) return count;
    return sketch_.EstimateRelaxed(key);
  }

  /// TopK against a concurrently-updated instance; the entries come from
  /// one validated seqlock snapshot of the filter, so the report is a
  /// state the filter actually passed through.
  std::vector<FilterEntry> TopKConcurrent(uint64_t* retries = nullptr) const
      requires requires(const FilterT& f, std::vector<FilterEntry>* out,
                        uint64_t* r) {
        f.SnapshotEntries(out, r);
      }
  {
    std::vector<FilterEntry> entries;
    filter_.SnapshotEntries(&entries, retries);
    SortTopK(&entries);
    return entries;
  }

  void Reset() {
    // Events observed before the reset still happened; surface them.
    ASKETCH_TELEMETRY_ONLY(PublishTelemetry();)
    filter_.Reset();
    sketch_.Reset();
    stats_ = ASketchStats{};
  }

  /// Flushes locally accumulated telemetry deltas into the global
  /// metrics registry (obs::IngestMetrics). Hot paths bank their events
  /// in plain per-instance fields and this call moves them into the
  /// per-thread sharded counters; UpdateBatch calls it once per batch,
  /// scalar Update every kTelemetryFlushInterval tuples. Call it before
  /// reading the registry when exact totals matter. No-op when telemetry
  /// is compiled out. Deliberately out-of-line and cold: it must not
  /// bloat the inlined ingest fast paths.
#if defined(__GNUC__) && !defined(ASKETCH_NO_TELEMETRY)
  __attribute__((noinline, cold))
#endif
  void PublishTelemetry() {
    ASKETCH_TELEMETRY_ONLY({
      obs::IngestMetrics& metrics = obs::IngestMetrics::Get();
      if (pending_.filtered_weight != 0) {
        metrics.filtered_weight.Add(pending_.filtered_weight);
      }
      if (pending_.sketch_weight != 0) {
        metrics.sketch_weight.Add(pending_.sketch_weight);
      }
      if (pending_.sketch_updates != 0) {
        metrics.sketch_updates.Add(pending_.sketch_updates);
      }
      if (pending_.block_updates != 0) {
        metrics.block_updates.Add(pending_.block_updates);
      }
      if (pending_.exchanges != 0) {
        metrics.exchanges.Add(pending_.exchanges);
      }
      if (pending_.exchange_writebacks != 0) {
        metrics.exchange_writebacks.Add(pending_.exchange_writebacks);
      }
      if (pending_.deletions != 0) {
        metrics.deletions.Add(pending_.deletions);
      }
      pending_ = PendingTelemetry{};
    })
  }

  size_t MemoryUsageBytes() const {
    return filter_.MemoryUsageBytes() + sketch_.MemoryUsageBytes();
  }

  /// Merges `other` (built from the same config — compatible sketches
  /// and equal filter capacities) into this instance. The merged ASketch
  /// answers queries over the union of both streams with the one-sided
  /// guarantee intact. Returns an error message on mismatch.
  ///
  /// Procedure: (1) merge the sketch cells; (2) transfer the exact
  /// filter-era hits (new−old) of `other`'s filter entries, through the
  /// normal update path so exchanges still apply; (3) raise each of this
  /// filter's entries by `other`'s sketch estimate for its key — that
  /// mass is now inside the merged sketch, so both counters grow by it.
  /// The weight split of stats() is the sum of both inputs' splits
  /// (ALGORITHMS.md §4 states what else a merge preserves). Exists only
  /// for sketches that merge themselves (CountMin).
  std::optional<std::string> MergeFrom(const ASketch& other)
      requires requires(SketchT& s, const SketchT& o) {
        s.MergeFrom(o);
      }
  {
    if (filter_.capacity() != other.filter_.capacity()) {
      return std::string("ASketch::MergeFrom: filter capacities differ");
    }
    if (auto error = sketch_.MergeFrom(other.sketch_)) return error;
    // Step 2 re-applies mass that other.stats_ already counts, so its
    // bookings are replaced below rather than added a second time.
    const wide_count_t filtered_weight =
        stats_.filtered_weight + other.stats_.filtered_weight;
    const wide_count_t sketch_weight =
        stats_.sketch_weight + other.stats_.sketch_weight;
    std::vector<FilterEntry> other_entries;
    other.filter_.ForEach([&other_entries](const FilterEntry& e) {
      other_entries.push_back(e);
    });
    for (const FilterEntry& e : other_entries) {
      if (e.new_count > e.old_count) {
        const int32_t slot = filter_.Find(e.key);
        if (slot >= 0) {
          filter_.AddToNewCount(
              slot, static_cast<delta_t>(e.new_count - e.old_count));
        } else {
          UpdatePositive(e.key, static_cast<delta_t>(e.new_count -
                                                     e.old_count));
        }
      }
    }
    std::vector<FilterEntry> own_entries;
    filter_.ForEach([&own_entries](const FilterEntry& e) {
      own_entries.push_back(e);
    });
    for (const FilterEntry& e : own_entries) {
      const count_t other_sketch_estimate =
          other.sketch_.Estimate(e.key);
      if (other_sketch_estimate == 0) continue;
      const int32_t slot = filter_.Find(e.key);
      if (slot < 0) continue;  // evicted by an exchange in pass 2
      filter_.SetCounts(
          slot,
          SaturatingAdd(filter_.NewCount(slot),
                        static_cast<delta_t>(other_sketch_estimate)),
          SaturatingAdd(filter_.OldCount(slot),
                        static_cast<delta_t>(other_sketch_estimate)));
    }
    stats_.filtered_weight = filtered_weight;
    stats_.sketch_weight = sketch_weight;
    return std::nullopt;
  }

  /// The filter's current membership as a head index, taken lock-free
  /// through the seqlock so decode threads may call this while the
  /// owner is mid-batch.
  std::shared_ptr<const HeadIndex> HeadSnapshot() const
      requires requires(const FilterT& f, std::vector<FilterEntry>* out) {
        f.SnapshotEntries(out);
      }
  {
    std::vector<FilterEntry>& entries = SnapshotScratch();
    filter_.SnapshotEntries(&entries);
    std::vector<item_t> keys;
    keys.reserve(entries.size());
    for (const FilterEntry& e : entries) keys.push_back(e.key);
    return std::make_shared<const HeadIndex>(std::move(keys));
  }

  /// Whether `head` holds exactly the filter's current key set: equal
  /// sizes and every resident key present (filter keys are distinct),
  /// on a lock-free snapshot like HeadSnapshot's. One probe per filter
  /// slot, so a caller that keeps its last index can check it on every
  /// use and never read a stale one.
  bool HeadMatches(const HeadIndex& head) const
      requires requires(const FilterT& f, std::vector<FilterEntry>* out) {
        f.SnapshotEntries(out);
      }
  {
    std::vector<FilterEntry>& entries = SnapshotScratch();
    filter_.SnapshotEntries(&entries);
    return head.size() == entries.size() &&
           std::all_of(entries.begin(), entries.end(),
                       [&](const FilterEntry& e) {
                         return head.Contains(e.key);
                       });
  }

  /// Opens a delta against this instance, keyed on HeadSnapshot(). The
  /// snapshot is advisory: ApplyDelta tolerates any drift between it
  /// and the filter at apply time.
  DeltaBatch<SketchT> MakeDeltaBatch() const
      requires requires(const FilterT& f, std::vector<FilterEntry>* out) {
        f.SnapshotEntries(out);
      }
  {
    return DeltaBatch<SketchT>(HeadSnapshot());
  }

  /// Folds a decode thread's DeltaBatch into this instance — the owner
  /// side of ingest (ALGORITHMS.md §7). Caller must hold the shard's
  /// writer role (same discipline as UpdateBatch). Two steps:
  ///
  ///   1. Each head total, in ascending key order (a function of the
  ///      snapshot's key set), re-probes the live filter: still resident →
  ///      one exact AddToNewCount; evicted since the snapshot → one
  ///      MissPositive carrying the whole total (free slot, or a sketch
  ///      insert and the normal exchange test).
  ///   2. The misses run through UpdateBatch in arrival order. When the
  ///      live filter still holds exactly the head snapshot, every miss
  ///      is a known miss: on a full filter, Count-Min builds first
  ///      apply them as blocks (ApplyKnownMisses) with no filter probe
  ///      and no per-tuple walk, up to the first block that might win
  ///      an exchange.
  ///
  /// Every tuple reaches the filter or the sketch exactly once through
  /// Algorithm 1's own steps, so estimates stay one-sided for every
  /// backend. Under a stable head (no exchange either way) the state
  /// equals UpdateBatch over the same tuples: head hits only raise
  /// exact counters, and the misses meet the sketch in the same order.
  /// The block path leaves the same state as the walk it skips.
  /// Always returns nullopt.
  std::optional<std::string> ApplyDelta(DeltaBatch<SketchT>& delta) {
    if (delta.Empty()) return std::nullopt;
    delta.ForEachHead([&](item_t key, uint64_t weight) {
      // A uint64 aggregate cannot overflow delta_t in practice; clamp
      // rather than wrap if a forged delta tries.
      const delta_t d = static_cast<delta_t>(
          std::min<uint64_t>(weight, 0x7fffffffffffffffull));
      const int32_t slot = filter_.Find(key);
      if (slot >= 0) {
        filter_.AddToNewCount(slot, d);
        stats_.filtered_weight += static_cast<wide_count_t>(d);
        ASKETCH_TELEMETRY_ONLY(
            pending_.filtered_weight += static_cast<uint64_t>(d);)
      } else {
        MissPositive(key, d);
      }
    });
    bool known_misses = false;
    if constexpr (kKnownMissBlocks) known_misses = HeadUnchanged(delta);
    IngestBatch(delta.misses(), known_misses);
    return std::nullopt;
  }

  /// Whether AdoptFrom(other) can replace this instance's state without
  /// reallocating the buffers lock-free readers are scanning. Always
  /// true for component types without in-place adoption (AdoptFrom then
  /// falls back to move assignment — only safe without concurrent
  /// readers).
  bool CanAdoptFrom(const ASketch& other) const {
    if constexpr (requires(const FilterT& f, const SketchT& s) {
                    { f.CanAdoptFrom(f) } -> std::same_as<bool>;
                    { s.CanAdoptFrom(s) } -> std::same_as<bool>;
                  }) {
      return filter_.CanAdoptFrom(other.filter_) &&
             sketch_.CanAdoptFrom(other.sketch_);
    } else {
      return true;
    }
  }

  /// Replaces this instance's state with `other`'s. When both components
  /// support in-place adoption the buffers are reused, so readers racing
  /// the adoption via EstimateConcurrent/TopKConcurrent never touch
  /// freed memory (the ShardSet restore path depends on this). Requires
  /// CanAdoptFrom(other); the caller must exclude concurrent writers.
  void AdoptFrom(ASketch&& other) {
    if constexpr (requires(FilterT& f, FilterT&& fo, SketchT& s,
                           SketchT&& so) {
                    f.AdoptFrom(std::move(fo));
                    s.AdoptFrom(std::move(so));
                  }) {
      ASKETCH_CHECK(CanAdoptFrom(other));
      filter_.AdoptFrom(std::move(other.filter_));
      sketch_.AdoptFrom(std::move(other.sketch_));
      enable_exchanges_ = other.enable_exchanges_;
      stats_ = other.stats_;
      ASKETCH_TELEMETRY_ONLY(pending_ = PendingTelemetry{};)
    } else {
      *this = std::move(other);
    }
  }

  /// Writes filter + sketch + stats. Hash functions come back from the
  /// serialized seeds.
  bool SerializeTo(BinaryWriter& writer) const {
    writer.PutU32(0x314b5341u);  // "ASK1"
    if (!filter_.SerializeTo(writer)) return false;
    if (!sketch_.SerializeTo(writer)) return false;
    writer.PutU8(enable_exchanges_ ? 1 : 0);
    writer.PutU64(stats_.filtered_weight);
    writer.PutU64(stats_.sketch_weight);
    writer.PutU64(stats_.exchanges);
    writer.PutU64(stats_.exchange_writebacks);
    writer.PutU64(stats_.sketch_updates);
    return writer.ok();
  }

  static std::optional<ASketch> DeserializeFrom(BinaryReader& reader) {
    uint32_t magic = 0;
    if (!reader.GetU32(&magic) || magic != 0x314b5341u) {
      return std::nullopt;
    }
    auto filter = FilterT::DeserializeFrom(reader);
    if (!filter.has_value()) return std::nullopt;
    auto sketch = SketchT::DeserializeFrom(reader);
    if (!sketch.has_value()) return std::nullopt;
    uint8_t exchanges = 0;
    ASketchStats stats;
    if (!reader.GetU8(&exchanges) || exchanges > 1 ||
        !reader.GetU64(&stats.filtered_weight) ||
        !reader.GetU64(&stats.sketch_weight) ||
        !reader.GetU64(&stats.exchanges) ||
        !reader.GetU64(&stats.exchange_writebacks) ||
        !reader.GetU64(&stats.sketch_updates)) {
      return std::nullopt;
    }
    ASketch result(*std::move(filter), *std::move(sketch),
                   exchanges != 0);
    result.stats_ = stats;
    return result;
  }

  /// Snapshot-envelope payload tag, composed from the component tags so
  /// every Filter/Sketch combination gets a distinct tag (registry:
  /// src/common/snapshot.h).
  static constexpr uint32_t kSnapshotPayloadType =
      0x41000000u | (FilterT::kSnapshotPayloadType << 8) |
      SketchT::kSnapshotPayloadType;

  const ASketchStats& stats() const { return stats_; }
  FilterT& filter() { return filter_; }
  const FilterT& filter() const { return filter_; }
  SketchT& sketch() { return sketch_; }
  const SketchT& sketch() const { return sketch_; }

  std::string Name() const {
    return "ASketch<" + FilterT::Name() + "," + sketch_.Name() + ">";
  }

 private:
  /// The calling thread's buffer for filter snapshots (HeadSnapshot,
  /// HeadMatches), reused so a decode thread does not allocate one per
  /// frame.
  static std::vector<FilterEntry>& SnapshotScratch() {
    thread_local std::vector<FilterEntry> entries;
    return entries;
  }

  /// Shared TopK ordering: descending estimate, ties by ascending key.
  static void SortTopK(std::vector<FilterEntry>* entries) {
    std::sort(entries->begin(), entries->end(),
              [](const FilterEntry& a, const FilterEntry& b) {
                if (a.new_count != b.new_count) {
                  return a.new_count > b.new_count;
                }
                return a.key < b.key;
              });
  }

  /// Whether the sketch backend has the known-miss block kernel
  /// (CountMin::UpdateBatchBounded on an AVX-512 build).
  static constexpr bool kKnownMissBlocks =
      requires(SketchT& s, std::span<const Tuple> t, uint64_t bound) {
        { s.UpdateBatchBounded(t, bound) } -> std::same_as<size_t>;
        requires SketchT::kBlockKernel;
      };

  /// UpdateBatch's body, shared with ApplyDelta's miss step.
  /// `known_misses` promises that no tuple's key is filter-resident;
  /// with a full filter, a prefix of the tuples then goes through
  /// ApplyKnownMisses and the rest through the walk.
  void IngestBatch(std::span<const Tuple> tuples, bool known_misses) {
    ASKETCH_TRACE_SPAN("asketch_update_batch");
    ASKETCH_TELEMETRY_ONLY(
        const auto telemetry_start = std::chrono::steady_clock::now();)
    if constexpr (kKnownMissBlocks) {
      if (known_misses && filter_.Full()) {
        tuples = tuples.subspan(ApplyKnownMisses(tuples));
      }
    } else {
      (void)known_misses;
    }
    WalkBatch(tuples);
    ASKETCH_TELEMETRY_ONLY({
      PublishTelemetry();
      obs::IngestMetrics::Get().update_batch_ns.Record(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - telemetry_start)
                  .count()));
    })
  }

  /// Whether the live filter holds exactly the delta's head snapshot:
  /// equal sizes and every resident key in the snapshot (one head-index
  /// probe per filter slot). Keys absent from the snapshot — the
  /// delta's misses — are then absent from the filter too.
  bool HeadUnchanged(const ShardDelta& delta) const {
    if (filter_.size() != delta.head_size()) return false;
    bool unchanged = true;
    filter_.ForEach([&](const FilterEntry& e) {
      unchanged &= delta.HeadContains(e.key);
    });
    return unchanged;
  }

  /// Known-miss block path (ALGORITHMS.md §7 step 2). Every tuple's key
  /// is absent from a full filter, so Algorithm 1 would send each one
  /// straight to the sketch and then test it for an exchange. The sketch
  /// applies the tuples in blocks as long as every key's estimate after
  /// its block is bounded by the filter minimum
  /// (CountMin::UpdateBatchBounded). Estimates only grow within a block,
  /// so no tuple of such a block can win an exchange, the filter does
  /// not change, and saturating adds of unsigned weights commute per
  /// cell, so the state matches the walk's bit for bit. The first block
  /// that might exchange is left, with everything after it, to
  /// WalkBatch. Returns the number of tuples applied.
  size_t ApplyKnownMisses(std::span<const Tuple> tuples)
    requires kKnownMissBlocks
  {
    const uint64_t bound =
        enable_exchanges_ ? uint64_t{filter_.MinNewCount()}
                          : SketchT::kUnbounded;
    const size_t applied = sketch_.UpdateBatchBounded(tuples, bound);
    wide_count_t weight = 0;
    uint64_t updates = 0;
    for (const Tuple& t : tuples.first(applied)) {
      weight += t.value;
      updates += t.value != 0;  // the walk skips zero weights
    }
    stats_.sketch_weight += weight;
    stats_.sketch_updates += updates;
    stats_.block_updates += updates;
    ASKETCH_TELEMETRY_ONLY({
      pending_.sketch_weight += weight;
      pending_.sketch_updates += updates;
      pending_.block_updates += updates;
    })
    return applied;
  }

  /// Algorithm 1 over a batch, tuple by tuple in stream order (the
  /// chunked probe/prepare/walk UpdateBatch documents).
  void WalkBatch(std::span<const Tuple> tuples) {
    constexpr size_t kChunk = 16;
    static_assert(kChunk <= kMaxProbeBatch);
    // Backends exposing the prepared-update API (PrepareUpdateBatch +
    // UpdateAndEstimateAt) hash a whole chunk's misses in one vectorized
    // pass at prefetch time; others fall back to a plain per-key
    // Prefetch if they have one.
    constexpr bool kPrepared =
        requires(SketchT& s, const item_t* k, uint32_t* b, delta_t d) {
          s.PrepareUpdateBatch(k, size_t{1}, b);
          s.UpdateAndEstimateAt(b, d, size_t{1});
        };
    item_t keys[kChunk];
    int32_t slots[kChunk];
    item_t miss_keys[kChunk];
    int8_t miss_index[kChunk];
    uint32_t rows = 0;
    std::vector<uint32_t> buckets;
    if constexpr (kPrepared) {
      rows = sketch_.width();
      buckets.resize(kChunk * rows);
    }
    const size_t n = tuples.size();
    for (size_t begin = 0; begin < n; begin += kChunk) {
      const size_t count = std::min(kChunk, n - begin);
      for (size_t i = 0; i < count; ++i) keys[i] = tuples[begin + i].key;
      filter_.FindBatch(keys, count, slots);
      // Hash (and, for out-of-cache sketches, warm) the sketch rows of
      // the probed misses before the in-order walk reaches them; hits
      // never touch the sketch.
      size_t miss_count = 0;
      if constexpr (kPrepared) {
        // Branchless compaction — the hit/miss mix is data-dependent and
        // a conditional append mispredicts on every boundary.
        for (size_t i = 0; i < count; ++i) {
          const bool miss = slots[i] < 0;
          miss_keys[miss_count] = keys[i];
          miss_index[i] = miss ? static_cast<int8_t>(miss_count)
                               : static_cast<int8_t>(-1);
          miss_count += miss;
        }
        sketch_.PrepareUpdateBatch(miss_keys, miss_count, buckets.data());
      } else if constexpr (requires(const SketchT& s, item_t k) {
                             s.Prefetch(k);
                           }) {
        for (size_t i = 0; i < count; ++i) {
          if (slots[i] < 0) sketch_.Prefetch(keys[i]);
        }
      }
      bool slots_valid = true;
      for (size_t i = 0; i < count; ++i) {
        const delta_t delta = static_cast<delta_t>(tuples[begin + i].value);
        if (delta == 0) continue;
        const int32_t slot =
            slots_valid ? slots[i] : filter_.Find(keys[i]);
        if (slot >= 0) {
          filter_.AddToNewCount(slot, delta);
          stats_.filtered_weight += static_cast<wide_count_t>(delta);
          ASKETCH_TELEMETRY_ONLY(
              pending_.filtered_weight += static_cast<uint64_t>(delta);)
          if (FilterT::HitInvalidatesSlots(slot)) slots_valid = false;
          continue;
        }
        // Buckets were prepared iff the original probe reported a miss;
        // they stay valid across filter mutations (they depend only on
        // the sketch's hash seeds, not on filter state). Row-major
        // layout: the key's column starts at its miss index with the
        // chunk's miss count as the stride.
        const uint32_t* prepared = nullptr;
        if constexpr (kPrepared) {
          if (miss_index[i] >= 0) {
            prepared = &buckets[static_cast<size_t>(miss_index[i])];
          }
        }
        if (MissPositive(keys[i], delta, prepared, miss_count)) {
          slots_valid = false;
        }
      }
    }
  }

  void UpdatePositive(item_t key, delta_t delta) {
    // Lines 1-6: filter lookup / hit aggregation.
    const int32_t slot = filter_.Find(key);
    if (slot >= 0) {
      filter_.AddToNewCount(slot, delta);
      stats_.filtered_weight += static_cast<wide_count_t>(delta);
      ASKETCH_TELEMETRY_ONLY(
          pending_.filtered_weight += static_cast<uint64_t>(delta);)
      return;
    }
    MissPositive(key, delta);
  }

  /// Lines 6-17 of Algorithm 1 for a key known to be absent from the
  /// filter: free-slot insertion, or sketch insert with the
  /// one-exchange-per-insertion rule. Returns true when the filter's
  /// membership changed (insertion or exchange) — i.e. slots found before
  /// this call are stale. `prepared` optionally carries the bucket
  /// indices PrepareUpdateBatch computed for `key` (batch
  /// path; row r's bucket at prepared[r*stride]); they replace the hash
  /// pass of the sketch insert with a bit-identical replay.
  bool MissPositive(item_t key, delta_t delta,
                    const uint32_t* prepared = nullptr,
                    size_t stride = 1) {
    if (!filter_.Full()) {
      filter_.Insert(key, static_cast<count_t>(std::min<delta_t>(
                              delta, ~count_t{0})),
                     /*old_count=*/0);
      stats_.filtered_weight += static_cast<wide_count_t>(delta);
      ASKETCH_TELEMETRY_ONLY(
          pending_.filtered_weight += static_cast<uint64_t>(delta);)
      return true;
    }
    // Lines 7-9: forward to the sketch and read back the new estimate,
    // hashing once (or not at all, through prepared buckets).
    count_t estimate;
    if constexpr (requires(SketchT& s) {
                    s.UpdateAndEstimateAt(prepared, delta, stride);
                  }) {
      if (prepared != nullptr) {
        estimate = sketch_.UpdateAndEstimateAt(prepared, delta, stride);
      } else {
        estimate = sketch_.UpdateAndEstimate(key, delta);
      }
    } else {
      (void)prepared;
      (void)stride;
      estimate = sketch_.UpdateAndEstimate(key, delta);
    }
    ++stats_.sketch_updates;
    stats_.sketch_weight += static_cast<wide_count_t>(delta);
    ASKETCH_TELEMETRY_ONLY({
      pending_.sketch_weight += static_cast<uint64_t>(delta);
      ++pending_.sketch_updates;
    })
    if (!enable_exchanges_) return false;
    // Lines 9-17: at most ONE exchange per sketch insertion. Multiple
    // cascading exchanges would re-inject over-estimated counts and only
    // add error (see the paper's discussion of the exchange policy).
    if (estimate > filter_.MinNewCount()) {
      // Writeback-before-eviction: filters exposing PeekMin get the
      // victim's exact delta pushed into the sketch while the victim is
      // still filter-resident, so a lock-free reader can never observe
      // the victim absent from the filter with its filter-era hits
      // missing from the sketch (a transient under-estimate). The final
      // state is bit-identical to the evict-then-writeback order — the
      // writeback touches no filter state.
      FilterEntry victim;
      if constexpr (requires(const FilterT& f) {
                      { f.PeekMin() } -> std::same_as<FilterEntry>;
                    }) {
        victim = filter_.PeekMin();
        WriteBackVictim(victim);
        filter_.EvictMin();
      } else {
        victim = filter_.EvictMin();
        WriteBackVictim(victim);
      }
      // The incoming key keeps its sketch cells untouched; both counts
      // start at the estimate so (new - old) = 0 exact hits so far.
      filter_.Insert(key, estimate, estimate);
      ++stats_.exchanges;
      ASKETCH_TELEMETRY_ONLY(++pending_.exchanges;)
      return true;
    }
    return false;
  }

  /// Lines 10-12 of Algorithm 1: pushes an exchange victim's exact
  /// filter-era hits back into the sketch (zero-delta suppressed).
  void WriteBackVictim(const FilterEntry& victim) {
    if (victim.new_count <= victim.old_count) return;
    // Only the exact hits accumulated in the filter go back; the
    // old_count portion never left the sketch.
    sketch_.Update(victim.key, static_cast<delta_t>(victim.new_count -
                                                    victim.old_count));
    ++stats_.exchange_writebacks;
    ++stats_.sketch_updates;
    ASKETCH_TELEMETRY_ONLY({
      ++pending_.exchange_writebacks;
      ++pending_.sketch_updates;
    })
  }

  void UpdateNegative(item_t key, delta_t delta) {
    ASKETCH_TELEMETRY_ONLY(++pending_.deletions;)
    const int32_t slot = filter_.Find(key);
    if (slot < 0) {
      // Not monitored: the deletion applies directly to the sketch, and
      // the weight it removes comes out of the sketch's share of the
      // stream (N2). Clamped: over-deletion of colliding keys must not
      // wrap the unsigned stats counters.
      sketch_.Update(key, delta);
      ++stats_.sketch_updates;
      ASKETCH_TELEMETRY_ONLY(++pending_.sketch_updates;)
      DeductWeight(stats_.sketch_weight, static_cast<count_t>(std::min<delta_t>(
                                             -delta, ~count_t{0})));
      return;
    }
    const count_t magnitude = static_cast<count_t>(
        std::min<delta_t>(-delta, ~count_t{0}));
    const count_t new_count = filter_.NewCount(slot);
    const count_t old_count = filter_.OldCount(slot);
    const count_t slack = new_count - old_count;  // exact filter-era hits
    if (slack >= magnitude) {
      // The filter's exact portion absorbs the whole deletion; the
      // removed weight was counted as filtered when it arrived.
      filter_.AddToNewCount(slot, delta);
      DeductWeight(stats_.filtered_weight, magnitude);
      return;
    }
    // Appendix A: subtract `magnitude` from new_count and the residual
    // (magnitude - slack) from both old_count and the sketch. Afterwards
    // new_count == old_count (all filter-era hits are consumed).
    const count_t residual = magnitude - slack;
    const count_t next = new_count >= magnitude ? new_count - magnitude : 0;
    filter_.SetCounts(slot, next, next);
    sketch_.Update(key, -static_cast<delta_t>(residual));
    ++stats_.sketch_updates;
    ASKETCH_TELEMETRY_ONLY(++pending_.sketch_updates;)
    // The slack portion undoes filter-absorbed weight (N1); the residual
    // undoes weight that had reached the sketch (N2).
    DeductWeight(stats_.filtered_weight, slack);
    DeductWeight(stats_.sketch_weight, residual);
    // Per Appendix A, no exchange is initiated by a negative update.
  }

  /// Removes deleted weight from a split-stats counter without wrapping:
  /// an over-deletion (possible for unmonitored keys, whose sketch
  /// estimate may exceed the true count) floors the counter at zero.
  static void DeductWeight(wide_count_t& counter, count_t amount) {
    counter -= std::min<wide_count_t>(counter, amount);
  }

  /// Scalar-path auto-flush period for the pending telemetry block (see
  /// PublishTelemetry): the registry trails by at most this many tuples.
  static constexpr uint64_t kTelemetryFlushInterval = 1024;

  /// Gross (monotonic) event deltas accrued since the last
  /// PublishTelemetry — unlike stats_, never decremented by deletions,
  /// matching the registry counters' monotonic semantics. Plain fields:
  /// banking an event costs one cache-local add, cheaper than even the
  /// sharded registry increment.
  struct PendingTelemetry {
    uint64_t filtered_weight = 0;
    uint64_t sketch_weight = 0;
    uint64_t sketch_updates = 0;
    uint64_t block_updates = 0;
    uint64_t exchanges = 0;
    uint64_t exchange_writebacks = 0;
    uint64_t deletions = 0;
    uint64_t since_flush = 0;  ///< scalar Updates since the last flush
  };

  FilterT filter_;
  SketchT sketch_;
  bool enable_exchanges_ = true;
  ASketchStats stats_;
  ASKETCH_TELEMETRY_ONLY(PendingTelemetry pending_;)
};

/// Space-budget configuration for the MakeASketch* helpers. The filter is
/// carved out of the sketch's budget by shrinking the hash range:
/// depth' = depth − s_f/(width·sizeof(cell)), i.e. s_f + w·h' = w·h.
struct ASketchConfig {
  /// Total synopsis budget in bytes (filter + sketch), e.g. 128 KB.
  size_t total_bytes = 128 * 1024;
  /// Number of sketch rows (w); kept identical to the plain sketch so the
  /// error-probability term e^{-w} is unchanged (§4).
  uint32_t width = 8;
  /// Filter capacity in items (|F|), e.g. 32 (~0.4 KB for flat filters).
  uint32_t filter_items = 32;
  uint64_t seed = 42;

  /// The rules every MakeASketch* helper CHECKs, for recoverable
  /// handling: the rows fit the sketches' fixed staging block, and a
  /// filter of type FilterT leaves part of the budget to the sketch.
  template <FilterType FilterT = RelaxedHeapFilter>
  std::optional<std::string> Validate() const {
    if (width < 1) return std::string("ASketch width must be >= 1");
    if (width > CountMinConfig::kMaxWidth) {
      return "ASketch width must be <= " +
             std::to_string(CountMinConfig::kMaxWidth);
    }
    if (filter_items < 1) {
      return std::string("ASketch filter_items must be >= 1");
    }
    const size_t filter_bytes =
        static_cast<size_t>(filter_items) * FilterT::BytesPerItem();
    if (filter_bytes >= total_bytes) {
      return "ASketch filter (" + std::to_string(filter_bytes) +
             " bytes) must be smaller than total_bytes (" +
             std::to_string(total_bytes) + ")";
    }
    return std::nullopt;
  }
};

namespace internal {

/// Sketch byte budget left after the filter takes its share.
template <FilterType FilterT>
size_t SketchBudgetBytes(const ASketchConfig& config) {
  const size_t filter_bytes = config.filter_items * FilterT::BytesPerItem();
  ASKETCH_CHECK(filter_bytes < config.total_bytes);
  return config.total_bytes - filter_bytes;
}

}  // namespace internal

/// ASketch over Count-Min (the paper's default configuration).
template <FilterType FilterT>
ASketch<FilterT, CountMin> MakeASketchCountMin(const ASketchConfig& config) {
  ASKETCH_CHECK(!config.Validate<FilterT>().has_value());
  const CountMinConfig sketch_config = CountMinConfig::FromSpaceBudget(
      internal::SketchBudgetBytes<FilterT>(config), config.width,
      config.seed);
  return ASketch<FilterT, CountMin>(FilterT(config.filter_items),
                                    CountMin(sketch_config));
}

/// ASketch over FCM ("ASketch-FCM", §7.2.1). The MG classifier is dropped:
/// the filter already separates the hot keys, so every key reaching the
/// sketch is treated as low-frequency — this is the modified FCM the paper
/// uses inside ASketch-FCM.
template <FilterType FilterT>
ASketch<FilterT, Fcm> MakeASketchFcm(const ASketchConfig& config) {
  ASKETCH_CHECK(!config.Validate<FilterT>().has_value());
  FcmConfig sketch_config = FcmConfig::FromSpaceBudget(
      internal::SketchBudgetBytes<FilterT>(config), config.width,
      /*mg_capacity=*/0, config.seed);
  sketch_config.use_mg_classifier = false;
  sketch_config.mg_capacity = 0;
  return ASketch<FilterT, Fcm>(FilterT(config.filter_items),
                               Fcm(sketch_config));
}

/// ASketch over the SALSA self-adjusting Count-Min: same byte budget,
/// packed 8-bit starting counters that merge on overflow, so the tail
/// that survives the filter meets a ~3.7x wider row (salsa_count_min.h;
/// bench_salsa_accuracy measures the accuracy-per-byte win).
template <FilterType FilterT>
ASketch<FilterT, SalsaCountMin> MakeASketchSalsa(
    const ASketchConfig& config) {
  ASKETCH_CHECK(!config.Validate<FilterT>().has_value());
  const SalsaConfig sketch_config = SalsaConfig::FromSpaceBudget(
      internal::SketchBudgetBytes<FilterT>(config), config.width,
      config.seed);
  return ASketch<FilterT, SalsaCountMin>(FilterT(config.filter_items),
                                         SalsaCountMin(sketch_config));
}

/// ASketch over Count Sketch (generality demonstration).
template <FilterType FilterT>
ASketch<FilterT, CountSketch> MakeASketchCountSketch(
    const ASketchConfig& config) {
  ASKETCH_CHECK(!config.Validate<FilterT>().has_value());
  const CountSketchConfig sketch_config = CountSketchConfig::FromSpaceBudget(
      internal::SketchBudgetBytes<FilterT>(config), config.width,
      config.seed);
  return ASketch<FilterT, CountSketch>(FilterT(config.filter_items),
                                       CountSketch(sketch_config));
}

extern template class ASketch<StrictHeapFilter, CountMin>;
extern template class ASketch<RelaxedHeapFilter, CountMin>;
extern template class ASketch<RelaxedHeapFilter, SalsaCountMin>;

}  // namespace asketch

#endif  // ASKETCH_CORE_ASKETCH_H_
