// SALSA-style self-adjusting Count-Min (Ben Basat, Chen, Einziger,
// Friedman, Scalosub — "SALSA: Self-Adjusting Lean Streaming Analytics",
// ICDE 2021), specialized to the Count-Min estimator this library serves.
//
// A plain Count-Min spends a full 32-bit cell on every bucket, but under
// ASketch's pre-filter the sketch only ever sees the tail of the
// distribution — almost every cell stays tiny. SalsaCountMin therefore
// backs each row with packed 8-bit counters and lets a counter that
// overflows *merge* with its aligned neighbor into one 16-bit counter
// (and an overflowing 16-bit pair into one 32-bit counter). Merging is
// recorded in two per-sketch bitmaps (one bit per aligned pair, one per
// aligned quad); the merged counter's value is the maximum of its parts,
// which keeps every cell an upper bound for every key hashed into it —
// the one-sided never-underestimate guarantee survives, only the
// collision rate of the few merged buckets grows. At equal byte budget
// the row gains ~3.7x the buckets of a 32-bit Count-Min (the two bitmaps
// cost 3/32 of the counter bytes), which is exactly the accuracy-per-byte
// trade the bench_salsa_accuracy sweep measures.
//
// Concurrency (DESIGN.md §5c): between merge events the sketch behaves
// like Count-Min — single-writer relaxed atomic stores into cells that
// are monotone non-decreasing on insert-only streams, so concurrent
// relaxed reads stay one-sided. A merge event changes the *layout* (a
// reader that loads the bitmaps before a merge and the counter bytes
// after it would decode garbage), so merges run inside a single-writer
// seqlock section on a sketch-wide merge epoch: EstimateRelaxed
// validates the epoch around its row loads and retries the rare torn
// scan. Total merges are bounded by 3/4 of the buckets for the sketch's
// lifetime (each bucket merges at most twice), so retries vanish once
// the layout converges.
//
// Deletions: negative deltas clamp at zero within the current counter
// layout. On merged counters a deletion for one resident key lowers the
// shared upper bound of its merge-neighbors too, so the one-sided
// guarantee only holds for insert-only streams once merging has begun
// (the serving wire path is insert-only; Tuple weights are unsigned).

#ifndef ASKETCH_SKETCH_SALSA_COUNT_MIN_H_
#define ASKETCH_SKETCH_SALSA_COUNT_MIN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/atomic_util.h"
#include "src/common/check.h"
#include "src/common/hashing.h"
#include "src/common/serialize.h"
#include "src/common/types.h"
#include "src/filter/seqlock.h"

namespace asketch {

/// Configuration for SalsaCountMin. `width` is the number of rows,
/// `depth` the number of 8-bit starting counters per row (a multiple of
/// 4, so every counter belongs to one aligned pair and one aligned quad).
struct SalsaConfig {
  uint32_t width = 8;
  uint32_t depth = 16384;
  uint64_t seed = 42;

  /// Returns an error message if invalid, std::nullopt otherwise.
  std::optional<std::string> Validate() const;

  /// Config with `width` rows whose counters *and* merge bitmaps fit
  /// `bytes`: a row of h 8-bit counters carries h/16 bytes of pair bits
  /// and h/32 bytes of quad bits, so depth = (bytes/width)·32/35 rounded
  /// down to a multiple of 4 (min 4). A zero width is treated as 1.
  static SalsaConfig FromSpaceBudget(size_t bytes, uint32_t width,
                                     uint64_t seed = 42);
};

/// Count-Min with SALSA neighbor-merging counters.
class SalsaCountMin {
 public:
  /// Constructs from a validated config (CHECK-fails on invalid configs;
  /// call config.Validate() first for recoverable handling).
  explicit SalsaCountMin(const SalsaConfig& config);

  /// Applies tuple (key, delta). See the file comment for the deletion
  /// caveat on merged counters.
  void Update(item_t key, delta_t delta = 1);

  /// Point query: min over the hashed buckets, each read at its current
  /// merge level. Never under-estimates on insert-only streams.
  count_t Estimate(item_t key) const;

  /// Point query safe against a concurrent updater. In-level counter
  /// stores are relaxed atomics over monotone cells (the Count-Min
  /// argument); layout changes (merges) run inside a seqlock section on
  /// the sketch-wide merge epoch, which this validates around its row
  /// loads — a scan torn by a merge is discarded and retried.
  count_t EstimateRelaxed(item_t key) const {
    for (uint64_t attempt = 0;; ++attempt) {
      const uint32_t begin = epoch_.ReadBegin();
      if ((begin & 1) == 0) {
        count_t est = std::numeric_limits<count_t>::max();
        for (uint32_t row = 0; row < config_.width; ++row) {
          est = std::min(
              est, ReadBucketAcquire(CellIndex(row,
                                               hashes_.Bucket(row, key))));
        }
        if (epoch_.ReadValidate(begin)) return est;
      }
      SeqRetryBackoff(attempt);
    }
  }

  /// Update(key, delta) followed by Estimate(key), hashing only once.
  count_t UpdateAndEstimate(item_t key, delta_t delta);

  /// Software prefetch of the w counter bytes `key` hashes to.
  void Prefetch(item_t key) const {
    for (uint32_t row = 0; row < config_.width; ++row) {
      __builtin_prefetch(bytes() + CellIndex(row, hashes_.Bucket(row, key)),
                         1, 3);
    }
  }

  /// Same threshold as CountMin::kPrefetchMinBytes: below it the sketch
  /// is cache-resident and prefetching is pure overhead.
  static constexpr size_t kPrefetchMinBytes = size_t{2} << 20;

  /// Records the bucket each of `count` keys hashes to in every row,
  /// row-major (stride `count`), hashed with the vectorized multi-key
  /// kernel, and prefetches the counters of sketches above
  /// kPrefetchMinBytes (the prepared-batch protocol
  /// shared with CountMin; buckets depend only on the hash seeds and stay
  /// valid for the sketch's lifetime).
  void PrepareUpdateBatch(const item_t* keys, size_t count,
                          uint32_t* buckets) const {
    hashes_.BucketsForKeys(keys, count, buckets, count);
    if (MemoryUsageBytes() > kPrefetchMinBytes) {
      for (uint32_t row = 0; row < config_.width; ++row) {
        for (size_t k = 0; k < count; ++k) {
          __builtin_prefetch(
              bytes() + CellIndex(row, buckets[row * count + k]), 1, 3);
        }
      }
    }
  }

  /// Update(key, delta) through prepared buckets (row r's bucket at
  /// buckets[r*stride]). Bit-identical effect, no second hash pass.
  void UpdateAt(const uint32_t* buckets, delta_t delta, size_t stride = 1);

  /// UpdateAndEstimate(key, delta) through prepared buckets.
  count_t UpdateAndEstimateAt(const uint32_t* buckets, delta_t delta,
                              size_t stride = 1);

  /// Applies the tuples in order (bit-identical to the equivalent
  /// sequence of Update calls).
  void UpdateBatch(std::span<const Tuple> tuples);

  /// Clears all counters and un-merges every bucket (the bitmaps reset
  /// too — a fresh sketch). Runs inside a merge-epoch section so
  /// concurrent relaxed readers retry instead of decoding a half-reset
  /// layout.
  void Reset();

  uint32_t width() const { return config_.width; }
  uint32_t depth() const { return config_.depth; }
  const SalsaConfig& config() const { return config_; }

  /// Counters + both merge bitmaps, in bytes.
  size_t MemoryUsageBytes() const {
    return words_.size() * sizeof(uint32_t) +
           (pair_bits_.size() + quad_bits_.size()) * sizeof(uint64_t);
  }

  /// Number of aligned pairs currently merged into 16-bit counters
  /// (including pairs later subsumed by a quad merge).
  uint64_t MergedPairs() const;

  /// Number of aligned quads currently merged into 32-bit counters.
  uint64_t MergedQuads() const;

  /// Logical counters still addressable across all rows; starts at
  /// width()*depth() and shrinks as merges coarsen the layout — the
  /// "effective width" the accuracy sweep reports.
  uint64_t LogicalCounters() const;

  /// True if `other` was built with the same width, depth, and seed
  /// (the two share hash functions and array shapes).
  bool CompatibleWith(const SalsaCountMin& other) const;

  /// Whether AdoptFrom(other) can replace this sketch's state without
  /// reallocating the arrays concurrent readers are scanning: full
  /// config match.
  bool CanAdoptFrom(const SalsaCountMin& other) const {
    return CompatibleWith(other);
  }

  /// Replaces this sketch's counters and merge bitmaps with `other`'s,
  /// in place, under one merge-epoch section: lock-free readers racing
  /// the adoption retry and never chase freed memory or decode a mixed
  /// layout. Requires CanAdoptFrom(other); the caller must exclude
  /// concurrent updaters (e.g. hold the shard mutex).
  void AdoptFrom(SalsaCountMin&& other);

  /// Writes config + counters + merge bitmaps; hash functions are
  /// reconstructed from the seed on load.
  bool SerializeTo(BinaryWriter& writer) const;

  /// Inverse of SerializeTo; std::nullopt on malformed input.
  static std::optional<SalsaCountMin> DeserializeFrom(BinaryReader& reader);

  /// Snapshot-envelope payload tag (registry: src/common/snapshot.h).
  static constexpr uint32_t kSnapshotPayloadType = 13;

  std::string Name() const { return "SalsaCountMin"; }

 private:
  /// Merge level of a bucket: how wide the counter holding it is.
  enum class Level : uint8_t { k8, k16, k32 };

  /// Flat index of (row, bucket) into the packed counter bytes. Rows are
  /// `depth` bytes and depth is a multiple of 4, so pair/quad alignment
  /// never crosses a row boundary.
  size_t CellIndex(uint32_t row, uint32_t bucket) const {
    return static_cast<size_t>(row) * config_.depth + bucket;
  }

  const uint8_t* bytes() const {
    return reinterpret_cast<const uint8_t*>(words_.data());
  }
  uint8_t* bytes() { return reinterpret_cast<uint8_t*>(words_.data()); }

  static bool TestBit(const std::vector<uint64_t>& bits, size_t index) {
    return (bits[index >> 6] >> (index & 63)) & 1;
  }
  static bool TestBitAcquire(const std::vector<uint64_t>& bits,
                             size_t index) {
    return (AcquireLoad(bits[index >> 6]) >> (index & 63)) & 1;
  }
  /// Sets a bitmap bit with a release store (merge-section discipline).
  static void SetBitRelease(std::vector<uint64_t>& bits, size_t index) {
    ReleaseStore(bits[index >> 6],
                 bits[index >> 6] | (uint64_t{1} << (index & 63)));
  }

  Level LevelAt(size_t cell) const {
    if (TestBit(quad_bits_, cell >> 2)) return Level::k32;
    if (TestBit(pair_bits_, cell >> 1)) return Level::k16;
    return Level::k8;
  }

  static constexpr count_t CapOf(Level level) {
    switch (level) {
      case Level::k8: return 0xffu;
      case Level::k16: return 0xffffu;
      case Level::k32: return ~count_t{0};
    }
    return ~count_t{0};
  }

  /// Value of the counter holding `cell` at `level` (plain loads —
  /// writer thread or excluded-writer contexts).
  count_t ReadAtLevel(size_t cell, Level level) const;

  /// Single-threaded read of `cell` at its current level.
  count_t ReadBucket(size_t cell) const {
    return ReadAtLevel(cell, LevelAt(cell));
  }

  /// Concurrent-reader load of `cell`: acquire loads of the bitmap words
  /// and the counter (at whichever width the bitmaps indicate), to be
  /// validated against the merge epoch by the caller.
  count_t ReadBucketAcquire(size_t cell) const;

  /// Stores `value` into the counter holding `cell` (relaxed — in-level
  /// stores are monotone under insertions and need no epoch).
  void StoreAtLevel(size_t cell, Level level, count_t value);

  /// Adds `delta` to the bucket at flat index `cell`, merging up on
  /// overflow. Returns the stored post-update value of its counter.
  count_t AddAt(size_t cell, delta_t delta);

  /// Widens the counter holding `cell` one level, inside an open
  /// merge-epoch section (release stores; must not open its own).
  void MergeUpLocked(size_t cell, Level level);

  SalsaConfig config_;
  HashFamily hashes_;
  /// Packed counters, 4-byte aligned so merged 16/32-bit counters (which
  /// sit at naturally aligned offsets) can be accessed atomically.
  std::vector<uint32_t> words_;
  /// One bit per aligned counter pair across all rows; set = merged.
  std::vector<uint64_t> pair_bits_;
  /// One bit per aligned counter quad across all rows; set = merged
  /// (overrides pair bits underneath).
  std::vector<uint64_t> quad_bits_;
  /// Merge epoch: odd while a layout change is in flight (seqlock.h).
  mutable SeqCounter epoch_;
};

}  // namespace asketch

#endif  // ASKETCH_SKETCH_SALSA_COUNT_MIN_H_
