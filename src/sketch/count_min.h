// Count-Min sketch (Cormode & Muthukrishnan, J. Algorithms 2005).
//
// A 2-dimensional array of w rows (one pairwise-independent hash function
// per row) and h cells per row. Every update adds the delta to one cell per
// row; a point query returns the minimum over the w hashed cells. For a
// strict stream of total count N the estimate errs by at most (e/h)·N with
// probability at least 1 − e^{−w} (one-sided: never an under-estimate).
//
// This is the default sketch backend for ASketch, the baseline in every
// paper experiment, and the underlying sketch of Holistic UDAFs.

#ifndef ASKETCH_SKETCH_COUNT_MIN_H_
#define ASKETCH_SKETCH_COUNT_MIN_H_

#include <algorithm>
#include <cstddef>
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

namespace asketch {

/// Configuration for CountMin. `width` is the number of hash functions
/// (rows, "w" in the paper); `depth` is the range of each hash function
/// (cells per row, "h" in the paper).
struct CountMinConfig {
  uint32_t width = 8;
  uint32_t depth = 4096;
  uint64_t seed = 42;

  /// Largest accepted `width`: UpdateBatchBounded stages the buckets of
  /// a 64-key hashed chunk in a fixed on-stack block of 64 * kMaxWidth
  /// entries, one per key and row.
  static constexpr uint32_t kMaxWidth = 64;

  /// Returns an error message if invalid, std::nullopt otherwise.
  std::optional<std::string> Validate() const;

  /// Config with `width` rows whose total cell storage fits `bytes`.
  /// depth = bytes / (width * sizeof(count_t)), capped at UINT32_MAX;
  /// `width` is clamped into [1, kMaxWidth] before dividing.
  static CountMinConfig FromSpaceBudget(size_t bytes, uint32_t width,
                                        uint64_t seed = 42);
};

/// The Count-Min sketch.
class CountMin {
 public:
  /// Constructs from a validated config (CHECK-fails on invalid configs;
  /// call config.Validate() first for recoverable handling).
  explicit CountMin(const CountMinConfig& config);

  /// Applies tuple (key, delta). Negative deltas model deletions and are
  /// valid as long as the stream stays strict (no true count below zero).
  void Update(item_t key, delta_t delta = 1);

  /// Point query: min over the hashed cells. Never under-estimates on
  /// strict streams.
  count_t Estimate(item_t key) const;

  /// Point query safe against a concurrent updater: the cells are read
  /// with relaxed atomic loads (every mutator stores them atomically,
  /// so the mixed access is race-free). On insert-only streams each
  /// cell is monotone non-decreasing, so whatever interleaving the
  /// loads observe, every cell is at least its value at any earlier
  /// consistent cut — the min stays a one-sided (never-under) estimate
  /// of any prefix of the applied stream. Deletions break the
  /// monotonicity argument; the serving wire protocol carries none
  /// (Tuple weights are unsigned).
  count_t EstimateRelaxed(item_t key) const {
    count_t est = std::numeric_limits<count_t>::max();
    for (uint32_t row = 0; row < config_.width; ++row) {
      est = std::min(est, RelaxedLoad(Cell(row, hashes_.Bucket(row, key))));
    }
    return est;
  }

  /// Update(key, delta) followed by Estimate(key), hashing only once —
  /// the fused form Algorithm 1's miss path wants (line 8 + line 9).
  count_t UpdateAndEstimate(item_t key, delta_t delta);

  /// Issues software prefetches for the w cells `key` hashes to. An
  /// update touches one cell per row, w dependent random accesses — the
  /// cost the paper's pre-filter exists to avoid (§6.1); prefetching the
  /// next tuples' rows while the current one is processed hides it on
  /// the batch path.
  void Prefetch(item_t key) const {
    for (uint32_t row = 0; row < config_.width; ++row) {
      __builtin_prefetch(&Cell(row, hashes_.Bucket(row, key)), 1, 3);
    }
  }

  /// Sketches at or below this footprint are effectively cache-resident
  /// on any modern core (the paper's default budget is 128 KB, well
  /// inside an L2): their cells come back in a few cycles anyway, and
  /// issuing w prefetch instructions per miss is pure overhead. The
  /// prepared-batch path only prefetches above this size.
  static constexpr size_t kPrefetchMinBytes = size_t{2} << 20;

  /// Records the bucket each of `count` keys hashes to in every row,
  /// row-major: buckets[row*count + k] receives the bucket of keys[k] in
  /// `row`. The Carter–Wegman hash is the expensive half of an update (a
  /// 128-bit multiply plus a division per row), so batched callers hash
  /// once here and replay via UpdateAt / UpdateAndEstimateAt (pass
  /// `count` as the stride and &buckets[k] as the base). The indices
  /// depend only on the hash seeds and stay valid for the sketch's
  /// lifetime. Hashing is vectorized across the keys
  /// (HashFamily::BucketsForKeys), which is where the batched ingestion
  /// path gets most of its speedup — the Carter–Wegman evaluation
  /// dominates an update and the vector kernel amortizes it over eight
  /// keys. Cells are software-prefetched only for sketches too large to
  /// sit in cache (see kPrefetchMinBytes).
  void PrepareUpdateBatch(const item_t* keys, size_t count,
                          uint32_t* buckets) const {
    hashes_.BucketsForKeys(keys, count, buckets, count);
    if (MemoryUsageBytes() > kPrefetchMinBytes) {
      for (uint32_t row = 0; row < config_.width; ++row) {
        for (size_t k = 0; k < count; ++k) {
          __builtin_prefetch(&Cell(row, buckets[row * count + k]), 1, 3);
        }
      }
    }
  }

  /// Update(key, delta) where `buckets` points at the key's column of a
  /// PrepareUpdateBatch result: row r's bucket is
  /// buckets[r*stride]. Bit-identical effect, no second hash pass.
  void UpdateAt(const uint32_t* buckets, delta_t delta, size_t stride = 1);

  /// UpdateAndEstimate(key, delta) through prepared buckets.
  count_t UpdateAndEstimateAt(const uint32_t* buckets, delta_t delta,
                              size_t stride = 1);

  /// Applies the tuples (bit-identical to the equivalent sequence of
  /// Update calls): UpdateBatchBounded with an unbounded estimate.
  void UpdateBatch(std::span<const Tuple> tuples);

  /// Tuples per block of UpdateBatchBounded: one AVX-512 register of
  /// 32-bit lanes.
  static constexpr size_t kBlockKeys = 16;
  /// Largest width a bounded UpdateBatchBounded accepts: it stages one
  /// register of cells per row while it checks the bound.
  static constexpr uint32_t kBlockMaxWidth = 16;
  /// UpdateBatchBounded's `max_estimate` that never stops a block.
  static constexpr uint64_t kUnbounded = ~uint64_t{0};
  /// Whether UpdateBatchBounded runs its vector kernel (AVX-512F + CD
  /// builds). The scalar form is kept for other builds and for rows
  /// deeper than a signed 32-bit gather index reaches.
  static constexpr bool kBlockKernel =
#if defined(__AVX512F__) && defined(__AVX512CD__)
      true;
#else
      false;
#endif

  /// Applies tuples in blocks of kBlockKeys, in order. Before a block is
  /// applied, each of its keys gets an upper bound on its estimate after
  /// the block: the min over rows of the row's final cell, where a row
  /// whose block buckets are all distinct ends at exactly cell + the
  /// key's weight, and any other row (every row in the scalar form) at
  /// most at cell + the block's total weight. The first block where
  /// some key's bound exceeds `max_estimate` is left unapplied, and so
  /// is everything after it. Cells only grow, so every estimate a key
  /// of an applied block passes through is at most `max_estimate` —
  /// ASketch uses this to prove that no tuple of the block could have
  /// won a filter exchange.
  /// Returns the number of tuples applied (a multiple of kBlockKeys, or
  /// tuples.size()). Applies nothing and returns 0 when a finite bound
  /// meets a width above kBlockMaxWidth.
  ///
  /// The kernel hashes 64 keys per PrepareUpdateBatch call. Per block
  /// and row it gathers 16 cells, adds 16 weights with unsigned
  /// saturation and stores the lanes back. A row where two of the
  /// block's keys share a bucket (vpconflictd) is applied lane by lane.
  /// Per-cell saturating addition of unsigned weights is
  /// order-independent (final cell = min(2^32-1, initial + Σ weights)),
  /// so the row-major order leaves the same cells as the tuple-major
  /// walk of Update calls.
  size_t UpdateBatchBounded(std::span<const Tuple> tuples,
                            uint64_t max_estimate);

  /// Clears all cells; hash functions are kept.
  void Reset();

  uint32_t width() const { return config_.width; }
  uint32_t depth() const { return config_.depth; }
  const CountMinConfig& config() const { return config_; }

  /// Sum of all cells in one row == total stream count pushed through the
  /// sketch. Used by tests and the selectivity model.
  wide_count_t RowSum(uint32_t row) const;

  /// Storage footprint of the cell array in bytes.
  size_t MemoryUsageBytes() const {
    return cells_.size() * sizeof(count_t);
  }

  /// True if `other` was built with the same width, depth, and seed —
  /// the precondition for MergeFrom (the two share hash functions).
  bool CompatibleWith(const CountMin& other) const;

  /// Whether AdoptFrom(other) can replace this sketch's state without
  /// reallocating the cell array or rebuilding the hash functions
  /// concurrent readers are using: full config match.
  bool CanAdoptFrom(const CountMin& other) const {
    return CompatibleWith(other);
  }

  /// Replaces this sketch's cells with `other`'s, in place: the cell
  /// array is never reallocated, so lock-free readers racing the
  /// adoption observe a mix of old and new cell values, never freed
  /// memory. Requires CanAdoptFrom(other); the caller must exclude
  /// concurrent updaters (e.g. hold the shard mutex during snapshot
  /// re-adoption).
  void AdoptFrom(CountMin&& other) {
    ASKETCH_CHECK(CanAdoptFrom(other));
    for (size_t i = 0; i < cells_.size(); ++i) {
      RelaxedStore(cells_[i], other.cells_[i]);
    }
  }

  /// Adds `other`'s cells into this sketch (saturating). Count-Min is
  /// linearly mergeable: the merged sketch answers queries over the
  /// union of both streams with the usual one-sided guarantee. Returns
  /// an error message on an incompatible configuration.
  std::optional<std::string> MergeFrom(const CountMin& other);

  /// Writes config + cells; hash functions are reconstructed from the
  /// seed on load. The config ends in one reserved byte, always 0, which
  /// keeps the layout of existing snapshots and synopses.
  bool SerializeTo(BinaryWriter& writer) const;

  /// Inverse of SerializeTo; std::nullopt on malformed input, which
  /// includes a nonzero reserved byte.
  static std::optional<CountMin> DeserializeFrom(BinaryReader& reader);

  /// Snapshot-envelope payload tag (registry: src/common/snapshot.h).
  static constexpr uint32_t kSnapshotPayloadType = 1;

  std::string Name() const { return "CountMin"; }

 private:
  /// One block of UpdateBatchBounded: `live` (<= kBlockKeys) keys whose
  /// row r buckets are buckets[r*stride + j] and whose weights are
  /// values[j]. Returns false, with nothing applied, when the bound
  /// fails.
  bool ApplyBlock(const uint32_t* buckets, size_t stride,
                  const uint32_t* values, size_t live,
                  uint64_t max_estimate);
  bool ApplyBlockScalar(const uint32_t* buckets, size_t stride,
                        const uint32_t* values, size_t live,
                        uint64_t max_estimate);

  /// madvise(MADV_HUGEPAGE) on the cell array when it is large enough
  /// to profit (ctor + deserialize; see src/common/hugepage.h).
  void AdviseHugePagesIfLarge();

  count_t& Cell(uint32_t row, uint32_t bucket) {
    return cells_[static_cast<size_t>(row) * config_.depth + bucket];
  }
  const count_t& Cell(uint32_t row, uint32_t bucket) const {
    return cells_[static_cast<size_t>(row) * config_.depth + bucket];
  }

  CountMinConfig config_;
  HashFamily hashes_;
  std::vector<count_t> cells_;
};

}  // namespace asketch

#endif  // ASKETCH_SKETCH_COUNT_MIN_H_
