// Count Sketch (Charikar, Chen, Farach-Colton, ICALP 2002).
//
// Like Count-Min but each row additionally draws a pairwise-independent
// ±1 sign per key; updates add sign·delta and the point estimate is the
// *median* of the per-row signed readings. The error is two-sided but
// unbiased, with variance bounded by the stream's second moment over h.
//
// In this library Count Sketch serves as the "other sketch" demonstrating
// that ASketch is generic over its backend (§3 of the paper lists it as an
// admissible underlying sketch).

#ifndef ASKETCH_SKETCH_COUNT_SKETCH_H_
#define ASKETCH_SKETCH_COUNT_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/hashing.h"
#include "src/common/types.h"

namespace asketch {

/// Configuration for CountSketch; same vocabulary as CountMinConfig.
struct CountSketchConfig {
  uint32_t width = 8;
  uint32_t depth = 4096;
  uint64_t seed = 42;

  std::optional<std::string> Validate() const;

  /// Config with `width` rows whose cell storage fits `bytes`
  /// (cells are int32, the same size as CountMin's uint32 cells).
  static CountSketchConfig FromSpaceBudget(size_t bytes, uint32_t width,
                                           uint64_t seed = 42);
};

/// The Count Sketch. Estimates are clamped at zero before being returned
/// as count_t (true counts are non-negative on strict streams).
class CountSketch {
 public:
  explicit CountSketch(const CountSketchConfig& config);

  /// Applies tuple (key, delta); deletions are negative deltas.
  void Update(item_t key, delta_t delta = 1);

  /// Point query: median of the signed per-row readings, clamped to >= 0.
  count_t Estimate(item_t key) const;

  /// Fused Update + Estimate with a single round of hashing.
  count_t UpdateAndEstimate(item_t key, delta_t delta);

  /// Issues software prefetches for the cells `key` hashes to (one per
  /// row), hiding the w random accesses on the batch path.
  void Prefetch(item_t key) const {
    for (uint32_t row = 0; row < config_.width; ++row) {
      __builtin_prefetch(&Cell(row, hashes_.Bucket(row, key)), 1, 3);
    }
  }

  /// Applies the tuples in order (bit-identical to the equivalent
  /// sequence of Update calls), prefetching a few tuples ahead.
  void UpdateBatch(std::span<const Tuple> tuples);

  void Reset();

  uint32_t width() const { return config_.width; }
  uint32_t depth() const { return config_.depth; }

  size_t MemoryUsageBytes() const { return cells_.size() * sizeof(int32_t); }

  std::string Name() const { return "CountSketch"; }

 private:
  int32_t& Cell(uint32_t row, uint32_t bucket) {
    return cells_[static_cast<size_t>(row) * config_.depth + bucket];
  }
  const int32_t& Cell(uint32_t row, uint32_t bucket) const {
    return cells_[static_cast<size_t>(row) * config_.depth + bucket];
  }

  CountSketchConfig config_;
  HashFamily hashes_;
  SignFamily signs_;
  std::vector<int32_t> cells_;
};

}  // namespace asketch

#endif  // ASKETCH_SKETCH_COUNT_SKETCH_H_
