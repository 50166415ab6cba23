// Frequency-Aware Counting (FCM; Thomas, Bordawekar, Aggarwal, Yu,
// ICDE 2009), as described and evaluated in the ASketch paper.
//
// FCM improves Count-Min accuracy by (1) spreading keys over *subsets* of
// the w rows — two auxiliary hash functions give each key an `offset` and a
// `gap`, and the key uses rows offset, offset+gap, offset+2·gap, ... — and
// (2) using fewer rows for high-frequency keys (w/2) than for low-frequency
// keys (4w/5), so hot keys pollute fewer cells. A Misra–Gries counter
// classifies keys as hot or cold.
//
// Because the hot row subset is a prefix of the cold row subset, every row
// in a key's *hot* subset receives all of that key's updates regardless of
// how the key was classified over time, so estimates for keys that were
// never demoted stay one-sided. (A key that was hot and later demoted can
// be under-estimated through its cold-only rows — an inherent FCM property
// the paper inherits.)

#ifndef ASKETCH_SKETCH_FCM_H_
#define ASKETCH_SKETCH_FCM_H_

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/hashing.h"
#include "src/common/types.h"
#include "src/sketch/misra_gries.h"

namespace asketch {

/// Configuration for FCM.
struct FcmConfig {
  /// Total number of rows ("w"). Hot keys use ceil(w/2) rows, cold keys
  /// ceil(4w/5) rows, matching the parameters quoted in the paper.
  uint32_t width = 8;
  /// Cells per row ("h").
  uint32_t depth = 4096;
  /// Capacity of the Misra–Gries classifier (the paper sizes it to match
  /// the ASketch filter's item capacity for fairness).
  uint32_t mg_capacity = 32;
  /// When false the MG classifier is dropped and every key is treated as
  /// cold. The paper's real-data experiments use this variant because "the
  /// MG counter incurs a significant performance overhead" (§7.3).
  bool use_mg_classifier = true;
  uint64_t seed = 42;

  std::optional<std::string> Validate() const;

  /// Config whose cell storage plus MG counter fits `bytes`.
  static FcmConfig FromSpaceBudget(size_t bytes, uint32_t width,
                                   uint32_t mg_capacity, uint64_t seed = 42);
};

/// The FCM sketch.
class Fcm {
 public:
  explicit Fcm(const FcmConfig& config);

  /// Applies tuple (key, delta). Positive deltas feed the MG classifier;
  /// negative deltas (deletions) bypass it and update the key's current
  /// row subset.
  void Update(item_t key, delta_t delta = 1);

  /// Point query: min over the key's current row subset.
  count_t Estimate(item_t key) const;

  /// Fused Update + Estimate with a single round of hashing (the ASketch
  /// miss path). Equivalent to Update(key, delta); Estimate(key).
  count_t UpdateAndEstimate(item_t key, delta_t delta);

  /// Issues software prefetches for the cells `key` can hash to. The cold
  /// row subset is prefetched unconditionally — the hot subset is a
  /// prefix of the same row sequence, so this covers both
  /// classifications without consulting the MG counter.
  void Prefetch(item_t key) const {
    uint32_t offset, gap;
    OffsetGap(key, &offset, &gap);
    for (uint32_t i = 0; i < cold_rows_; ++i) {
      const uint32_t row = RowAt(offset, gap, i);
      __builtin_prefetch(&Cell(row, hashes_.Bucket(row, key)), 1, 3);
    }
  }

  /// Applies the tuples in order (bit-identical to the equivalent
  /// sequence of Update calls), prefetching a few tuples ahead.
  void UpdateBatch(std::span<const Tuple> tuples);

  void Reset();

  uint32_t width() const { return config_.width; }
  uint32_t depth() const { return config_.depth; }
  uint32_t hot_rows() const { return hot_rows_; }
  uint32_t cold_rows() const { return cold_rows_; }

  /// True if `key` is classified high-frequency. Classification is
  /// *sticky*: a key becomes hot once its Misra–Gries count exceeds the
  /// MG guarantee threshold N/(k+1) — i.e. it is provably heavy — and
  /// then stays hot. Stickiness matters for correctness: a key demoted
  /// after writing only its hot row subset would be under-estimated
  /// through the cold rows; with a monotone hot set, every key's estimate
  /// row subset receives all of its updates and stays one-sided.
  bool IsHot(item_t key) const {
    if (!config_.use_mg_classifier) return false;
    return FindKey(hot_ids_.data(), hot_ids_.size(), hot_size_, key) >= 0;
  }

  size_t MemoryUsageBytes() const {
    return cells_.size() * sizeof(count_t) +
           (config_.use_mg_classifier
                ? mg_.MemoryUsageBytes() +
                      config_.mg_capacity * sizeof(item_t)
                : 0);
  }

  std::string Name() const { return "FCM"; }

 private:
  /// Row visited at step `i` for a key with the given offset/gap.
  uint32_t RowAt(uint32_t offset, uint32_t gap, uint32_t i) const {
    return (offset + i * gap) % config_.width;
  }

  void OffsetGap(item_t key, uint32_t* offset, uint32_t* gap) const;

  count_t& Cell(uint32_t row, uint32_t bucket) {
    return cells_[static_cast<size_t>(row) * config_.depth + bucket];
  }
  const count_t& Cell(uint32_t row, uint32_t bucket) const {
    return cells_[static_cast<size_t>(row) * config_.depth + bucket];
  }

  FcmConfig config_;
  uint32_t hot_rows_;
  uint32_t cold_rows_;
  HashFamily hashes_;        // one bucket function per row
  PairwiseHash offset_hash_;
  PairwiseHash gap_hash_;
  std::vector<uint32_t> coprime_gaps_;  // values coprime with width
  MisraGries mg_;
  wide_count_t processed_ = 0;  // total positive count fed in (N)
  // Sticky hot set (ids padded to a SIMD block; capacity mg_capacity).
  std::vector<uint32_t> hot_ids_;
  uint32_t hot_size_ = 0;
  std::vector<count_t> cells_;
};

}  // namespace asketch

#endif  // ASKETCH_SKETCH_FCM_H_
