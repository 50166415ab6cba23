// Space Saving (Metwally, Agrawal, El Abbadi, ICDT 2005).
//
// The canonical counter-based top-k summary: at most k monitored keys; an
// unmonitored arrival evicts the minimum-count key and inherits its count
// (recording the inherited amount as the new key's error bound). Guarantees
// count_of(key) >= true frequency for monitored keys and monitors every key
// with true frequency > N/k.
//
// The ASketch paper compares against Space Saving adapted to frequency-
// estimation point queries (Fig. 11): a monitored key answers with its
// counter; an unmonitored key answers either with the minimum counter
// (never under-estimates; Metwally et al.'s suggestion) or with 0
// (Cormode & Hadjieleftheriou's suggestion). Both adapters are provided.

#ifndef ASKETCH_SKETCH_SPACE_SAVING_H_
#define ASKETCH_SKETCH_SPACE_SAVING_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/stream_summary.h"
#include "src/common/types.h"

namespace asketch {

/// Answer policy for point queries on unmonitored keys.
enum class SpaceSavingEstimateMode {
  /// Return the minimum monitored count (one-sided, pessimistic).
  kMin,
  /// Return zero (better observed error on skewed query mixes).
  kZero,
};

/// One reported heavy hitter.
struct SpaceSavingEntry {
  item_t key = 0;
  count_t count = 0;  ///< upper bound on the true frequency
  count_t error = 0;  ///< count - error is a lower bound
};

/// The Space Saving summary.
class SpaceSaving {
 public:
  /// Monitors at most `capacity` keys (>= 1).
  explicit SpaceSaving(uint32_t capacity,
                       SpaceSavingEstimateMode mode =
                           SpaceSavingEstimateMode::kMin);

  /// Processes `weight` arrivals of `key`. Space Saving has no deletion
  /// support; weight must be >= 1 (pass deletions to a sketch instead).
  void Update(item_t key, delta_t weight = 1);

  /// Point query under the configured estimate mode.
  count_t Estimate(item_t key) const;

  /// True if `key` is currently monitored.
  bool Contains(item_t key) const {
    return summary_.Find(key) != kSummaryNil;
  }

  /// The monitored keys sorted by descending count (the top-k report).
  std::vector<SpaceSavingEntry> TopK() const;

  uint32_t size() const { return summary_.size(); }
  uint32_t capacity() const { return summary_.capacity(); }
  count_t MinCount() const { return summary_.MinCount(); }

  static constexpr size_t BytesPerItem() {
    return StreamSummary::BytesPerItem();
  }
  size_t MemoryUsageBytes() const { return summary_.MemoryUsageBytes(); }

  void Reset() { summary_.Reset(); }

  std::string Name() const {
    return mode_ == SpaceSavingEstimateMode::kMin ? "SpaceSaving(min)"
                                                  : "SpaceSaving(zero)";
  }

 private:
  StreamSummary summary_;
  SpaceSavingEstimateMode mode_;
};

}  // namespace asketch

#endif  // ASKETCH_SKETCH_SPACE_SAVING_H_
