// Exact ground-truth counting for accuracy evaluation.
//
// A flat array over the synthetic generators' key domain [0, num_distinct).

#ifndef ASKETCH_WORKLOAD_EXACT_COUNTER_H_
#define ASKETCH_WORKLOAD_EXACT_COUNTER_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace asketch {

/// Exact per-key counter over a dense key domain [0, domain_size).
class ExactCounter {
 public:
  /// Counter for keys in [0, domain_size).
  explicit ExactCounter(uint32_t domain_size) : counts_(domain_size, 0) {}

  /// Applies tuple (key, delta); CHECK-fails if a count would go negative
  /// (the library models strict streams only).
  void Update(item_t key, delta_t delta = 1) {
    ASKETCH_CHECK(key < counts_.size());
    const int64_t next = static_cast<int64_t>(counts_[key]) + delta;
    ASKETCH_CHECK(next >= 0);
    counts_[key] = static_cast<wide_count_t>(next);
    total_ = static_cast<wide_count_t>(static_cast<int64_t>(total_) + delta);
  }

  wide_count_t Count(item_t key) const {
    ASKETCH_CHECK(key < counts_.size());
    return counts_[key];
  }

  /// Sum of all counts (N in the paper's notation).
  wide_count_t Total() const { return total_; }

  uint32_t domain_size() const {
    return static_cast<uint32_t>(counts_.size());
  }

  const std::vector<wide_count_t>& counts() const { return counts_; }

  /// Keys sorted by descending true count (ties by ascending key);
  /// computed in O(M log M).
  std::vector<item_t> KeysByFrequency() const;

  /// True count of the k-th most frequent key (1-based); 0 if k exceeds
  /// the number of keys with positive counts.
  wide_count_t CountOfRank(uint32_t k) const;

 private:
  std::vector<wide_count_t> counts_;
  wide_count_t total_ = 0;
};

}  // namespace asketch

#endif  // ASKETCH_WORKLOAD_EXACT_COUNTER_H_
