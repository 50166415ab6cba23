// Misra–Gries frequent-items counter (Misra & Gries, 1982).
//
// Maintains at most k (key, count) pairs. An arrival of a monitored key
// increments its counter; an arrival with free capacity inserts the key;
// otherwise every counter is decremented and zeroed entries are evicted.
// Any key with true frequency > N/(k+1) is guaranteed to be monitored.
//
// In this library the MG counter is the frequency classifier inside FCM
// (Frequency-Aware Counting): keys currently monitored are treated as
// high-frequency. Lookups use the same SIMD linear scan as the ASketch
// filter, per the paper's fairness setup in §7.1.

#ifndef ASKETCH_SKETCH_MISRA_GRIES_H_
#define ASKETCH_SKETCH_MISRA_GRIES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/simd_scan.h"
#include "src/common/types.h"

namespace asketch {

/// Fixed-capacity Misra–Gries summary over uint32 keys.
class MisraGries {
 public:
  /// Creates a summary monitoring at most `capacity` keys (>= 1).
  explicit MisraGries(uint32_t capacity);

  /// Processes `weight` arrivals of `key` (weight >= 1).
  void Update(item_t key, count_t weight = 1);

  /// True if `key` is currently monitored (the FCM "high-frequency" test).
  bool Contains(item_t key) const {
    return FindKey(ids_.data(), ids_.size(), size_, key) >= 0;
  }

  /// Monitored count of `key` (a lower bound on its true frequency minus
  /// the decrement error), or 0 if not monitored.
  count_t CountOf(item_t key) const {
    const int32_t slot = FindKey(ids_.data(), ids_.size(), size_, key);
    return slot < 0 ? 0 : counts_[slot];
  }

  uint32_t size() const { return size_; }
  uint32_t capacity() const { return capacity_; }

  /// Bytes per monitored item (id + count), used for space budgeting.
  static constexpr size_t BytesPerItem() {
    return sizeof(item_t) + sizeof(count_t);
  }
  size_t MemoryUsageBytes() const { return capacity_ * BytesPerItem(); }

  void Reset() { size_ = 0; }

 private:
  uint32_t capacity_;
  uint32_t size_ = 0;
  // Parallel arrays, capacity padded to a SIMD block multiple.
  std::vector<uint32_t> ids_;
  std::vector<count_t> counts_;
};

}  // namespace asketch

#endif  // ASKETCH_SKETCH_MISRA_GRIES_H_
