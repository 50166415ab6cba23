// Vector filter: unsorted parallel arrays with SIMD scans (§6.1).
//
// Lookup is the paper's Algorithm 3 (vectorized linear scan over the id
// array); the minimum-count entry is located with a linear (vectorized)
// scan over the new_count array. No ordering structure is maintained, so
// hits are the cheapest of all filter designs — but every MinNewCount()
// call (one per filter miss in Algorithm 1) pays a full scan, which is why
// the Vector filter only wins at high skew (Fig. 14).

#ifndef ASKETCH_FILTER_VECTOR_FILTER_H_
#define ASKETCH_FILTER_VECTOR_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/simd_scan.h"
#include "src/common/types.h"
#include "src/filter/filter_interface.h"

namespace asketch {

/// The Vector (flat-array) filter.
class VectorFilter {
 public:
  /// A filter holding at most `capacity` items (>= 1).
  explicit VectorFilter(uint32_t capacity);

  /// Slot of `key`, or -1.
  int32_t Find(item_t key) const {
    return FindKey(ids_.data(), ids_.size(), size_, key);
  }

  /// Batched lookup: slots[i] = Find(keys[i]) for `count` keys
  /// (count <= kMaxProbeBatch), resolved in one pass over the id array.
  void FindBatch(const item_t* keys, size_t count, int32_t* slots) const {
    FindKeysBatch(ids_.data(), ids_.size(), size_, keys, count, slots);
  }

  /// Slots returned by Find stay valid across AddToNewCount: the flat
  /// array never reorders on a hit.
  static constexpr bool HitInvalidatesSlots(int32_t /*slot*/) {
    return false;
  }

  count_t NewCount(int32_t slot) const { return new_counts_[slot]; }
  count_t OldCount(int32_t slot) const { return old_counts_[slot]; }

  /// Adds `delta` (may be negative) to the slot's new_count.
  void AddToNewCount(int32_t slot, delta_t delta) {
    new_counts_[slot] = SaturatingAdd(new_counts_[slot], delta);
  }

  /// Overwrites both counts of `slot`.
  void SetCounts(int32_t slot, count_t new_count, count_t old_count) {
    new_counts_[slot] = new_count;
    old_counts_[slot] = old_count;
  }

  /// Inserts a new entry; the filter must not be full and `key` absent.
  void Insert(item_t key, count_t new_count, count_t old_count);

  /// Removes the entry at `slot`.
  void Remove(int32_t slot);

  bool Full() const { return size_ == capacity_; }

  /// Smallest new_count; full scan (the Vector filter's Achilles heel).
  count_t MinNewCount() const {
    ASKETCH_DCHECK(size_ > 0);
    return new_counts_[MinIndex(new_counts_.data(), new_counts_.size(),
                                size_)];
  }

  /// Removes and returns the minimum-new_count entry.
  FilterEntry EvictMin();

  uint32_t size() const { return size_; }
  uint32_t capacity() const { return capacity_; }

  /// Bytes per item: id + new_count + old_count (12 B — the paper's
  /// "0.4KB filter holds 32 items" accounting).
  static constexpr size_t BytesPerItem() {
    return sizeof(item_t) + 2 * sizeof(count_t);
  }
  size_t MemoryUsageBytes() const { return capacity_ * BytesPerItem(); }

  void Reset() { size_ = 0; }

  /// Visits all entries in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t i = 0; i < size_; ++i) {
      fn(FilterEntry{ids_[i], new_counts_[i], old_counts_[i]});
    }
  }

  static std::string Name() { return "Vector"; }

 private:
  uint32_t capacity_;
  uint32_t size_ = 0;
  // Parallel arrays padded to a SIMD block multiple; new_counts_ padding
  // is kept at UINT32_MAX so vectorized min scans never pick padding.
  std::vector<uint32_t> ids_;
  std::vector<count_t> new_counts_;
  std::vector<count_t> old_counts_;
};

static_assert(FilterType<VectorFilter>);

}  // namespace asketch

#endif  // ASKETCH_FILTER_VECTOR_FILTER_H_
