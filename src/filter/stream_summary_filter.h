// Stream-Summary filter: Space Saving's hash + sorted-bucket structure
// used as an ASketch filter (§6.1, first design alternative).
//
// Lookup goes through a hash table and the minimum is the head bucket's
// first child, both O(1) — but each monitored item carries ~5x the storage
// of the flat-array filters (pointers for two doubly-linked lists plus the
// hash table), so a fixed byte budget monitors far fewer items. That is
// exactly the trade-off Table 6 reports: a 0.4 KB Stream-Summary filter
// holds only a handful of items and loses accuracy against the 32-item
// Vector/Heap filters.
//
// The node's `aux` field stores old_count; the bucket count is new_count.

#ifndef ASKETCH_FILTER_STREAM_SUMMARY_FILTER_H_
#define ASKETCH_FILTER_STREAM_SUMMARY_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/common/check.h"
#include "src/common/stream_summary.h"
#include "src/common/types.h"
#include "src/filter/filter_interface.h"

namespace asketch {

/// The Stream-Summary filter.
class StreamSummaryFilter {
 public:
  /// A filter holding at most `capacity` items (>= 1).
  explicit StreamSummaryFilter(uint32_t capacity) : summary_(capacity) {}

  /// Slot (node handle) of `key`, or -1.
  int32_t Find(item_t key) const {
    const uint32_t node = summary_.Find(key);
    return node == kSummaryNil ? -1 : static_cast<int32_t>(node);
  }

  /// Batched lookup; hash-table probes don't amortize, so this is the
  /// plain per-key loop (the batch path still wins via sketch prefetch).
  void FindBatch(const item_t* keys, size_t count, int32_t* slots) const {
    for (size_t i = 0; i < count; ++i) slots[i] = Find(keys[i]);
  }

  /// Node handles are stable across count changes (MoveToCount relinks
  /// buckets without renumbering nodes).
  static constexpr bool HitInvalidatesSlots(int32_t /*slot*/) {
    return false;
  }

  count_t NewCount(int32_t slot) const { return summary_.Count(slot); }
  count_t OldCount(int32_t slot) const { return summary_.Aux(slot); }

  void AddToNewCount(int32_t slot, delta_t delta) {
    summary_.MoveToCount(slot, SaturatingAdd(summary_.Count(slot), delta));
  }

  void SetCounts(int32_t slot, count_t new_count, count_t old_count) {
    summary_.SetAux(slot, old_count);
    summary_.MoveToCount(slot, new_count);
  }

  void Insert(item_t key, count_t new_count, count_t old_count) {
    summary_.Insert(key, new_count, old_count);
  }

  void Remove(int32_t slot) { summary_.Remove(slot); }

  bool Full() const { return summary_.Full(); }

  count_t MinNewCount() const {
    ASKETCH_DCHECK(summary_.size() > 0);
    return summary_.MinCount();
  }

  FilterEntry EvictMin() {
    const uint32_t node = summary_.MinNode();
    ASKETCH_CHECK(node != kSummaryNil);
    const FilterEntry entry{summary_.Key(node), summary_.Count(node),
                            summary_.Aux(node)};
    summary_.Remove(node);
    return entry;
  }

  uint32_t size() const { return summary_.size(); }
  uint32_t capacity() const { return summary_.capacity(); }

  static constexpr size_t BytesPerItem() {
    return StreamSummary::BytesPerItem();
  }
  size_t MemoryUsageBytes() const { return summary_.MemoryUsageBytes(); }

  void Reset() { summary_.Reset(); }

  /// Visits all entries in ascending-count order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    summary_.ForEach([&fn](item_t key, count_t count, count_t aux) {
      fn(FilterEntry{key, count, aux});
    });
  }

  static std::string Name() { return "Stream-Summary"; }

 private:
  StreamSummary summary_;
};

static_assert(FilterType<StreamSummaryFilter>);

}  // namespace asketch

#endif  // ASKETCH_FILTER_STREAM_SUMMARY_FILTER_H_
