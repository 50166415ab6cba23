// The filter contract of ASketch (§5, §6.1).
//
// A filter is a tiny exact summary of the currently-hottest keys. It stores
// up to `capacity` entries of (key, new_count, old_count):
//   * new_count — the (over-)estimated total frequency of the key,
//   * old_count — the portion of new_count that is already reflected in
//     the underlying sketch; new_count - old_count is the exact number of
//     hits absorbed while the key has been resident in the filter.
//
// Four designs are provided, matching the paper's §6.1 alternatives:
//   VectorFilter        — unsorted arrays, SIMD scans for both lookup and
//                         min; fastest at high skew, pays a full min-scan
//                         per filter miss.
//   StrictHeapFilter    — array min-heap on new_count, repaired on every
//                         hit; O(1) min.
//   RelaxedHeapFilter   — min-heap repaired only when the minimum element
//                         itself is hit (counts only grow, so the root
//                         stays the true minimum otherwise); the paper's
//                         best all-round choice.
//   StreamSummaryFilter — Space Saving's hash + sorted-bucket structure;
//                         O(1) min but heavy per-item overhead.
//
// All four satisfy the FilterType concept below; ASketch composes with any
// of them at compile time. Slot handles returned by Find() are invalidated
// by any mutating call.

#ifndef ASKETCH_FILTER_FILTER_INTERFACE_H_
#define ASKETCH_FILTER_FILTER_INTERFACE_H_

#include <concepts>
#include <cstddef>
#include <cstdint>

#include "src/common/types.h"

namespace asketch {

/// An entry evicted from (or enumerated out of) a filter.
struct FilterEntry {
  item_t key = 0;
  count_t new_count = 0;
  count_t old_count = 0;
};

inline bool operator==(const FilterEntry& a, const FilterEntry& b) {
  return a.key == b.key && a.new_count == b.new_count &&
         a.old_count == b.old_count;
}

/// Compile-time contract for filter implementations.
template <typename F>
concept FilterType = requires(F f, const F cf, item_t key, delta_t delta,
                              count_t count, int32_t slot,
                              const item_t* keys, size_t n, int32_t* slots) {
  { cf.Find(key) } -> std::same_as<int32_t>;          // slot or -1
  { cf.FindBatch(keys, n, slots) };                   // n Finds at once
  // Whether a hit on `slot` (AddToNewCount) moves other entries, i.e.
  // invalidates slots found before it.
  { F::HitInvalidatesSlots(slot) } -> std::same_as<bool>;
  { cf.NewCount(slot) } -> std::same_as<count_t>;
  { cf.OldCount(slot) } -> std::same_as<count_t>;
  { f.AddToNewCount(slot, delta) };                   // invalidates slots
  { f.SetCounts(slot, count, count) };                // invalidates slots
  { f.Insert(key, count, count) };                    // requires !Full()
  { f.Remove(slot) };                                 // invalidates slots
  { cf.Full() } -> std::same_as<bool>;
  { cf.MinNewCount() } -> std::same_as<count_t>;      // requires size > 0
  { f.EvictMin() } -> std::same_as<FilterEntry>;      // requires size > 0
  { cf.size() } -> std::convertible_to<uint32_t>;
  { cf.capacity() } -> std::convertible_to<uint32_t>;
  { cf.MemoryUsageBytes() } -> std::convertible_to<size_t>;
  { f.Reset() };
};

}  // namespace asketch

#endif  // ASKETCH_FILTER_FILTER_INTERFACE_H_
