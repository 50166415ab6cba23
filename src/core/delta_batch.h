// DeltaBatch: a decode thread's slice of one shard's ingest.
//
// The serving layer's single-writer invariant (DESIGN.md §5c) allows
// exactly one thread to mutate a shard's filter seqlock and sketch
// cells. The paper's cost model t_f + (N2/N)·t_s (Table 2) says head
// mass should cost one filter hit and only the tail should pay for the
// sketch; a decode thread can take most of the head's share off the
// owner without touching shard state. A delta is keyed on a HeadIndex:
// the keys resident in the shard's filter when the delta opens (the
// *head snapshot*), frozen in ascending order so a key's rank is its
// position. Every tuple of a snapshot key sums into that rank's exact
// head total; every other tuple passes through unchanged into a plain
// miss list. The owner folds the delta in with ASketch::ApplyDelta: each
// head total, in ascending key order, re-probes the live filter, then
// the misses run through UpdateBatch — the same prepared sketch kernel
// and admission and exchange policy as serial ingest (ALGORITHMS.md §7).
//
// The snapshot is advisory: the live filter may evict or admit keys
// after the delta opens. ApplyDelta's re-probe absorbs both directions
// (a head total whose key was evicted takes the miss path; a miss whose
// key was admitted hits the filter inside UpdateBatch), and since a key
// never splits between the two halves, every tuple reaches the filter
// or the sketch exactly once. When the live filter still holds exactly
// the snapshot (head_size, HeadContains), no miss can hit it, and the
// owner may apply the misses as blocks without probing (ALGORITHMS.md
// §7, known-miss block path).
//
// A HeadIndex never changes once built, so any number of deltas, frames
// and decode threads may share one; ShardSet rebuilds a shard's index
// only when the filter's key set differs from it (the decode step,
// ALGORITHMS.md §7).

#ifndef ASKETCH_CORE_DELTA_BATCH_H_
#define ASKETCH_CORE_DELTA_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace asketch {

/// An immutable open-addressed map from distinct keys to codes >= 0,
/// kept sparse so that a lookup almost always ends at its first slot.
class KeyTable {
  struct Slot {
    item_t key = 0;
    int32_t code = -1;  ///< -1: free
  };

 public:
  /// The probe as a value: a hot loop keeps one per table in locals or
  /// registers, so a lookup reads no table fields.
  class View {
   public:
    /// `key`'s code, or -1 when `key` is absent. A free slot holds key
    /// 0 and code -1, so whichever of "found" and "free" ends the probe,
    /// the answer needs no further branch: on a stream that mixes head
    /// and tail keys the outcome is unpredictable. Forced inline: it is
    /// the frame split's per-tuple work, and GCC otherwise leaves the
    /// loop out of line there.
    [[gnu::always_inline]] int32_t Find(item_t key) const {
      size_t index = Home(key, shift_);
      for (;;) {
        const Slot slot = slots_[index];
        // Integer, not boolean, or: GCC splits `found || free` back
        // into two branches, the first as unpredictable as the outcome.
        const uint32_t stop = static_cast<uint32_t>(slot.key == key) |
                              (static_cast<uint32_t>(slot.code) >> 31);
        if (stop != 0) {
          return slot.code | -static_cast<int32_t>(slot.key != key);
        }
        index = (index + 1) & mask_;
      }
    }

   private:
    friend class KeyTable;
    View(const Slot* slots, size_t mask, uint32_t shift)
        : slots_(slots), mask_(mask), shift_(shift) {}

    const Slot* slots_;
    size_t mask_;
    uint32_t shift_;
  };

  /// Maps keys[i] to codes[i]; the keys must be distinct.
  KeyTable(std::span<const item_t> keys, std::span<const int32_t> codes) {
    // At most 1/16 full up to kSparseSlots slots: a miss, which is most
    // tuples of a tail-heavy stream, then almost always stops at its
    // first slot, so the probe's branch stays predictable. On Zipf 0.8
    // a half-full table made a probe 2.5x as costly (EXPERIMENTS.md,
    // "Head-table size"). Larger key sets never more than half fill it.
    const size_t want =
        std::max(2 * keys.size() + 1, std::min(16 * keys.size(), kSparseSlots));
    uint32_t bits = 3;
    while ((size_t{1} << bits) < want) ++bits;
    slots_.assign(size_t{1} << bits, Slot{});
    shift_ = 64 - bits;
    const size_t mask = slots_.size() - 1;
    for (size_t i = 0; i < keys.size(); ++i) {
      size_t index = Home(keys[i], shift_);
      while (slots_[index].code >= 0) index = (index + 1) & mask;
      slots_[index] = Slot{keys[i], codes[i]};
    }
  }

  View view() const { return View(slots_.data(), slots_.size() - 1, shift_); }
  int32_t Find(item_t key) const { return view().Find(key); }

 private:
  /// 32 KB of slots: a 32-key filter gets 512, the frame split's
  /// combined table over four such filters 2048.
  static constexpr size_t kSparseSlots = 4096;

  /// `key`'s first probe slot. Fibonacci hashing takes the product's
  /// high bits: the shard router keys on the low bits of a
  /// multiplicative hash, so low bits would cluster.
  static size_t Home(item_t key, uint32_t shift) {
    return static_cast<size_t>((uint64_t{key} * 0x9e3779b97f4a7c15ull) >>
                               shift);
  }

  std::vector<Slot> slots_;
  uint32_t shift_ = 64;
};

/// A frozen head snapshot: its distinct keys in ascending order (a
/// key's rank is its position) and a KeyTable from key to rank.
class HeadIndex {
 public:
  /// Indexes the distinct values of `keys`, in any order.
  explicit HeadIndex(std::vector<item_t> keys)
      : keys_(Distinct(std::move(keys))), table_(keys_, Ranks(keys_.size())) {}

  /// Number of keys.
  size_t size() const { return keys_.size(); }
  /// The keys, ascending; keys()[Rank(k)] == k.
  std::span<const item_t> keys() const { return keys_; }

  /// `key`'s rank, or -1 when `key` is not in the snapshot.
  int32_t Rank(item_t key) const { return table_.Find(key); }
  bool Contains(item_t key) const { return Rank(key) >= 0; }

 private:
  static std::vector<item_t> Distinct(std::vector<item_t> keys) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  }
  static std::vector<int32_t> Ranks(size_t n) {
    std::vector<int32_t> ranks(n);
    std::iota(ranks.begin(), ranks.end(), 0);
    return ranks;
  }

  std::vector<item_t> keys_;
  KeyTable table_;
};

class ShardDelta {
 public:
  /// An empty delta keyed on `head`, the filter's contents when the
  /// delta opens (ASketch::HeadSnapshot takes them lock-free).
  explicit ShardDelta(std::shared_ptr<const HeadIndex> head)
      : head_(std::move(head)), totals_(head_->size(), 0) {}

  /// A delta assembled in one pass over a frame (net::SplitFrame): the
  /// state Add would leave after `tuple_count` tuples of total `weight`
  /// whose head weight summed into `totals` (indexed by rank, one per
  /// head key) and whose other nonzero-weight tuples are `misses`, in
  /// arrival order.
  ShardDelta(std::shared_ptr<const HeadIndex> head,
             std::vector<uint64_t> totals, std::vector<Tuple> misses,
             uint64_t tuple_count, uint64_t weight)
      : head_(std::move(head)),
        totals_(std::move(totals)),
        misses_(std::move(misses)),
        tuple_count_(tuple_count),
        weight_(weight) {}

  /// Accumulates one tuple: a head key's weight joins its exact total,
  /// any other tuple is kept as it arrived. The only mutable state
  /// touched is this delta's — safe without synchronization. The
  /// per-tuple reference for net::SplitFrame.
  void Add(item_t key, count_t weight) {
    ++tuple_count_;
    if (weight == 0) return;
    weight_ += weight;
    const int32_t rank = head_->Rank(key);
    if (rank >= 0) {
      totals_[static_cast<size_t>(rank)] += weight;
      return;
    }
    misses_.push_back(Tuple{key, weight});
  }

  /// Visits every head-snapshot key that accumulated weight, in
  /// ascending key order.
  template <typename Fn>
  void ForEachHead(Fn&& fn) const {
    const std::span<const item_t> keys = head_->keys();
    for (size_t rank = 0; rank < totals_.size(); ++rank) {
      if (totals_[rank] != 0) fn(keys[rank], totals_[rank]);
    }
  }

  /// The head snapshot this delta is keyed on.
  const HeadIndex& head() const { return *head_; }
  /// Head totals by rank (zero for keys that saw no weight).
  std::span<const uint64_t> head_totals() const { return totals_; }
  /// Number of distinct keys in the head snapshot.
  size_t head_size() const { return head_->size(); }
  /// Whether `key` is in the head snapshot.
  bool HeadContains(item_t key) const { return head_->Contains(key); }

  /// The non-head tuples, in arrival order.
  std::span<const Tuple> misses() const { return misses_; }

  bool Empty() const { return tuple_count_ == 0; }
  /// Tuples added, zero-weight ones included.
  uint64_t tuple_count() const { return tuple_count_; }
  /// Total weight added (head totals plus misses).
  uint64_t weight() const { return weight_; }

 private:
  std::shared_ptr<const HeadIndex> head_;
  std::vector<uint64_t> totals_;
  std::vector<Tuple> misses_;
  uint64_t tuple_count_ = 0;
  uint64_t weight_ = 0;
};

/// The delta type ASketch<F, SketchT>::MakeDeltaBatch returns. A delta
/// holds no sketch, so every backend shares ShardDelta; the parameter
/// only keeps the backend-named spelling valid.
template <class SketchT>
using DeltaBatch = ShardDelta;

}  // namespace asketch

#endif  // ASKETCH_CORE_DELTA_BATCH_H_
