// DeltaBatch: a decode thread's slice of one shard's ingest.
//
// The serving layer's single-writer invariant (DESIGN.md §5c) allows
// exactly one thread to mutate a shard's filter seqlock and sketch
// cells. The paper's cost model t_f + (N2/N)·t_s (Table 2) says head
// mass should cost one filter hit and only the tail should pay for the
// sketch; a decode thread can take most of the head's share off the
// owner without touching shard state. When a delta opens it copies the
// keys resident in the shard's filter (the *head snapshot*). Add sums
// every tuple of a snapshot key into one exact head total and passes
// every other tuple through unchanged into a plain miss list. The owner
// folds the delta in with ASketch::ApplyDelta: each head total re-probes
// the live filter, then the misses run through UpdateBatch — the same
// prepared sketch kernel, admission and exchange policy, and sampler as
// serial ingest (ALGORITHMS.md §7).
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

#ifndef ASKETCH_CORE_DELTA_BATCH_H_
#define ASKETCH_CORE_DELTA_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/types.h"

namespace asketch {

class ShardDelta {
 public:
  /// Builds a delta keyed on `head_keys`, the filter's contents when the
  /// delta opens (ASketch::MakeDeltaBatch takes them lock-free).
  explicit ShardDelta(std::span<const item_t> head_keys) {
    // Open-addressed table, sparse for the default 32-slot filter (at
    // most 1/16 full): a miss, which is most tuples of a tail-heavy
    // stream, then almost always stops at its first slot, so the probe's
    // branch stays predictable. On Zipf 0.8 a half-full table made Add
    // 2.5x as costly (EXPERIMENTS.md, "Head-table size"). Larger heads
    // get at least kSparseSlots slots and never more than half fill the
    // table.
    const size_t want = std::max(
        2 * head_keys.size() + 1,
        std::min(16 * head_keys.size(), kSparseSlots));
    uint32_t bits = 3;
    while ((size_t{1} << bits) < want) ++bits;
    slots_.assign(size_t{1} << bits, Slot{});
    shift_ = 64 - bits;
    for (const item_t key : head_keys) {
      Slot& slot = ProbeSlot(key);
      head_size_ += !slot.used;
      slot.used = true;
      slot.key = key;
    }
  }

  /// Accumulates one tuple: a head key's weight joins its exact total,
  /// any other tuple is kept as it arrived. The only mutable state
  /// touched is this delta's — safe without synchronization.
  void Add(item_t key, count_t weight) {
    ++tuple_count_;
    if (weight == 0) return;
    weight_ += weight;
    Slot& slot = ProbeSlot(key);
    if (slot.used) {
      slot.weight += weight;
      return;
    }
    misses_.push_back(Tuple{key, weight});
  }

  /// Visits every head-snapshot key that accumulated weight.
  template <typename Fn>
  void ForEachHead(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.used && slot.weight != 0) fn(slot.key, slot.weight);
    }
  }

  /// Number of distinct keys in the head snapshot.
  size_t head_size() const { return head_size_; }
  /// Whether `key` is in the head snapshot.
  bool HeadContains(item_t key) const {
    return slots_[SlotIndex(key)].used;
  }

  /// The non-head tuples, in arrival order.
  std::span<const Tuple> misses() const { return misses_; }

  bool Empty() const { return tuple_count_ == 0; }
  /// Tuples added, zero-weight ones included.
  uint64_t tuple_count() const { return tuple_count_; }
  /// Total weight added (head totals plus misses).
  uint64_t weight() const { return weight_; }

 private:
  static constexpr size_t kSparseSlots = 512;  ///< 8 KB of slots

  struct Slot {
    item_t key = 0;
    bool used = false;
    uint64_t weight = 0;
  };

  /// Linear probe to `key`'s slot or the first free one. Fibonacci
  /// hashing takes the product's high bits: the shard router keys on the
  /// low bits of a multiplicative hash, so low bits would cluster.
  size_t SlotIndex(item_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t index = static_cast<size_t>(
        (uint64_t{key} * 0x9e3779b97f4a7c15ull) >> shift_);
    for (;;) {
      const Slot& slot = slots_[index];
      if (!slot.used || slot.key == key) return index;
      index = (index + 1) & mask;
    }
  }
  Slot& ProbeSlot(item_t key) { return slots_[SlotIndex(key)]; }

  std::vector<Slot> slots_;
  uint32_t shift_ = 64;
  size_t head_size_ = 0;
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
