#include "src/core/pipeline_asketch.h"

#include <algorithm>

namespace asketch {

PipelineASketch::PipelineASketch(const ASketchConfig& config,
                                 size_t queue_capacity)
    : filter_(config.filter_items),
      sketch_(CountMinConfig::FromSpaceBudget(
          internal::SketchBudgetBytes<RelaxedHeapFilter>(config),
          config.width, config.seed)),
      forward_(queue_capacity),
      reverse_(queue_capacity) {
  ASKETCH_CHECK(!config.Validate().has_value());
  worker_ = std::thread([this] { SketchStageLoop(); });
}

PipelineASketch::~PipelineASketch() {
  stop_.store(true, std::memory_order_release);
  worker_.join();
}

bool PipelineASketch::PushForwardUpdate(item_t key, count_t weight) {
  const ForwardMsg msg{ForwardKind::kUpdate, key, weight};
  while (!forward_.TryPush(msg)) {
    ++stats_.forward_full_spins;
    // Backpressure: drain reverse messages while waiting, so a sketch
    // stage blocked on delivering a fix-up can make progress.
    DrainReverseQueue();
    // The drain may have accepted an exchange for this very key. If the
    // key is now filter-resident, pushing the update anyway would place
    // it in the sketch AFTER the exchange's mark — the fix-up estimate
    // would not cover it and the filter entry would under-count. Absorb
    // it into the entry's exact portion instead.
    const int32_t slot = filter_.Find(key);
    if (slot >= 0) {
      const bool was_min = filter_.NewCount(slot) == filter_.MinNewCount();
      filter_.AddToNewCount(slot, static_cast<delta_t>(weight));
      if (was_min) PublishMin();
      return false;
    }
    std::this_thread::yield();
  }
  ++produced_;
  return true;
}

void PipelineASketch::Update(item_t key, delta_t delta) {
  ASKETCH_CHECK(delta >= 1);
  DrainReverseQueue();
  const int32_t slot = filter_.Find(key);
  if (slot >= 0) {
    const bool was_min = filter_.NewCount(slot) == filter_.MinNewCount();
    filter_.AddToNewCount(slot, delta);
    if (was_min) PublishMin();
    ++stats_.filter_hits;
    return;
  }
  const count_t weight = static_cast<count_t>(
      std::min<delta_t>(delta, ~count_t{0}));
  if (!filter_.Full()) {
    filter_.Insert(key, weight, /*old_count=*/0);
    PublishMin();
    ++stats_.filter_hits;
    return;
  }
  if (PushForwardUpdate(key, weight)) {
    ++stats_.forwarded;
  } else {
    ++stats_.filter_hits;  // absorbed during backpressure
  }
}

void PipelineASketch::ApplyFixup(item_t key, count_t estimate) {
  const int32_t slot = filter_.Find(key);
  if (slot < 0) {
    // Evicted in the meantime; the eviction already wrote the exact
    // filter-era hits back to the sketch.
    ++stats_.fixups_dropped;
    return;
  }
  const count_t old_count = filter_.OldCount(slot);
  if (estimate > old_count) {
    const count_t raise = estimate - old_count;
    // Raise both counts: the in-flight occurrences are now reflected
    // in old_count (they live in the sketch), and new_count keeps
    // the exact hits accumulated since the exchange on top.
    filter_.SetCounts(slot,
                      SaturatingAdd(filter_.NewCount(slot), raise),
                      estimate);
    PublishMin();
  }
  ++stats_.fixups_applied;
}

void PipelineASketch::DrainReverseQueue() {
  ReverseMsg msg;
  while (reverse_.TryPop(&msg)) {
    if (msg.kind == ReverseKind::kFixup) {
      ApplyFixup(msg.key, msg.estimate);
      continue;
    }
    // kCandidate. Already resident (a duplicate candidate, covered by the
    // first acceptance's fix-up) or stale by the time it arrived: reject.
    if (filter_.Find(msg.key) >= 0 || filter_.size() == 0 ||
        msg.estimate <= filter_.MinNewCount()) {
      ++stats_.rejected_candidates;
      continue;
    }
    // The liveness rule: accept only if the forward queue has room for
    // the mark and, when the victim holds exact hits, its write-back.
    const FilterEntry victim = filter_.PeekMin();
    const bool writeback = victim.new_count > victim.old_count;
    if (!forward_.HasRoomFor(writeback ? 2 : 1)) {
      ++stats_.rejected_candidates;
      continue;
    }
    // Pushing the mark before the Insert is safe because this whole
    // function runs on the filter stage: no occurrence of msg.key can
    // enter the forward queue between the two.
    PushReserved({ForwardKind::kMark, msg.key, 0});
    filter_.EvictMin();
    if (writeback) {
      PushReserved({ForwardKind::kUpdate, victim.key,
                    victim.new_count - victim.old_count});
    }
    filter_.Insert(msg.key, msg.estimate, msg.estimate);
    PublishMin();
    ++stats_.exchanges;
  }
}

void PipelineASketch::SketchStageLoop() {
  // Drain the forward queue in batches: one acquire/release pair covers
  // up to kDrainBatch messages, and the sketch rows of every drained
  // update are prefetched before any of them is applied, so each
  // message's w random cell accesses overlap its predecessors'.
  constexpr size_t kDrainBatch = 16;
  ForwardMsg batch[kDrainBatch];
  while (true) {
    while (stall_worker_.load(std::memory_order_acquire)) {
      if (stop_.load(std::memory_order_acquire)) return;
      std::this_thread::yield();
    }
    const size_t got = forward_.TryPopBatch(batch, kDrainBatch);
    if (got == 0) {
      if (stop_.load(std::memory_order_acquire) && forward_.Empty()) {
        return;
      }
      std::this_thread::yield();
      continue;
    }
    for (size_t i = 0; i < got; ++i) {
      if (batch[i].kind == ForwardKind::kUpdate) {
        sketch_.Prefetch(batch[i].key);
      }
    }
    for (size_t i = 0; i < got; ++i) {
      const ForwardMsg& msg = batch[i];
      if (msg.kind == ForwardKind::kUpdate) {
        const count_t estimate =
            sketch_.UpdateAndEstimate(msg.key, msg.weight);
        if (estimate > min_count_.load(std::memory_order_relaxed)) {
          // Propose an exchange; droppable if the reverse queue is full
          // (the filter stage will hear about the key again).
          reverse_.TryPush({ReverseKind::kCandidate, msg.key, estimate});
        }
      } else {
        // The fix-up must not be lost: wait until it fits. The filter
        // stage drains the reverse queue on every Update, wait and
        // Flush; only shutdown stops it draining.
        const ReverseMsg fixup{ReverseKind::kFixup, msg.key,
                               sketch_.Estimate(msg.key)};
        while (!reverse_.TryPush(fixup)) {
          if (stop_.load(std::memory_order_acquire)) return;
          std::this_thread::yield();
        }
      }
      // Incremented after this message's pushes so Flush() can conclude
      // from consumed == produced that every reverse message is visible.
      consumed_.fetch_add(1, std::memory_order_release);
    }
  }
}

void PipelineASketch::Flush() {
  // Alternate between draining reverse messages (which may enqueue more
  // forward work) and waiting for the worker to catch up, until both
  // queues are empty and every produced message was consumed.
  while (true) {
    DrainReverseQueue();
    if (consumed_.load(std::memory_order_acquire) == produced_ &&
        reverse_.Empty()) {
      // The worker may still be about to push a candidate for the last
      // consumed message — consumed_ is incremented after the push, so
      // consumed == produced implies all pushes happened; one final drain
      // and we are quiescent.
      DrainReverseQueue();
      if (consumed_.load(std::memory_order_acquire) == produced_ &&
          reverse_.Empty()) {
        return;
      }
    }
    std::this_thread::yield();
  }
}

count_t PipelineASketch::Estimate(item_t key) const {
  const int32_t slot = filter_.Find(key);
  if (slot >= 0) return filter_.NewCount(slot);
  return sketch_.Estimate(key);
}

std::vector<FilterEntry> PipelineASketch::TopK() const {
  std::vector<FilterEntry> entries;
  entries.reserve(filter_.size());
  filter_.ForEach([&entries](const FilterEntry& e) {
    entries.push_back(e);
  });
  std::sort(entries.begin(), entries.end(),
            [](const FilterEntry& a, const FilterEntry& b) {
              if (a.new_count != b.new_count) {
                return a.new_count > b.new_count;
              }
              return a.key < b.key;
            });
  return entries;
}

}  // namespace asketch
