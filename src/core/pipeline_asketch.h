// Pipeline-parallel ASketch (§6.2).
//
// The filter stage runs on the caller's thread (core C0) and the
// Count-Min stage on a dedicated worker thread (core C1); they communicate
// over two SPSC queues instead of sharing memory:
//
//   forward  (C0 -> C1): kUpdate  — a tuple that missed the filter,
//                        kMark    — a queue fence used by the fix-up
//                                   protocol below.
//   reverse  (C1 -> C0): kCandidate — a key whose sketch estimate exceeds
//                                     the filter's minimum (exchange
//                                     proposal),
//                        kFixup     — refreshed estimate for a key that
//                                     was recently moved into the filter.
//
// C0 additionally publishes the filter's current minimum count through an
// atomic, which C1 reads to decide when to propose an exchange — this is
// the "C0 forwards the minimum count whenever it changes" message of the
// paper, collapsed into a shared word.
//
// Exchange fix-up protocol. When C0 accepts a candidate (key, est) it
// inserts the key with new = old = est, but occurrences of the key that
// were already in the forward queue at that moment are only reflected in
// the *sketch*, not in `est` — querying the filter would under-count them
// and break the one-sided guarantee. So C0 also enqueues kMark(key): when
// C1 drains past the mark, every earlier occurrence has been applied to
// the sketch, and C1 replies kFixup(key, est2) with the refreshed
// estimate (est2 >= est; cells only grow). C0 raises the entry's counts
// by (est2 - old) — the filter hits that accumulated in between stay
// intact — restoring new_count >= true count. If the key was evicted
// before the fix-up arrives, its exact filter-era hits were already
// written back to the sketch by the eviction, so the fix-up is simply
// dropped.
//
// Liveness. The pipeline has one rule: the filter stage accepts an
// exchange candidate only when the forward queue has room for every
// message that exchange pushes — the kMark, plus the victim's write-back
// when the victim holds exact filter-era hits. Only the filter stage fills
// forward slots (the sketch stage only frees them), so room it sees
// cannot vanish before its own pushes; without room the candidate is
// rejected (candidates are droppable — the sketch stage re-proposes hot
// keys). Hence:
//   * every push inside DrainReverseQueue succeeds immediately;
//   * the filter stage waits only in PushForwardUpdate, and each wait
//     iteration drains the reverse queue;
//   * the sketch stage waits only to deliver a kFixup, which the filter
//     stage's next drain (it drains on every Update, wait and Flush)
//     makes room for.
// No wait cycle can form, so the two queues cannot deadlock. Every tuple
// is either a filter hit or goes through the sketch stage, and the sketch
// stage is the sketch's only user until Flush() returns
// (docs/ALGORITHMS.md §3 writes the argument out).
//
// Deletions are not supported in the pipeline (Appendix A's protocol is
// inherently sequential); use the single-threaded ASketch when the stream
// contains negative updates.

#ifndef ASKETCH_CORE_PIPELINE_ASKETCH_H_
#define ASKETCH_CORE_PIPELINE_ASKETCH_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/core/asketch.h"
#include "src/core/spsc_queue.h"
#include "src/filter/heap_filter.h"
#include "src/sketch/count_min.h"

namespace asketch {

/// Statistics of a pipeline run. filter_hits + forwarded is the number
/// of Update() calls.
struct PipelineStats {
  uint64_t filter_hits = 0;
  uint64_t forwarded = 0;        ///< tuples sent to the sketch stage
  uint64_t exchanges = 0;        ///< accepted exchange candidates
  uint64_t rejected_candidates = 0;
  uint64_t fixups_applied = 0;
  uint64_t fixups_dropped = 0;
  uint64_t forward_full_spins = 0;  ///< failed pushes onto a full queue
};

/// ASketch with the filter and sketch stages decoupled onto two cores.
/// The filter is the Relaxed-Heap design (the paper's default). The
/// caller's thread is the filter stage.
class PipelineASketch {
 public:
  /// Builds from the same space-budget config as the sequential ASketch;
  /// `queue_capacity` sizes each SPSC ring.
  explicit PipelineASketch(const ASketchConfig& config,
                           size_t queue_capacity = 4096);

  /// Stops and joins the sketch stage, even a stalled one.
  ~PipelineASketch();

  PipelineASketch(const PipelineASketch&) = delete;
  PipelineASketch& operator=(const PipelineASketch&) = delete;

  /// Processes one arrival of `key` with weight `delta` (>= 1 — see the
  /// file comment on deletions). Waits while the forward queue is full.
  void Update(item_t key, delta_t delta = 1);

  /// Drains both queues and blocks until the sketch stage is idle.
  /// Required before Estimate()/TopK().
  void Flush();

  /// Point query; only valid on a flushed pipeline.
  count_t Estimate(item_t key) const;

  /// Top-k report from the filter; only valid on a flushed pipeline.
  std::vector<FilterEntry> TopK() const;

  const PipelineStats& stats() const { return stats_; }
  size_t MemoryUsageBytes() const {
    return filter_.MemoryUsageBytes() + sketch_.MemoryUsageBytes();
  }

  /// Test hook: parks (true) / unparks (false) the sketch stage at its
  /// loop top, simulating an arbitrarily slow consumer.
  void StallWorkerForTesting(bool stalled) {
    stall_worker_.store(stalled, std::memory_order_release);
  }

 private:
  enum class ForwardKind : uint8_t { kUpdate, kMark };
  struct ForwardMsg {
    ForwardKind kind;
    item_t key;
    count_t weight;
  };
  enum class ReverseKind : uint8_t { kCandidate, kFixup };
  struct ReverseMsg {
    ReverseKind kind;
    item_t key;
    count_t estimate;
  };

  /// The sketch stage (worker thread).
  void SketchStageLoop();

  /// Applies all pending reverse messages on the filter stage. Its
  /// pushes never wait (see the liveness rule in the file comment).
  void DrainReverseQueue();

  /// Applies a kFixup to the filter.
  void ApplyFixup(item_t key, count_t estimate);

  /// Publishes the filter's minimum to the sketch stage.
  void PublishMin() {
    min_count_.store(filter_.size() > 0 ? filter_.MinNewCount() : 0,
                     std::memory_order_relaxed);
  }

  /// Filter-stage push that must succeed: the caller checked HasRoomFor.
  void PushReserved(const ForwardMsg& msg) {
    ASKETCH_CHECK(forward_.TryPush(msg));
    ++produced_;
  }

  /// Queues a kUpdate, waiting while the forward queue is full. Returns
  /// false when the key became filter-resident during the wait and the
  /// weight was absorbed by the filter instead.
  bool PushForwardUpdate(item_t key, count_t weight);

  RelaxedHeapFilter filter_;
  CountMin sketch_;  // sketch-stage-owned until Flush() returns

  SpscQueue<ForwardMsg> forward_;
  SpscQueue<ReverseMsg> reverse_;
  std::atomic<count_t> min_count_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> stall_worker_{false};
  // Worker-side progress accounting for Flush(): number of forward
  // messages consumed and fully processed. Written by the sketch stage
  // per message, so it gets its own cache line.
  alignas(kCacheLineSize) std::atomic<uint64_t> consumed_{0};
  // Filter-stage-owned, like stats_ (written per tuple): both are kept
  // off the lines above.
  alignas(kCacheLineSize) uint64_t produced_ = 0;
  PipelineStats stats_;
  std::thread worker_;
};

}  // namespace asketch

#endif  // ASKETCH_CORE_PIPELINE_ASKETCH_H_
