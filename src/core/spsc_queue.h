// Bounded lock-free single-producer / single-consumer ring buffer.
//
// The message-passing substrate of the pipeline-parallel ASketch (§6.2):
// the filter core and the sketch core exchange items over two of these
// queues instead of sharing the data structures, avoiding locks entirely.
// Head and tail live on separate cache lines; both sides keep a cached
// copy of the opposite index to avoid ping-ponging the shared lines on
// every operation (the standard Lamport queue optimization).

#ifndef ASKETCH_CORE_SPSC_QUEUE_H_
#define ASKETCH_CORE_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <new>
#include <vector>

#include "src/common/bit_util.h"
#include "src/common/check.h"

namespace asketch {

// 64 bytes covers every x86-64 and most ARM parts; using the fixed value
// avoids gcc's -Winterference-size ABI-stability warning.
inline constexpr size_t kCacheLineSize = 64;

/// Fixed-capacity SPSC queue of trivially-copyable T.
template <typename T>
class SpscQueue {
 public:
  /// Queue holding up to `capacity` elements (rounded up to a power of
  /// two; one slot is sacrificed to distinguish full from empty).
  explicit SpscQueue(size_t capacity)
      : mask_(NextPowerOfTwo(capacity + 1) - 1),
        slots_(mask_ + 1) {
    ASKETCH_CHECK(capacity >= 1);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer: enqueues `value` if there is room. Returns false when full.
  bool TryPush(const T& value) {
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t next = (head + 1) & mask_;
    if (next == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (next == cached_tail_) return false;
    }
    slots_[head] = value;
    head_.store(next, std::memory_order_release);
    return true;
  }

  /// Producer: true when the next `n` TryPush calls will succeed. Only
  /// the producer fills slots (the consumer only frees them), so room
  /// seen here cannot disappear before the producer's own pushes use it.
  bool HasRoomFor(size_t n) {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (FreeSlots(head) >= n) return true;
    cached_tail_ = tail_.load(std::memory_order_acquire);
    return FreeSlots(head) >= n;
  }

  /// Consumer: dequeues into `value` if non-empty. Returns false when
  /// empty.
  bool TryPop(T* value) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail == cached_head_) return false;
    }
    *value = slots_[tail];
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return true;
  }

  /// Consumer: dequeues up to `max` elements into out[0..max) and returns
  /// how many were taken (0 when empty). One acquire load and one release
  /// store cover the whole batch, amortizing the cross-core index traffic
  /// that TryPop pays per element.
  size_t TryPopBatch(T* out, size_t max) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail == cached_head_) return 0;
    }
    const size_t available = (cached_head_ - tail) & mask_;
    const size_t take = available < max ? available : max;
    for (size_t i = 0; i < take; ++i) {
      out[i] = slots_[(tail + i) & mask_];
    }
    tail_.store((tail + take) & mask_, std::memory_order_release);
    return take;
  }

  /// True when the queue is empty at this instant (either side may call;
  /// the answer is naturally racy and meant for quiescence polling).
  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Usable slots, NOT the constructor's requested capacity: the ring is
  /// sized to the next power of two above `capacity + 1` and one slot is
  /// sacrificed to distinguish full from empty, so this returns
  /// NextPowerOfTwo(capacity + 1) - 1 >= capacity.
  size_t capacity() const { return mask_; }

 private:
  /// Free slots as seen through the producer's cached tail (a lower
  /// bound: the consumer may have freed more since).
  size_t FreeSlots(size_t head) const {
    return mask_ - ((head - cached_tail_) & mask_);
  }

  const size_t mask_;
  std::vector<T> slots_;

  alignas(kCacheLineSize) std::atomic<size_t> head_{0};
  alignas(kCacheLineSize) size_t cached_tail_ = 0;   // producer-owned
  alignas(kCacheLineSize) std::atomic<size_t> tail_{0};
  alignas(kCacheLineSize) size_t cached_head_ = 0;   // consumer-owned
};

}  // namespace asketch

#endif  // ASKETCH_CORE_SPSC_QUEUE_H_
