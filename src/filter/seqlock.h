// Single-writer seqlock: the synchronization behind the contention-free
// read path (DESIGN.md §5c).
//
// The ASketch filter is tiny (tens of entries) and mutated by exactly
// one thread at a time (the shard worker, serialized by the shard mutex
// with own-write applies and restore). Readers — point queries and
// top-k reports — only need a *consistent* snapshot, not mutual
// exclusion, so instead of taking the shard mutex they run an optimistic
// scan bracketed by two reads of a version counter:
//
//   writer                           reader
//   ------                           ------
//   seq <- v+1 (odd, relaxed)        s1 <- seq (acquire); odd => retry
//   ...release stores to data...     ...acquire loads of data...
//   seq <- v+2 (even, release)       s2 <- seq (relaxed)
//                                    s1 != s2 => retry
//
// Why this is correct without fences: the writer's data stores are
// release stores, so none of them can be observed before the odd bump
// that is sequenced before them; the even bump is itself a release
// store, so it cannot be observed before any data store. The reader's
// data loads are acquire loads, so none of them can move before the
// first sequence read *and* the validating re-read cannot move before
// any of them. If a reader's data load observes a writer's release
// store, that load synchronizes-with the writer, the odd bump
// happens-before the validating re-read, and coherence forces the
// re-read to see it (or something newer) — the torn snapshot is
// discarded and the scan retried. Every operation is a plain MOV on
// x86-64, and ThreadSanitizer sees properly paired atomics (no fences,
// which TSan does not model).
//
// Retries are bounded in practice by the writer's section length — a
// few dozen stores for a filter mutation — but a reader that keeps
// losing (e.g. the writer was preempted mid-section on a loaded box)
// backs off to yield so the writer can finish.

#ifndef ASKETCH_FILTER_SEQLOCK_H_
#define ASKETCH_FILTER_SEQLOCK_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "src/common/atomic_util.h"

namespace asketch {

/// The version counter of a single-writer seqlock. Copy/move transfer
/// the current value (containers relocate filters during construction
/// and adoption, before or while no concurrent reader can exist).
class SeqCounter {
 public:
  SeqCounter() = default;
  SeqCounter(const SeqCounter& other)
      : seq_(other.seq_.load(std::memory_order_relaxed)) {}
  SeqCounter& operator=(const SeqCounter& other) {
    seq_.store(other.seq_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    return *this;
  }

  /// Reader entry: the version to validate against. Odd means a write
  /// section is open — do not bother scanning, retry.
  uint32_t ReadBegin() const {
    return seq_.load(std::memory_order_acquire);
  }

  /// Reader exit: true iff no write section overlapped the scan. Only
  /// meaningful when `begin` was even. The data loads between ReadBegin
  /// and this call must be AcquireLoads (see file comment).
  bool ReadValidate(uint32_t begin) const {
    return seq_.load(std::memory_order_relaxed) == begin;
  }

  /// Writer entry/exit; use SeqWriteSection instead of calling directly.
  void WriteBegin() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }
  void WriteEnd() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  }

 private:
  std::atomic<uint32_t> seq_{0};
};

/// RAII write section. Mutators open one at their top; the data stores
/// inside must be ReleaseStores (see file comment). Sections must not
/// nest (the odd/even discipline would break) — public mutators only
/// ever call section-free private helpers.
class SeqWriteSection {
 public:
  explicit SeqWriteSection(SeqCounter& counter) : counter_(counter) {
    counter_.WriteBegin();
  }
  ~SeqWriteSection() { counter_.WriteEnd(); }

  SeqWriteSection(const SeqWriteSection&) = delete;
  SeqWriteSection& operator=(const SeqWriteSection&) = delete;

 private:
  SeqCounter& counter_;
};

/// Reader backoff after a failed validation: spin (PAUSE) for the first
/// few attempts — writer sections are a handful of stores — then yield,
/// covering the writer-preempted-mid-section case on oversubscribed
/// machines.
inline void SeqRetryBackoff(uint64_t attempt) {
  if (attempt < 8) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
    return;
  }
  std::this_thread::yield();
}

}  // namespace asketch

#endif  // ASKETCH_FILTER_SEQLOCK_H_
