#include "src/sketch/misra_gries.h"

#include <algorithm>

#include "src/common/bit_util.h"

namespace asketch {

MisraGries::MisraGries(uint32_t capacity) : capacity_(capacity) {
  ASKETCH_CHECK(capacity >= 1);
  const size_t padded = RoundUp(capacity, kSimdBlockElements);
  ids_.assign(padded, 0);
  counts_.assign(padded, 0);
}

void MisraGries::Update(item_t key, count_t weight) {
  ASKETCH_CHECK(weight >= 1);
  const int32_t slot = FindKey(ids_.data(), ids_.size(), size_, key);
  if (slot >= 0) {
    counts_[slot] = SaturatingAdd(counts_[slot], weight);
    return;
  }
  if (size_ < capacity_) {
    ids_[size_] = key;
    counts_[size_] = weight;
    ++size_;
    return;
  }
  // Summary full and key absent: decrement all counters by the largest
  // amount that keeps them non-negative (min(weight, smallest counter)),
  // then compact away zeroed entries. Classic MG uses weight == 1; the
  // weighted generalization decrements by the full residual iteratively.
  count_t remaining = weight;
  while (remaining > 0) {
    const size_t min_slot = MinIndex(counts_.data(), counts_.size(), size_);
    const count_t step = std::min(remaining, counts_[min_slot]);
    if (step == 0) break;  // defensive: a zero counter should not persist
    for (uint32_t i = 0; i < size_; ++i) counts_[i] -= step;
    remaining -= step;
    // Compact zeroed entries (swap-with-last keeps the arrays dense).
    for (uint32_t i = 0; i < size_;) {
      if (counts_[i] == 0) {
        --size_;
        ids_[i] = ids_[size_];
        counts_[i] = counts_[size_];
      } else {
        ++i;
      }
    }
    if (remaining > 0 && size_ < capacity_) {
      ids_[size_] = key;
      counts_[size_] = remaining;
      ++size_;
      return;
    }
    if (size_ == 0) return;  // the whole residual was absorbed by decrements
  }
}

}  // namespace asketch
