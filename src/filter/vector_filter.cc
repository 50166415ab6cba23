#include "src/filter/vector_filter.h"

#include <limits>

#include "src/common/bit_util.h"

namespace asketch {

VectorFilter::VectorFilter(uint32_t capacity) : capacity_(capacity) {
  ASKETCH_CHECK(capacity >= 1);
  const size_t padded = RoundUp(capacity, kSimdBlockElements);
  ids_.assign(padded, 0);
  new_counts_.assign(padded, std::numeric_limits<count_t>::max());
  old_counts_.assign(padded, 0);
}

void VectorFilter::Insert(item_t key, count_t new_count, count_t old_count) {
  ASKETCH_CHECK(!Full());
  ASKETCH_DCHECK(Find(key) < 0);
  ids_[size_] = key;
  new_counts_[size_] = new_count;
  old_counts_[size_] = old_count;
  ++size_;
}

void VectorFilter::Remove(int32_t slot) {
  ASKETCH_DCHECK(slot >= 0 && static_cast<uint32_t>(slot) < size_);
  --size_;
  ids_[slot] = ids_[size_];
  new_counts_[slot] = new_counts_[size_];
  old_counts_[slot] = old_counts_[size_];
  // Restore the padding sentinel so min scans ignore the vacated cell.
  new_counts_[size_] = std::numeric_limits<count_t>::max();
}

FilterEntry VectorFilter::EvictMin() {
  ASKETCH_CHECK(size_ > 0);
  const int32_t slot = static_cast<int32_t>(
      MinIndex(new_counts_.data(), new_counts_.size(), size_));
  const FilterEntry entry{ids_[slot], new_counts_[slot], old_counts_[slot]};
  Remove(slot);
  return entry;
}

}  // namespace asketch
