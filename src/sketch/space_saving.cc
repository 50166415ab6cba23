#include "src/sketch/space_saving.h"

#include <algorithm>

namespace asketch {

SpaceSaving::SpaceSaving(uint32_t capacity, SpaceSavingEstimateMode mode)
    : summary_(capacity), mode_(mode) {}

void SpaceSaving::Update(item_t key, delta_t weight) {
  ASKETCH_CHECK(weight >= 1);
  const count_t w = static_cast<count_t>(
      std::min<delta_t>(weight, ~count_t{0}));
  const uint32_t node = summary_.Find(key);
  if (node != kSummaryNil) {
    summary_.MoveToCount(node, SaturatingAdd(summary_.Count(node), w));
    return;
  }
  if (!summary_.Full()) {
    summary_.Insert(key, w, /*aux=*/0);
    return;
  }
  // Evict the minimum and let the new key inherit its count: the inherited
  // amount is the new key's over-estimation error.
  const uint32_t min_node = summary_.MinNode();
  const count_t min_count = summary_.Count(min_node);
  summary_.Remove(min_node);
  summary_.Insert(key, SaturatingAdd(min_count, w), /*aux=*/min_count);
}

count_t SpaceSaving::Estimate(item_t key) const {
  const uint32_t node = summary_.Find(key);
  if (node != kSummaryNil) return summary_.Count(node);
  return mode_ == SpaceSavingEstimateMode::kMin ? summary_.MinCount() : 0;
}

std::vector<SpaceSavingEntry> SpaceSaving::TopK() const {
  std::vector<SpaceSavingEntry> entries;
  entries.reserve(summary_.size());
  summary_.ForEach([&entries](item_t key, count_t count, count_t error) {
    entries.push_back(SpaceSavingEntry{key, count, error});
  });
  std::sort(entries.begin(), entries.end(),
            [](const SpaceSavingEntry& a, const SpaceSavingEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
  return entries;
}

}  // namespace asketch
