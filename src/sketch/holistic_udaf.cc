#include "src/sketch/holistic_udaf.h"

#include <algorithm>

#include "src/common/bit_util.h"

namespace asketch {

std::optional<std::string> HolisticUdafConfig::Validate() const {
  if (table_capacity < 1) return "HolisticUdaf table capacity must be >= 1";
  return sketch.Validate();
}

HolisticUdafConfig HolisticUdafConfig::FromSpaceBudget(
    size_t bytes, uint32_t width, uint32_t table_capacity, uint64_t seed) {
  HolisticUdafConfig config;
  config.table_capacity = table_capacity;
  const size_t table_bytes =
      table_capacity * HolisticUdaf::TableBytesPerItem();
  const size_t sketch_bytes = bytes > table_bytes ? bytes - table_bytes : 0;
  config.sketch = CountMinConfig::FromSpaceBudget(sketch_bytes, width, seed);
  return config;
}

HolisticUdaf::HolisticUdaf(const HolisticUdafConfig& config)
    : config_(config), sketch_(config.sketch) {
  ASKETCH_CHECK(!config.Validate().has_value());
  const size_t padded = RoundUp(config_.table_capacity, kSimdBlockElements);
  ids_.assign(padded, 0);
  counts_.assign(padded, 0);
}

void HolisticUdaf::Update(item_t key, delta_t delta) {
  const int32_t slot = FindKey(ids_.data(), ids_.size(), size_, key);
  if (delta <= 0) {
    // Deletion: release the buffered count for this key first so the
    // combined subtraction happens entirely inside the sketch.
    if (slot >= 0) {
      sketch_.Update(key, static_cast<delta_t>(counts_[slot]));
      --size_;
      ids_[slot] = ids_[size_];
      counts_[slot] = counts_[size_];
    }
    sketch_.Update(key, delta);
    return;
  }
  if (slot >= 0) {
    counts_[slot] = SaturatingAdd(counts_[slot], delta);
    return;
  }
  if (size_ == config_.table_capacity) Flush();
  ids_[size_] = key;
  counts_[size_] = static_cast<count_t>(
      std::min<delta_t>(delta, ~count_t{0}));
  ++size_;
}

count_t HolisticUdaf::Estimate(item_t key) const {
  count_t est = sketch_.Estimate(key);
  const int32_t slot = FindKey(ids_.data(), ids_.size(), size_, key);
  if (slot >= 0) est = SaturatingAdd(est, counts_[slot]);
  return est;
}

void HolisticUdaf::Flush() {
  for (uint32_t i = 0; i < size_; ++i) {
    sketch_.Update(ids_[i], counts_[i]);
  }
  size_ = 0;
  ++flush_count_;
}

void HolisticUdaf::Reset() {
  sketch_.Reset();
  size_ = 0;
  flush_count_ = 0;
}

}  // namespace asketch
