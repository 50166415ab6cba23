#include "src/sketch/count_sketch.h"

#include <algorithm>

namespace asketch {

std::optional<std::string> CountSketchConfig::Validate() const {
  if (width < 1) return "CountSketch width must be >= 1";
  if (depth < 1) return "CountSketch depth must be >= 1";
  return std::nullopt;
}

CountSketchConfig CountSketchConfig::FromSpaceBudget(size_t bytes,
                                                     uint32_t width,
                                                     uint64_t seed) {
  CountSketchConfig config;
  config.width = width;
  config.depth = static_cast<uint32_t>(
      std::max<size_t>(1, bytes / (static_cast<size_t>(width) *
                                   sizeof(int32_t))));
  config.seed = seed;
  return config;
}

CountSketch::CountSketch(const CountSketchConfig& config) : config_(config) {
  ASKETCH_CHECK(!config.Validate().has_value());
  hashes_ = HashFamily(config_.width, config_.depth, config_.seed);
  signs_ = SignFamily(config_.width, config_.seed);
  cells_.assign(static_cast<size_t>(config_.width) * config_.depth, 0);
}

void CountSketch::Update(item_t key, delta_t delta) {
  for (uint32_t row = 0; row < config_.width; ++row) {
    int64_t signed_delta = signs_.Sign(row, key) * delta;
    int32_t& cell = Cell(row, hashes_.Bucket(row, key));
    // Saturating signed add: per-cell noise can be large on adversarial
    // streams; clamping is cheaper than widening every cell.
    int64_t v = static_cast<int64_t>(cell) + signed_delta;
    v = std::clamp<int64_t>(v, INT32_MIN, INT32_MAX);
    cell = static_cast<int32_t>(v);
  }
}

namespace {

// Median of readings[0, w): for even widths the two middle elements are
// averaged, which keeps the estimator unbiased.
count_t MedianEstimate(int32_t* readings, uint32_t w) {
  std::nth_element(readings, readings + w / 2, readings + w);
  int64_t median = readings[w / 2];
  if (w % 2 == 0) {
    int32_t lower = *std::max_element(readings, readings + w / 2);
    median = (median + lower) / 2;
  }
  return median <= 0 ? 0 : static_cast<count_t>(median);
}

}  // namespace

void CountSketch::UpdateBatch(std::span<const Tuple> tuples) {
  constexpr size_t kPrefetchTuples = 4;
  const size_t n = tuples.size();
  const size_t warm = std::min(kPrefetchTuples, n);
  for (size_t i = 0; i < warm; ++i) Prefetch(tuples[i].key);
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchTuples < n) Prefetch(tuples[i + kPrefetchTuples].key);
    Update(tuples[i].key, static_cast<delta_t>(tuples[i].value));
  }
}

count_t CountSketch::Estimate(item_t key) const {
  int32_t readings[64] = {};
  ASKETCH_DCHECK(config_.width <= 64);
  for (uint32_t row = 0; row < config_.width; ++row) {
    readings[row] =
        signs_.Sign(row, key) * Cell(row, hashes_.Bucket(row, key));
  }
  return MedianEstimate(readings, config_.width);
}

count_t CountSketch::UpdateAndEstimate(item_t key, delta_t delta) {
  int32_t readings[64] = {};
  ASKETCH_DCHECK(config_.width <= 64);
  for (uint32_t row = 0; row < config_.width; ++row) {
    const int32_t sign = signs_.Sign(row, key);
    int32_t& cell = Cell(row, hashes_.Bucket(row, key));
    const int64_t v = static_cast<int64_t>(cell) + sign * delta;
    cell = static_cast<int32_t>(
        std::clamp<int64_t>(v, INT32_MIN, INT32_MAX));
    readings[row] = sign * cell;
  }
  return MedianEstimate(readings, config_.width);
}

void CountSketch::Reset() { std::fill(cells_.begin(), cells_.end(), 0); }

}  // namespace asketch
