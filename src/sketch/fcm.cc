#include "src/sketch/fcm.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/common/bit_util.h"
#include "src/common/random.h"

namespace asketch {

std::optional<std::string> FcmConfig::Validate() const {
  if (width < 2) return "FCM width must be >= 2 (hot/cold subsets differ)";
  if (depth < 1) return "FCM depth must be >= 1";
  if (use_mg_classifier && mg_capacity < 1) {
    return "FCM MG classifier capacity must be >= 1";
  }
  return std::nullopt;
}

FcmConfig FcmConfig::FromSpaceBudget(size_t bytes, uint32_t width,
                                     uint32_t mg_capacity, uint64_t seed) {
  FcmConfig config;
  config.width = width;
  config.mg_capacity = mg_capacity;
  config.seed = seed;
  // MG counter entries plus the sticky hot-set ids.
  const size_t mg_bytes =
      mg_capacity * (MisraGries::BytesPerItem() + sizeof(item_t));
  const size_t cell_bytes = bytes > mg_bytes ? bytes - mg_bytes : 0;
  config.depth = static_cast<uint32_t>(
      std::max<size_t>(1, cell_bytes / (static_cast<size_t>(width) *
                                        sizeof(count_t))));
  return config;
}

Fcm::Fcm(const FcmConfig& config)
    : config_(config),
      hot_rows_((config.width + 1) / 2),
      cold_rows_(std::min(config.width, (4 * config.width + 4) / 5)),
      mg_(config.use_mg_classifier ? config.mg_capacity : 1) {
  ASKETCH_CHECK(!config.Validate().has_value());
  hot_ids_.assign(
      RoundUp(std::max<uint32_t>(1, config_.mg_capacity),
              kSimdBlockElements),
      0);
  hashes_ = HashFamily(config_.width, config_.depth, config_.seed);
  // Offset/gap hashes: drawn from a distinct part of the seed stream.
  Rng rng(config_.seed ^ 0x5bd1e995u);
  offset_hash_ = PairwiseHash(1 + rng.NextBounded(kMersenne61 - 1),
                              rng.NextBounded(kMersenne61), config_.width);
  // Gap values must be coprime with width so a key's row sequence visits
  // distinct rows (and hot subsets stay prefixes of cold subsets).
  for (uint32_t g = 1; g < config_.width; ++g) {
    if (std::gcd(g, config_.width) == 1) coprime_gaps_.push_back(g);
  }
  if (coprime_gaps_.empty()) coprime_gaps_.push_back(1);
  gap_hash_ = PairwiseHash(
      1 + rng.NextBounded(kMersenne61 - 1), rng.NextBounded(kMersenne61),
      static_cast<uint32_t>(coprime_gaps_.size()));
  cells_.assign(static_cast<size_t>(config_.width) * config_.depth, 0);
}

void Fcm::OffsetGap(item_t key, uint32_t* offset, uint32_t* gap) const {
  *offset = offset_hash_(key);
  *gap = coprime_gaps_[gap_hash_(key)];
}

void Fcm::Update(item_t key, delta_t delta) {
  // Classify BEFORE feeding the MG counter: a key only counts as
  // high-frequency once it has survived in the summary, not on the very
  // arrival that inserts it (a first-touch "hot" classification would
  // write only the hot row subset for every key exactly once and
  // systematically under-estimate the cold tail).
  const bool hot = IsHot(key);
  if (config_.use_mg_classifier && delta > 0) {
    mg_.Update(key, static_cast<count_t>(delta));
    processed_ += static_cast<wide_count_t>(delta);
    if (!hot && hot_size_ < config_.mg_capacity) {
      // Promote once the MG count proves the key heavy: the MG guarantee
      // says a count this large implies true frequency > N/(k+1).
      const wide_count_t count = mg_.CountOf(key);
      if (count * (config_.mg_capacity + 1) > processed_) {
        hot_ids_[hot_size_++] = key;
      }
    }
  }
  const uint32_t rows = hot ? hot_rows_ : cold_rows_;
  uint32_t offset, gap;
  OffsetGap(key, &offset, &gap);
  for (uint32_t i = 0; i < rows; ++i) {
    const uint32_t row = RowAt(offset, gap, i);
    count_t& cell = Cell(row, hashes_.Bucket(row, key));
    cell = SaturatingAdd(cell, delta);
  }
}

count_t Fcm::UpdateAndEstimate(item_t key, delta_t delta) {
  const bool hot = IsHot(key);
  if (config_.use_mg_classifier && delta > 0) {
    mg_.Update(key, static_cast<count_t>(delta));
    processed_ += static_cast<wide_count_t>(delta);
    if (!hot && hot_size_ < config_.mg_capacity) {
      const wide_count_t count = mg_.CountOf(key);
      if (count * (config_.mg_capacity + 1) > processed_) {
        hot_ids_[hot_size_++] = key;
      }
    }
  }
  const uint32_t rows = hot ? hot_rows_ : cold_rows_;
  uint32_t offset, gap;
  OffsetGap(key, &offset, &gap);
  // The estimate reads the key's *current* classification subset, which
  // is always a prefix of the rows just written (a promotion inside this
  // call can only shrink the subset: hot_rows_ <= cold_rows_).
  const uint32_t estimate_rows = IsHot(key) ? hot_rows_ : rows;
  count_t est = std::numeric_limits<count_t>::max();
  for (uint32_t i = 0; i < rows; ++i) {
    const uint32_t row = RowAt(offset, gap, i);
    count_t& cell = Cell(row, hashes_.Bucket(row, key));
    cell = SaturatingAdd(cell, delta);
    if (i < estimate_rows) est = std::min(est, cell);
  }
  return est;
}

void Fcm::UpdateBatch(std::span<const Tuple> tuples) {
  constexpr size_t kPrefetchTuples = 4;
  const size_t n = tuples.size();
  const size_t warm = std::min(kPrefetchTuples, n);
  for (size_t i = 0; i < warm; ++i) Prefetch(tuples[i].key);
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchTuples < n) Prefetch(tuples[i + kPrefetchTuples].key);
    Update(tuples[i].key, static_cast<delta_t>(tuples[i].value));
  }
}

count_t Fcm::Estimate(item_t key) const {
  const uint32_t rows = IsHot(key) ? hot_rows_ : cold_rows_;
  uint32_t offset, gap;
  OffsetGap(key, &offset, &gap);
  count_t est = std::numeric_limits<count_t>::max();
  for (uint32_t i = 0; i < rows; ++i) {
    const uint32_t row = RowAt(offset, gap, i);
    est = std::min(est, Cell(row, hashes_.Bucket(row, key)));
  }
  return est;
}

void Fcm::Reset() {
  std::fill(cells_.begin(), cells_.end(), 0);
  mg_.Reset();
  processed_ = 0;
  hot_size_ = 0;
}

}  // namespace asketch
