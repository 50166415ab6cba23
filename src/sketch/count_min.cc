#include "src/sketch/count_min.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#if defined(__AVX512F__) && defined(__AVX512CD__)
#include <immintrin.h>
#endif

#include "src/common/hugepage.h"

// All cell stores below go through RelaxedStore (atomic_util.h): the
// serving layer reads cells concurrently with the shard worker's updates
// via EstimateRelaxed, and a plain store racing an atomic load is a data
// race. The stores compile to the same MOVs as before; the updater
// itself stays single-threaded (reads of its own cells remain plain).

namespace asketch {

std::optional<std::string> CountMinConfig::Validate() const {
  if (width < 1) return "CountMin width (number of rows) must be >= 1";
  // UpdateBatchBounded stages the buckets of a 64-key hashed chunk in a
  // fixed on-stack block of 64 * kMaxWidth entries; a wider config would
  // overflow it.
  if (width > kMaxWidth) {
    return "CountMin width (number of rows) must be <= 64";
  }
  if (depth < 1) return "CountMin depth (cells per row) must be >= 1";
  return std::nullopt;
}

CountMinConfig CountMinConfig::FromSpaceBudget(size_t bytes, uint32_t width,
                                               uint64_t seed) {
  CountMinConfig config;
  // Clamp into the valid row range before dividing: width 0 would be a
  // division by zero below, and the result must pass Validate().
  config.width = std::max<uint32_t>(1, std::min(width, kMaxWidth));
  const size_t depth =
      std::max<size_t>(1, bytes / (static_cast<size_t>(config.width) *
                                   sizeof(count_t)));
  // Budgets beyond 16 GiB used to truncate size_t -> uint32_t and wrap
  // to a tiny (or zero) depth; cap at the type's range instead.
  config.depth = static_cast<uint32_t>(
      std::min<size_t>(depth, std::numeric_limits<uint32_t>::max()));
  config.seed = seed;
  return config;
}

CountMin::CountMin(const CountMinConfig& config) : config_(config) {
  ASKETCH_CHECK(!config.Validate().has_value());
  hashes_ = HashFamily(config_.width, config_.depth, config_.seed);
  cells_.assign(static_cast<size_t>(config_.width) * config_.depth, 0);
  AdviseHugePagesIfLarge();
}

void CountMin::AdviseHugePagesIfLarge() {
  // Each update touches one cell per row at a random offset; 2 MiB
  // backing keeps out-of-cache sketches to ~one TLB entry per row range
  // instead of one miss per probe. Best-effort, behavior-neutral.
  if (MemoryUsageBytes() >= kHugePageAdviseMinBytes) {
    MaybeAdviseHugePages(cells_.data(), cells_.size() * sizeof(count_t));
  }
}

void CountMin::Update(item_t key, delta_t delta) {
  for (uint32_t row = 0; row < config_.width; ++row) {
    count_t& cell = Cell(row, hashes_.Bucket(row, key));
    RelaxedStore(cell, SaturatingAdd(cell, delta));
  }
}

void CountMin::UpdateAt(const uint32_t* buckets, delta_t delta,
                        size_t stride) {
  for (uint32_t row = 0; row < config_.width; ++row) {
    count_t& cell = Cell(row, buckets[row * stride]);
    RelaxedStore(cell, SaturatingAdd(cell, delta));
  }
}

count_t CountMin::UpdateAndEstimateAt(const uint32_t* buckets,
                                      delta_t delta, size_t stride) {
  count_t est = std::numeric_limits<count_t>::max();
  for (uint32_t row = 0; row < config_.width; ++row) {
    count_t& cell = Cell(row, buckets[row * stride]);
    const count_t next = SaturatingAdd(cell, delta);
    RelaxedStore(cell, next);
    est = std::min(est, next);
  }
  return est;
}

count_t CountMin::UpdateAndEstimate(item_t key, delta_t delta) {
  count_t est = std::numeric_limits<count_t>::max();
  for (uint32_t row = 0; row < config_.width; ++row) {
    count_t& cell = Cell(row, hashes_.Bucket(row, key));
    const count_t next = SaturatingAdd(cell, delta);
    RelaxedStore(cell, next);
    est = std::min(est, next);
  }
  return est;
}

void CountMin::UpdateBatch(std::span<const Tuple> tuples) {
  UpdateBatchBounded(tuples, kUnbounded);
}

size_t CountMin::UpdateBatchBounded(std::span<const Tuple> tuples,
                                    uint64_t max_estimate) {
  if (max_estimate != kUnbounded && config_.width > kBlockMaxWidth) {
    return 0;
  }
  // Hash a 64-key chunk in one vector pass (prefetching the cells of
  // out-of-cache sketches), then apply it block by block. Row-major
  // buckets: row r's indices for the chunk sit at buckets[r*count ..).
  constexpr size_t kChunk = 4 * kBlockKeys;
  const size_t n = tuples.size();
  item_t keys[kChunk];
  alignas(64) uint32_t values[kChunk];
  alignas(64) uint32_t buckets[kChunk * CountMinConfig::kMaxWidth];
  for (size_t begin = 0; begin < n; begin += kChunk) {
    const size_t count = std::min(kChunk, n - begin);
    for (size_t i = 0; i < count; ++i) {
      keys[i] = tuples[begin + i].key;
      values[i] = tuples[begin + i].value;
    }
    PrepareUpdateBatch(keys, count, buckets);
    for (size_t block = 0; block < count; block += kBlockKeys) {
      if (!ApplyBlock(buckets + block, count, values + block,
                      std::min(kBlockKeys, count - block), max_estimate)) {
        return begin + block;
      }
    }
  }
  return n;
}

bool CountMin::ApplyBlockScalar(const uint32_t* buckets, size_t stride,
                                const uint32_t* values, size_t live,
                                uint64_t max_estimate) {
  if (max_estimate != kUnbounded) {
    uint64_t weight = 0;
    count_t worst = 0;
    for (size_t j = 0; j < live; ++j) {
      weight += values[j];
      count_t est = std::numeric_limits<count_t>::max();
      for (uint32_t row = 0; row < config_.width; ++row) {
        est = std::min(est, Cell(row, buckets[row * stride + j]));
      }
      worst = std::max(worst, est);
    }
    if (worst + weight > max_estimate) return false;
  }
  for (size_t j = 0; j < live; ++j) {
    UpdateAt(&buckets[j], static_cast<delta_t>(values[j]), stride);
  }
  return true;
}

#if defined(__AVX512F__) && defined(__AVX512CD__)
namespace {

/// Lanewise unsigned saturating add: a wrapped sum lands below `a`.
__m512i AddSaturating(__m512i a, __m512i b) {
  const __m512i sum = _mm512_add_epi32(a, b);
  return _mm512_mask_mov_epi32(sum, _mm512_cmplt_epu32_mask(sum, a),
                               _mm512_set1_epi32(-1));
}

}  // namespace

bool CountMin::ApplyBlock(const uint32_t* buckets, size_t stride,
                          const uint32_t* values, size_t live,
                          uint64_t max_estimate) {
  // Gathers take signed 32-bit indices.
  if (config_.depth > static_cast<uint32_t>(INT32_MAX)) [[unlikely]] {
    return ApplyBlockScalar(buckets, stride, values, live, max_estimate);
  }
  // Masked loads and gathers cover a short final block; the masked-off
  // lanes read nothing and add nothing.
  const __mmask16 lanes = static_cast<__mmask16>((1u << live) - 1);
  const __m512i vals = _mm512_maskz_loadu_epi32(lanes, values);
  const __m512i lane_bits = _mm512_set1_epi32(lanes);
  // vpconflictd gives each lane a bitmask of the earlier lanes holding
  // the same bucket. A gather + store over a repeated bucket would lose
  // one of the adds, so such a row is applied lane by lane.
  const auto row_conflicts = [&](__m512i idx) {
    return _mm512_mask_test_epi32_mask(lanes, _mm512_conflict_epi32(idx),
                                       lane_bits) != 0;
  };
  const auto add_lanes = [&](count_t* base, const uint32_t* idx_row) {
    for (size_t j = 0; j < live; ++j) {
      count_t& cell = base[idx_row[j]];
      RelaxedStore(cell, SaturatingAdd(cell, static_cast<delta_t>(values[j])));
    }
  };
  const auto store_lanes = [&](count_t* base, const uint32_t* idx_row,
                               __m512i result) {
    alignas(64) uint32_t out[kBlockKeys];
    _mm512_store_si512(out, result);
    for (size_t j = 0; j < live; ++j) RelaxedStore(base[idx_row[j]], out[j]);
  };
  // Gathers are plain reads of our own cells — the updater is the
  // single writer, concurrent readers never store (top comment), so
  // only the stores need to be atomic.
  if (max_estimate == kUnbounded) {
    for (uint32_t row = 0; row < config_.width; ++row) {
      count_t* base = &Cell(row, 0);
      const uint32_t* idx_row = buckets + row * stride;
      const __m512i idx = _mm512_maskz_loadu_epi32(lanes, idx_row);
      if (row_conflicts(idx)) [[unlikely]] {
        add_lanes(base, idx_row);
        continue;
      }
      const __m512i cells = _mm512_mask_i32gather_epi32(
          _mm512_setzero_si512(), lanes, idx, base, 4);
      store_lanes(base, idx_row, AddSaturating(cells, vals));
    }
    return true;
  }
  // Bounded: compute every row's result before storing any. A row with
  // no repeated bucket ends the block at exactly cell + weight per lane;
  // any other row ends at most at cell + the block's total weight. The
  // min over rows of those bounds every key's estimate after the block,
  // and so every estimate the walk would test inside it.
  uint64_t weight = 0;
  for (size_t j = 0; j < live; ++j) weight += values[j];
  const __m512i block_weight = _mm512_set1_epi32(static_cast<int>(
      std::min<uint64_t>(weight, std::numeric_limits<count_t>::max())));
  __m512i results[kBlockMaxWidth];
  uint32_t conflicted = 0;  // bit r: row r has a repeated bucket
  __m512i est = _mm512_set1_epi32(-1);
  for (uint32_t row = 0; row < config_.width; ++row) {
    const __m512i idx =
        _mm512_maskz_loadu_epi32(lanes, buckets + row * stride);
    const __m512i cells = _mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), lanes, idx, &Cell(row, 0), 4);
    results[row] = AddSaturating(cells, vals);
    __m512i bound = results[row];
    if (row_conflicts(idx)) [[unlikely]] {
      conflicted |= 1u << row;
      bound = AddSaturating(cells, block_weight);
    }
    est = _mm512_mask_min_epu32(est, lanes, est, bound);
  }
  alignas(64) uint32_t est_lanes[kBlockKeys];
  _mm512_store_si512(est_lanes, est);
  count_t worst = 0;
  for (size_t j = 0; j < live; ++j) worst = std::max(worst, est_lanes[j]);
  if (worst > max_estimate) return false;
  for (uint32_t row = 0; row < config_.width; ++row) {
    count_t* base = &Cell(row, 0);
    const uint32_t* idx_row = buckets + row * stride;
    if ((conflicted >> row) & 1) [[unlikely]] {
      add_lanes(base, idx_row);
    } else {
      store_lanes(base, idx_row, results[row]);
    }
  }
  return true;
}
#else
bool CountMin::ApplyBlock(const uint32_t* buckets, size_t stride,
                          const uint32_t* values, size_t live,
                          uint64_t max_estimate) {
  return ApplyBlockScalar(buckets, stride, values, live, max_estimate);
}
#endif  // defined(__AVX512F__) && defined(__AVX512CD__)

count_t CountMin::Estimate(item_t key) const {
  count_t est = std::numeric_limits<count_t>::max();
  for (uint32_t row = 0; row < config_.width; ++row) {
    est = std::min(est, Cell(row, hashes_.Bucket(row, key)));
  }
  return est;
}

void CountMin::Reset() {
  for (count_t& cell : cells_) RelaxedStore(cell, 0u);
}

namespace {
constexpr uint32_t kCountMinMagic = 0x314d4d43;  // "CMM1"
}  // namespace

bool CountMin::CompatibleWith(const CountMin& other) const {
  return config_.width == other.config_.width &&
         config_.depth == other.config_.depth &&
         config_.seed == other.config_.seed;
}

std::optional<std::string> CountMin::MergeFrom(const CountMin& other) {
  if (!CompatibleWith(other)) {
    return "CountMin::MergeFrom: incompatible configs (width/depth/seed "
           "must match)";
  }
  // Zero source cells are skipped: no store for a no-op add.
  for (size_t i = 0; i < cells_.size(); ++i) {
    const count_t add = other.cells_[i];
    if (add == 0) continue;
    RelaxedStore(cells_[i],
                 SaturatingAdd(cells_[i], static_cast<delta_t>(add)));
  }
  return std::nullopt;
}

bool CountMin::SerializeTo(BinaryWriter& writer) const {
  writer.PutU32(kCountMinMagic);
  writer.PutU32(config_.width);
  writer.PutU32(config_.depth);
  writer.PutU64(config_.seed);
  writer.PutU8(0);  // reserved; DeserializeFrom rejects any other value
  writer.PutPodVector(cells_);
  return writer.ok();
}

std::optional<CountMin> CountMin::DeserializeFrom(BinaryReader& reader) {
  uint32_t magic = 0;
  CountMinConfig config;
  uint8_t reserved = 0;
  if (!reader.GetU32(&magic) || magic != kCountMinMagic) {
    return std::nullopt;
  }
  if (!reader.GetU32(&config.width) || !reader.GetU32(&config.depth) ||
      !reader.GetU64(&config.seed) || !reader.GetU8(&reserved) ||
      reserved != 0) {
    return std::nullopt;
  }
  if (config.Validate().has_value()) return std::nullopt;
  std::vector<count_t> cells;
  if (!reader.GetPodVector(&cells) ||
      cells.size() !=
          static_cast<size_t>(config.width) * config.depth) {
    return std::nullopt;
  }
  CountMin sketch(config);
  sketch.cells_ = std::move(cells);
  // The moved-in buffer replaced the ctor's advised allocation.
  sketch.AdviseHugePagesIfLarge();
  return sketch;
}

wide_count_t CountMin::RowSum(uint32_t row) const {
  ASKETCH_CHECK(row < config_.width);
  wide_count_t sum = 0;
  for (uint32_t b = 0; b < config_.depth; ++b) sum += Cell(row, b);
  return sum;
}

}  // namespace asketch
