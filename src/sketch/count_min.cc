#include "src/sketch/count_min.h"

#include <algorithm>
#include <limits>

#if defined(__AVX2__)
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
  // The conservative update path stages one bucket per row in a fixed
  // 64-entry block (see Update); a wider config would overflow it, and
  // the DCHECK guarding the block compiles out of release builds.
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
  if (config_.policy == CmUpdatePolicy::kConservative && delta > 0) {
    // Conservative update: the new estimate after this arrival is
    // old_estimate + delta; no cell needs to exceed that.
    count_t est = std::numeric_limits<count_t>::max();
    uint32_t buckets[64];
    ASKETCH_DCHECK(config_.width <= 64);
    for (uint32_t row = 0; row < config_.width; ++row) {
      buckets[row] = hashes_.Bucket(row, key);
      est = std::min(est, Cell(row, buckets[row]));
    }
    const count_t target = SaturatingAdd(est, delta);
    for (uint32_t row = 0; row < config_.width; ++row) {
      count_t& cell = Cell(row, buckets[row]);
      RelaxedStore(cell, std::max(cell, target));
    }
    return;
  }
  for (uint32_t row = 0; row < config_.width; ++row) {
    count_t& cell = Cell(row, hashes_.Bucket(row, key));
    RelaxedStore(cell, SaturatingAdd(cell, delta));
  }
}

void CountMin::UpdateAt(const uint32_t* buckets, delta_t delta,
                        size_t stride) {
  if (config_.policy == CmUpdatePolicy::kConservative && delta > 0) {
    count_t est = std::numeric_limits<count_t>::max();
    for (uint32_t row = 0; row < config_.width; ++row) {
      est = std::min(est, Cell(row, buckets[row * stride]));
    }
    const count_t target = SaturatingAdd(est, delta);
    for (uint32_t row = 0; row < config_.width; ++row) {
      count_t& cell = Cell(row, buckets[row * stride]);
      RelaxedStore(cell, std::max(cell, target));
    }
    return;
  }
  for (uint32_t row = 0; row < config_.width; ++row) {
    count_t& cell = Cell(row, buckets[row * stride]);
    RelaxedStore(cell, SaturatingAdd(cell, delta));
  }
}

count_t CountMin::UpdateAndEstimateAt(const uint32_t* buckets,
                                      delta_t delta, size_t stride) {
  if (config_.policy == CmUpdatePolicy::kConservative && delta > 0) {
    count_t est = std::numeric_limits<count_t>::max();
    for (uint32_t row = 0; row < config_.width; ++row) {
      est = std::min(est, Cell(row, buckets[row * stride]));
    }
    const count_t target = SaturatingAdd(est, delta);
    for (uint32_t row = 0; row < config_.width; ++row) {
      count_t& cell = Cell(row, buckets[row * stride]);
      RelaxedStore(cell, std::max(cell, target));
    }
    // Every hashed cell is now >= target and the minimal one exactly
    // target, so the post-update estimate is target itself.
    return target;
  }
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
  if (config_.policy == CmUpdatePolicy::kConservative && delta > 0) {
    // The conservative path already computes the estimate.
    Update(key, delta);
    return Estimate(key);
  }
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
  // Chunked two-phase ingestion: hash a whole chunk with the vectorized
  // multi-key kernel (and prefetch every addressed cell), then apply the
  // updates against warm lines. Each tuple is hashed exactly once; the
  // chunk bound keeps the prefetches close enough that the lines are
  // still resident when their update executes.
  //
  // Plain policy on AVX2 builds: the apply phase runs row-major through
  // ApplyPreparedAvx2 — gather 8 cells, add 8 deltas, saturate, store.
  // Bit-identical to the scalar tuple-major walk (see the UpdateBatch
  // doc comment in count_min.h for the order-independence argument).
  constexpr size_t kChunk = 16;
  const size_t n = tuples.size();
  const uint32_t w = config_.width;
  std::vector<uint32_t> buckets(kChunk * w);
  item_t keys[kChunk];
#if defined(__AVX2__)
  const bool vectorize = config_.policy == CmUpdatePolicy::kPlain;
  alignas(32) uint32_t values[kChunk];
#endif
  for (size_t begin = 0; begin < n; begin += kChunk) {
    const size_t count = std::min(kChunk, n - begin);
    for (size_t i = 0; i < count; ++i) keys[i] = tuples[begin + i].key;
    PrepareUpdateBatch(keys, count, buckets.data());
#if defined(__AVX2__)
    if (vectorize) {
      for (size_t i = 0; i < count; ++i) {
        values[i] = tuples[begin + i].value;
      }
      ApplyPreparedAvx2(buckets.data(), values, count);
      continue;
    }
#endif
    for (size_t i = 0; i < count; ++i) {
      UpdateAt(&buckets[i], static_cast<delta_t>(tuples[begin + i].value),
               count);
    }
  }
}

#if defined(__AVX2__)
void CountMin::ApplyPreparedAvx2(const uint32_t* buckets,
                                 const uint32_t* values, size_t count) {
  // Row-major prepared layout: row r's bucket indices for the chunk are
  // contiguous at buckets[r*count .. r*count+count). Per 8-lane group:
  // gather the cells, add the deltas, emulate unsigned saturation
  // (overflowed lanes — where max_epu32(sum, cell) != sum — become
  // all-ones), store lanewise. AVX2 has no scatter, and a gather+store
  // group would lose increments if two lanes hit the same cell, so any
  // intra-group index collision (detected by OR-ing lane-equality over
  // the 7 nontrivial rotations) drops that group to the scalar loop.
  const __m256i rotate1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  const __m256i ones = _mm256_set1_epi32(-1);
  for (uint32_t row = 0; row < config_.width; ++row) {
    count_t* base = &cells_[static_cast<size_t>(row) * config_.depth];
    const uint32_t* idx = buckets + static_cast<size_t>(row) * count;
    size_t k = 0;
    for (; k + 8 <= count; k += 8) {
      const __m256i lanes =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + k));
      __m256i conflict = _mm256_setzero_si256();
      __m256i rot = lanes;
      for (int r = 0; r < 7; ++r) {
        rot = _mm256_permutevar8x32_epi32(rot, rotate1);
        conflict =
            _mm256_or_si256(conflict, _mm256_cmpeq_epi32(lanes, rot));
      }
      if (_mm256_movemask_epi8(conflict) != 0) [[unlikely]] {
        for (size_t j = k; j < k + 8; ++j) {
          count_t& cell = base[idx[j]];
          RelaxedStore(cell, SaturatingAdd(
                                 cell, static_cast<delta_t>(values[j])));
        }
        continue;
      }
      // Gathers are plain reads of our own cells — the updater is the
      // single writer, concurrent readers never store (count_min.cc top
      // comment), so only the stores need to be atomic.
      const __m256i cells = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(base), lanes, 4);
      const __m256i vals =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + k));
      const __m256i sum = _mm256_add_epi32(cells, vals);
      const __m256i no_overflow =
          _mm256_cmpeq_epi32(_mm256_max_epu32(sum, cells), sum);
      const __m256i result =
          _mm256_or_si256(sum, _mm256_andnot_si256(no_overflow, ones));
      alignas(32) uint32_t out[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(out), result);
      for (size_t j = 0; j < 8; ++j) {
        RelaxedStore(base[idx[k + j]], out[j]);
      }
    }
    for (; k < count; ++k) {
      count_t& cell = base[idx[k]];
      RelaxedStore(cell,
                   SaturatingAdd(cell, static_cast<delta_t>(values[k])));
    }
  }
}
#endif  // defined(__AVX2__)

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

wide_count_t CountMin::InnerProductEstimate(const CountMin& other) const {
  ASKETCH_CHECK(CompatibleWith(other));
  wide_count_t best = ~wide_count_t{0};
  for (uint32_t row = 0; row < config_.width; ++row) {
    unsigned __int128 dot = 0;
    for (uint32_t b = 0; b < config_.depth; ++b) {
      dot += static_cast<unsigned __int128>(Cell(row, b)) *
             other.Cell(row, b);
    }
    const wide_count_t clamped =
        dot > static_cast<unsigned __int128>(~wide_count_t{0})
            ? ~wide_count_t{0}
            : static_cast<wide_count_t>(dot);
    best = std::min(best, clamped);
  }
  return best;
}

bool CountMin::SerializeTo(BinaryWriter& writer) const {
  writer.PutU32(kCountMinMagic);
  writer.PutU32(config_.width);
  writer.PutU32(config_.depth);
  writer.PutU64(config_.seed);
  writer.PutU8(config_.policy == CmUpdatePolicy::kConservative ? 1 : 0);
  writer.PutPodVector(cells_);
  return writer.ok();
}

std::optional<CountMin> CountMin::DeserializeFrom(BinaryReader& reader) {
  uint32_t magic = 0;
  CountMinConfig config;
  uint8_t policy = 0;
  if (!reader.GetU32(&magic) || magic != kCountMinMagic) {
    return std::nullopt;
  }
  if (!reader.GetU32(&config.width) || !reader.GetU32(&config.depth) ||
      !reader.GetU64(&config.seed) || !reader.GetU8(&policy)) {
    return std::nullopt;
  }
  config.policy = policy != 0 ? CmUpdatePolicy::kConservative
                              : CmUpdatePolicy::kPlain;
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
