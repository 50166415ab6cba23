#include "src/sketch/salsa_count_min.h"

#include <utility>

#include "src/obs/core_metrics.h"

// Store discipline (see the header's concurrency note): in-level counter
// stores go through RelaxedStore — monotone cells under insertions, same
// argument as CountMin. Anything that changes the *layout* (merge bits,
// the widened counter's initial value, Reset/AdoptFrom/MergeFrom
// rebuilds) uses ReleaseStores inside a SeqWriteSection on the merge
// epoch, so a concurrent EstimateRelaxed either validates a stable
// layout or retries.

namespace asketch {

namespace {
constexpr uint32_t kSalsaMagic = 0x31534c53u;  // "SLS1"

size_t BitmapWords(size_t bits) { return (bits + 63) / 64; }
}  // namespace

std::optional<std::string> SalsaConfig::Validate() const {
  if (width < 1) return "Salsa width (number of rows) must be >= 1";
  if (width > 64) {
    return "Salsa width (number of rows) must be <= 64 (the prepared "
           "update path stages one bucket per row in a fixed block)";
  }
  if (depth < 4) return "Salsa depth (counters per row) must be >= 4";
  if (depth % 4 != 0) {
    return "Salsa depth must be a multiple of 4 (counters merge in "
           "aligned pairs and quads)";
  }
  return std::nullopt;
}

SalsaConfig SalsaConfig::FromSpaceBudget(size_t bytes, uint32_t width,
                                         uint64_t seed) {
  SalsaConfig config;
  config.width = std::max<uint32_t>(1, std::min<uint32_t>(width, 64));
  config.seed = seed;
  // Row cost: depth counter bytes + depth/16 pair-bitmap bytes +
  // depth/32 quad-bitmap bytes = depth·35/32.
  const size_t per_row = bytes / config.width;
  size_t depth = per_row * 32 / 35;
  depth &= ~size_t{3};
  depth = std::max<size_t>(4, depth);
  depth = std::min<size_t>(depth, (uint64_t{1} << 32) - 4);
  config.depth = static_cast<uint32_t>(depth);
  return config;
}

SalsaCountMin::SalsaCountMin(const SalsaConfig& config) : config_(config) {
  ASKETCH_CHECK(!config.Validate().has_value());
  hashes_ = HashFamily(config_.width, config_.depth, config_.seed);
  const size_t cells = static_cast<size_t>(config_.width) * config_.depth;
  words_.assign(cells / 4, 0);
  pair_bits_.assign(BitmapWords(cells / 2), 0);
  quad_bits_.assign(BitmapWords(cells / 4), 0);
}

count_t SalsaCountMin::ReadAtLevel(size_t cell, Level level) const {
  switch (level) {
    case Level::k8:
      return bytes()[cell];
    case Level::k16:
      return *reinterpret_cast<const uint16_t*>(bytes() +
                                                (cell & ~size_t{1}));
    case Level::k32:
      return words_[cell >> 2];
  }
  return 0;
}

count_t SalsaCountMin::ReadBucketAcquire(size_t cell) const {
  if (TestBitAcquire(quad_bits_, cell >> 2)) {
    return AcquireLoad(words_[cell >> 2]);
  }
  if (TestBitAcquire(pair_bits_, cell >> 1)) {
    return AcquireLoad(*reinterpret_cast<const uint16_t*>(
        bytes() + (cell & ~size_t{1})));
  }
  return AcquireLoad(bytes()[cell]);
}

void SalsaCountMin::StoreAtLevel(size_t cell, Level level, count_t value) {
  switch (level) {
    case Level::k8:
      RelaxedStore(bytes()[cell], static_cast<uint8_t>(value));
      return;
    case Level::k16:
      RelaxedStore(
          *reinterpret_cast<uint16_t*>(bytes() + (cell & ~size_t{1})),
          static_cast<uint16_t>(value));
      return;
    case Level::k32:
      RelaxedStore(words_[cell >> 2], value);
      return;
  }
}

void SalsaCountMin::MergeUpLocked(size_t cell, Level level) {
  ASKETCH_TELEMETRY_ONLY(obs::SalsaMetrics& metrics =
                             obs::SalsaMetrics::Get();)
  if (level == Level::k8) {
    const size_t pair = cell & ~size_t{1};
    // Max of the parts: each byte already upper-bounds every key hashed
    // into it, and the shared counter upper-bounds both — one-sidedness
    // is preserved at the cost of the neighbor's collisions.
    const count_t merged =
        std::max<count_t>(bytes()[pair], bytes()[pair + 1]);
    SetBitRelease(pair_bits_, pair >> 1);
    ReleaseStore(*reinterpret_cast<uint16_t*>(bytes() + pair),
                 static_cast<uint16_t>(merged));
    ASKETCH_TELEMETRY_ONLY({
      metrics.pair_merges.Add(1);
      metrics.counters_lost.Add(1);
    })
    return;
  }
  // 16 -> 32: the whole aligned quad collapses into one counter. The
  // sibling half-pair may still be two 8-bit counters; read every part
  // at its own current level and take the max.
  const size_t quad = cell & ~size_t{3};
  count_t merged = 0;
  uint64_t parts = 0;
  for (size_t half = quad; half < quad + 4; half += 2) {
    if (TestBit(pair_bits_, half >> 1)) {
      merged = std::max(merged, ReadAtLevel(half, Level::k16));
      parts += 1;
    } else {
      merged = std::max<count_t>(merged, bytes()[half]);
      merged = std::max<count_t>(merged, bytes()[half + 1]);
      parts += 2;
    }
  }
  SetBitRelease(quad_bits_, quad >> 2);
  ReleaseStore(words_[quad >> 2], merged);
  ASKETCH_TELEMETRY_ONLY({
    metrics.quad_merges.Add(1);
    metrics.counters_lost.Add(parts - 1);
  })
}

count_t SalsaCountMin::AddAt(size_t cell, delta_t delta) {
  for (;;) {
    const Level level = LevelAt(cell);
    const count_t cap = CapOf(level);
    const count_t cur = ReadAtLevel(cell, level);
    int64_t next = static_cast<int64_t>(cur) + delta;
    if (next < 0) next = 0;
    if (next <= static_cast<int64_t>(cap)) {
      StoreAtLevel(cell, level, static_cast<count_t>(next));
      return static_cast<count_t>(next);
    }
    if (level == Level::k32) {
      // Top level: saturate like CountMin instead of wrapping.
      StoreAtLevel(cell, level, ~count_t{0});
      return ~count_t{0};
    }
    SeqWriteSection section(epoch_);
    MergeUpLocked(cell, level);
  }
}

void SalsaCountMin::Update(item_t key, delta_t delta) {
  for (uint32_t row = 0; row < config_.width; ++row) {
    AddAt(CellIndex(row, hashes_.Bucket(row, key)), delta);
  }
}

count_t SalsaCountMin::UpdateAndEstimate(item_t key, delta_t delta) {
  count_t est = std::numeric_limits<count_t>::max();
  for (uint32_t row = 0; row < config_.width; ++row) {
    est = std::min(est,
                   AddAt(CellIndex(row, hashes_.Bucket(row, key)), delta));
  }
  return est;
}

void SalsaCountMin::UpdateAt(const uint32_t* buckets, delta_t delta,
                             size_t stride) {
  for (uint32_t row = 0; row < config_.width; ++row) {
    AddAt(CellIndex(row, buckets[row * stride]), delta);
  }
}

count_t SalsaCountMin::UpdateAndEstimateAt(const uint32_t* buckets,
                                           delta_t delta, size_t stride) {
  count_t est = std::numeric_limits<count_t>::max();
  for (uint32_t row = 0; row < config_.width; ++row) {
    est = std::min(est, AddAt(CellIndex(row, buckets[row * stride]), delta));
  }
  return est;
}

void SalsaCountMin::UpdateBatch(std::span<const Tuple> tuples) {
  // Same chunked two-phase ingestion as CountMin::UpdateBatch: hash a
  // chunk with the vectorized multi-key kernel, then apply in order.
  constexpr size_t kChunk = 16;
  const size_t n = tuples.size();
  const uint32_t w = config_.width;
  std::vector<uint32_t> buckets(kChunk * w);
  item_t keys[kChunk];
  for (size_t begin = 0; begin < n; begin += kChunk) {
    const size_t count = std::min(kChunk, n - begin);
    for (size_t i = 0; i < count; ++i) keys[i] = tuples[begin + i].key;
    PrepareUpdateBatch(keys, count, buckets.data());
    for (size_t i = 0; i < count; ++i) {
      UpdateAt(&buckets[i], static_cast<delta_t>(tuples[begin + i].value),
               count);
    }
  }
}

count_t SalsaCountMin::Estimate(item_t key) const {
  count_t est = std::numeric_limits<count_t>::max();
  for (uint32_t row = 0; row < config_.width; ++row) {
    est = std::min(est, ReadBucket(CellIndex(row, hashes_.Bucket(row, key))));
  }
  return est;
}

void SalsaCountMin::Reset() {
  SeqWriteSection section(epoch_);
  for (uint64_t& word : quad_bits_) ReleaseStore(word, uint64_t{0});
  for (uint64_t& word : pair_bits_) ReleaseStore(word, uint64_t{0});
  for (uint32_t& word : words_) ReleaseStore(word, 0u);
}

uint64_t SalsaCountMin::MergedPairs() const {
  uint64_t merged = 0;
  for (const uint64_t word : pair_bits_) {
    merged += static_cast<uint64_t>(__builtin_popcountll(word));
  }
  return merged;
}

uint64_t SalsaCountMin::MergedQuads() const {
  uint64_t merged = 0;
  for (const uint64_t word : quad_bits_) {
    merged += static_cast<uint64_t>(__builtin_popcountll(word));
  }
  return merged;
}

uint64_t SalsaCountMin::LogicalCounters() const {
  const size_t cells = static_cast<size_t>(config_.width) * config_.depth;
  uint64_t logical = 0;
  for (size_t quad = 0; quad < cells; quad += 4) {
    if (TestBit(quad_bits_, quad >> 2)) {
      logical += 1;
      continue;
    }
    for (size_t half = quad; half < quad + 4; half += 2) {
      logical += TestBit(pair_bits_, half >> 1) ? 1 : 2;
    }
  }
  return logical;
}

bool SalsaCountMin::CompatibleWith(const SalsaCountMin& other) const {
  return config_.width == other.config_.width &&
         config_.depth == other.config_.depth &&
         config_.seed == other.config_.seed;
}

void SalsaCountMin::AdoptFrom(SalsaCountMin&& other) {
  ASKETCH_CHECK(CanAdoptFrom(other));
  SeqWriteSection section(epoch_);
  for (size_t i = 0; i < quad_bits_.size(); ++i) {
    ReleaseStore(quad_bits_[i], other.quad_bits_[i]);
  }
  for (size_t i = 0; i < pair_bits_.size(); ++i) {
    ReleaseStore(pair_bits_[i], other.pair_bits_[i]);
  }
  for (size_t i = 0; i < words_.size(); ++i) {
    ReleaseStore(words_[i], other.words_[i]);
  }
}

void SalsaCountMin::EnsureAtLeastLocked(size_t cell, count_t target) {
  for (;;) {
    const Level level = LevelAt(cell);
    const count_t cur = ReadAtLevel(cell, level);
    if (target <= cur) return;
    if (target <= CapOf(level)) {
      // Release (not relaxed): runs inside rebuild sections whose
      // intermediate states must stay invisible to validated readers.
      switch (level) {
        case Level::k8:
          ReleaseStore(bytes()[cell], static_cast<uint8_t>(target));
          return;
        case Level::k16:
          ReleaseStore(
              *reinterpret_cast<uint16_t*>(bytes() + (cell & ~size_t{1})),
              static_cast<uint16_t>(target));
          return;
        case Level::k32:
          ReleaseStore(words_[cell >> 2], target);
          return;
      }
    }
    MergeUpLocked(cell, level);
  }
}

std::optional<std::string> SalsaCountMin::MergeFrom(
    const SalsaCountMin& other) {
  if (!CompatibleWith(other)) {
    return "SalsaCountMin::MergeFrom: incompatible configs "
           "(width/depth/seed must match)";
  }
  // Per-bucket targets at the *old* layouts: the union stream's count of
  // any key hashed into bucket i is at most Read_this(i) + Read_other(i).
  const size_t cells = static_cast<size_t>(config_.width) * config_.depth;
  std::vector<count_t> targets(cells);
  for (size_t cell = 0; cell < cells; ++cell) {
    const uint64_t sum = static_cast<uint64_t>(ReadBucket(cell)) +
                         other.ReadBucket(cell);
    targets[cell] = sum > ~count_t{0} ? ~count_t{0}
                                      : static_cast<count_t>(sum);
  }
  // Rebuild from scratch inside one epoch section: start at the 8-bit
  // layout and let the targets drive the merges, so the merged sketch is
  // no coarser than the targets demand.
  SeqWriteSection section(epoch_);
  for (uint64_t& word : quad_bits_) ReleaseStore(word, uint64_t{0});
  for (uint64_t& word : pair_bits_) ReleaseStore(word, uint64_t{0});
  for (uint32_t& word : words_) ReleaseStore(word, 0u);
  for (size_t cell = 0; cell < cells; ++cell) {
    EnsureAtLeastLocked(cell, targets[cell]);
  }
  return std::nullopt;
}

bool SalsaCountMin::SerializeTo(BinaryWriter& writer) const {
  writer.PutU32(kSalsaMagic);
  writer.PutU32(config_.width);
  writer.PutU32(config_.depth);
  writer.PutU64(config_.seed);
  writer.PutPodVector(words_);
  writer.PutPodVector(pair_bits_);
  writer.PutPodVector(quad_bits_);
  return writer.ok();
}

std::optional<SalsaCountMin> SalsaCountMin::DeserializeFrom(
    BinaryReader& reader) {
  uint32_t magic = 0;
  SalsaConfig config;
  if (!reader.GetU32(&magic) || magic != kSalsaMagic) return std::nullopt;
  if (!reader.GetU32(&config.width) || !reader.GetU32(&config.depth) ||
      !reader.GetU64(&config.seed)) {
    return std::nullopt;
  }
  if (config.Validate().has_value()) return std::nullopt;
  const size_t cells =
      static_cast<size_t>(config.width) * config.depth;
  std::vector<uint32_t> words;
  std::vector<uint64_t> pair_bits;
  std::vector<uint64_t> quad_bits;
  if (!reader.GetPodVector(&words) || words.size() != cells / 4 ||
      !reader.GetPodVector(&pair_bits) ||
      pair_bits.size() != BitmapWords(cells / 2) ||
      !reader.GetPodVector(&quad_bits) ||
      quad_bits.size() != BitmapWords(cells / 4)) {
    return std::nullopt;
  }
  SalsaCountMin sketch(config);
  sketch.words_ = std::move(words);
  sketch.pair_bits_ = std::move(pair_bits);
  sketch.quad_bits_ = std::move(quad_bits);
  return sketch;
}

}  // namespace asketch
