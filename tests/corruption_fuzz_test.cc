// Corruption robustness fuzz: for every serializable summary type, all
// prefix truncations and a seeded schedule of single-bit flips must be
// rejected at the snapshot layer, and the raw defensive readers must
// never crash (run under ASan/UBSan in CI) — a corrupt blob yields
// std::nullopt or a well-formed (if wrong) object, never UB.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/snapshot.h"
#include "src/core/asketch.h"
#include "src/filter/heap_filter.h"
#include "src/filter/stream_summary_filter.h"
#include "src/filter/vector_filter.h"
#include "src/sketch/count_min.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/fcm.h"
#include "src/sketch/holistic_udaf.h"
#include "src/sketch/misra_gries.h"
#include "src/sketch/space_saving.h"

namespace asketch {
namespace {

constexpr int kFlipsPerBlob = 160;

/// Shared corruption battery. `seed` makes every flip replayable.
template <typename T>
void ExpectCorruptionRobust(const T& object, uint64_t seed) {
  const std::vector<uint8_t> snapshot = ToSnapshot(object);
  ASSERT_FALSE(snapshot.empty());
  ASSERT_TRUE(FromSnapshot<T>(snapshot.data(), snapshot.size()).has_value());

  // Every prefix truncation of the envelope is rejected.
  for (size_t size = 0; size < snapshot.size(); ++size) {
    EXPECT_FALSE(FromSnapshot<T>(snapshot.data(), size).has_value())
        << "envelope truncated to " << size;
  }

  // Seeded single-bit flips anywhere in the envelope are rejected: the
  // header fields are validated exactly and the payload is CRC-guarded.
  Rng rng(seed);
  for (int i = 0; i < kFlipsPerBlob; ++i) {
    auto corrupted = snapshot;
    const size_t byte = rng.NextBounded(corrupted.size());
    const uint32_t bit = static_cast<uint32_t>(rng.NextBounded(8));
    corrupted[byte] ^= static_cast<uint8_t>(1u << bit);
    EXPECT_FALSE(
        FromSnapshot<T>(corrupted.data(), corrupted.size()).has_value())
        << "flip at byte " << byte << " bit " << bit;
  }

  // The raw (un-enveloped) readers stay defensive: truncations fail
  // cleanly, and bit flips — which CAN yield a wrong-but-well-formed
  // object without a checksum — must never crash or trip a sanitizer.
  BinaryWriter writer;
  ASSERT_TRUE(object.SerializeTo(writer));
  const std::vector<uint8_t>& blob = writer.buffer();
  for (size_t size = 0; size < blob.size(); ++size) {
    BinaryReader reader(blob.data(), size);
    EXPECT_FALSE(T::DeserializeFrom(reader).has_value())
        << "raw blob truncated to " << size;
  }
  for (int i = 0; i < kFlipsPerBlob; ++i) {
    auto corrupted = blob;
    corrupted[rng.NextBounded(corrupted.size())] ^=
        static_cast<uint8_t>(1u << rng.NextBounded(8));
    BinaryReader reader(corrupted.data(), corrupted.size());
    (void)T::DeserializeFrom(reader);
  }
}

TEST(CorruptionFuzzTest, CountMin) {
  CountMin sketch(CountMinConfig::FromSpaceBudget(8192, 4, 11));
  for (item_t key = 0; key < 2000; ++key) sketch.Update(key, key % 5 + 1);
  ExpectCorruptionRobust(sketch, 101);
}

TEST(CorruptionFuzzTest, CountSketch) {
  CountSketch sketch(CountSketchConfig::FromSpaceBudget(8192, 4, 11));
  for (item_t key = 0; key < 2000; ++key) sketch.Update(key, key % 5 + 1);
  ExpectCorruptionRobust(sketch, 102);
}

TEST(CorruptionFuzzTest, Fcm) {
  Fcm sketch(FcmConfig::FromSpaceBudget(8192, 4, 11));
  for (item_t key = 0; key < 2000; ++key) sketch.Update(key, key % 5 + 1);
  ExpectCorruptionRobust(sketch, 103);
}

TEST(CorruptionFuzzTest, MisraGries) {
  MisraGries summary(64);
  for (item_t key = 0; key < 2000; ++key) summary.Update(key % 97, 1);
  ExpectCorruptionRobust(summary, 104);
}

TEST(CorruptionFuzzTest, SpaceSaving) {
  SpaceSaving summary(64);
  for (item_t key = 0; key < 2000; ++key) summary.Update(key % 97, 1);
  ExpectCorruptionRobust(summary, 105);
}

TEST(CorruptionFuzzTest, HolisticUdaf) {
  HolisticUdafConfig config;
  HolisticUdaf udaf(config);
  for (item_t key = 0; key < 2000; ++key) udaf.Update(key % 300, 1);
  ExpectCorruptionRobust(udaf, 106);
}

TEST(CorruptionFuzzTest, VectorFilter) {
  VectorFilter filter(32);
  for (item_t key = 0; key < 32; ++key) filter.Insert(key, key + 1, key);
  ExpectCorruptionRobust(filter, 108);
}

TEST(CorruptionFuzzTest, StrictHeapFilter) {
  StrictHeapFilter filter(32);
  for (item_t key = 0; key < 32; ++key) filter.Insert(key, key + 1, key);
  ExpectCorruptionRobust(filter, 109);
}

TEST(CorruptionFuzzTest, RelaxedHeapFilter) {
  RelaxedHeapFilter filter(32);
  for (item_t key = 0; key < 32; ++key) filter.Insert(key, key + 1, key);
  ExpectCorruptionRobust(filter, 110);
}

TEST(CorruptionFuzzTest, StreamSummaryFilter) {
  StreamSummaryFilter filter(16);
  for (item_t key = 0; key < 16; ++key) filter.Insert(key, key + 1, key);
  ExpectCorruptionRobust(filter, 111);
}

TEST(CorruptionFuzzTest, ASketch) {
  ASketchConfig config;
  config.total_bytes = 16 * 1024;
  config.width = 4;
  config.filter_items = 32;
  auto sketch = MakeASketchCountMin<RelaxedHeapFilter>(config);
  for (item_t key = 0; key < 5000; ++key) sketch.Update(key % 400, 1);
  ExpectCorruptionRobust(sketch, 112);
}

}  // namespace
}  // namespace asketch
