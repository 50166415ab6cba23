// Round-trip and corruption tests for the binary serialization of the
// summaries that are persisted: CountMin, SalsaCountMin, the two heap
// filters, and ASketch over them.

#include "src/common/serialize.h"

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/asketch.h"
#include "src/workload/stream_generator.h"

namespace asketch {
namespace {

std::vector<Tuple> TestStream(uint64_t n = 50000, double skew = 1.3) {
  StreamSpec spec;
  spec.stream_size = n;
  spec.num_distinct = 5000;
  spec.skew = skew;
  spec.seed = 77;
  return GenerateStream(spec);
}

TEST(BinaryWriterReaderTest, PrimitivesRoundTrip) {
  BinaryWriter writer;
  writer.PutU8(7);
  writer.PutU32(0xdeadbeef);
  writer.PutU64(~uint64_t{0});
  writer.PutPodVector(std::vector<uint32_t>{1, 2, 3});
  ASSERT_TRUE(writer.ok());

  BinaryReader reader(writer.buffer());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  std::vector<uint32_t> vec;
  ASSERT_TRUE(reader.GetU8(&u8));
  ASSERT_TRUE(reader.GetU32(&u32));
  ASSERT_TRUE(reader.GetU64(&u64));
  ASSERT_TRUE(reader.GetPodVector(&vec));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeef);
  EXPECT_EQ(u64, ~uint64_t{0});
  EXPECT_EQ(vec, (std::vector<uint32_t>{1, 2, 3}));
  // Reading past the end fails.
  EXPECT_FALSE(reader.GetU8(&u8));
  EXPECT_FALSE(reader.ok());
}

TEST(BinaryReaderTest, RejectsOversizedVectors) {
  BinaryWriter writer;
  writer.PutU64(uint64_t{1} << 40);  // absurd element count
  BinaryReader reader(writer.buffer());
  std::vector<uint32_t> vec;
  EXPECT_FALSE(reader.GetPodVector(&vec, /*max_elements=*/1 << 20));
}

template <typename T>
T RoundTrip(const T& original) {
  BinaryWriter writer;
  EXPECT_TRUE(original.SerializeTo(writer));
  BinaryReader reader(writer.buffer());
  auto restored = T::DeserializeFrom(reader);
  EXPECT_TRUE(restored.has_value());
  return *std::move(restored);
}

TEST(SerializationTest, CountMinRoundTrip) {
  CountMin sketch(CountMinConfig::FromSpaceBudget(16 * 1024, 4, 9));
  for (const Tuple& t : TestStream()) sketch.Update(t.key, t.value);
  const CountMin restored = RoundTrip(sketch);
  for (item_t key = 0; key < 5000; key += 13) {
    EXPECT_EQ(restored.Estimate(key), sketch.Estimate(key));
  }
  EXPECT_EQ(restored.RowSum(0), sketch.RowSum(0));
}

TEST(SerializationTest, CountMinRejectsNonzeroReservedByte) {
  // The byte after the seed is reserved: it is always written as 0, and
  // any other value marks the blob as malformed.
  CountMin sketch(CountMinConfig::FromSpaceBudget(8 * 1024, 4, 9));
  sketch.Update(1, 10);
  BinaryWriter writer;
  ASSERT_TRUE(sketch.SerializeTo(writer));
  std::vector<uint8_t> bytes = writer.buffer();
  constexpr size_t kReservedOffset = 4 + 4 + 4 + 8;  // magic, w, h, seed
  ASSERT_EQ(bytes[kReservedOffset], 0u);
  {
    BinaryReader reader(bytes);
    EXPECT_TRUE(CountMin::DeserializeFrom(reader).has_value());
  }
  bytes[kReservedOffset] = 1;
  BinaryReader reader(bytes);
  EXPECT_FALSE(CountMin::DeserializeFrom(reader).has_value());
}

TEST(SerializationTest, SalsaCountMinRoundTrip) {
  SalsaCountMin sketch(SalsaConfig::FromSpaceBudget(16 * 1024, 4, 9));
  for (const Tuple& t : TestStream()) sketch.Update(t.key, t.value);
  ASSERT_GT(sketch.MergedPairs(), 0u);  // layout state must round-trip too
  const SalsaCountMin restored = RoundTrip(sketch);
  EXPECT_EQ(restored.MergedPairs(), sketch.MergedPairs());
  EXPECT_EQ(restored.MergedQuads(), sketch.MergedQuads());
  for (item_t key = 0; key < 5000; key += 13) {
    EXPECT_EQ(restored.Estimate(key), sketch.Estimate(key));
  }
}

TEST(SerializationTest, SalsaCountMinCorruptedInputsYieldNullopt) {
  SalsaCountMin sketch(SalsaConfig::FromSpaceBudget(4 * 1024, 4, 9));
  sketch.Update(1, 5);
  BinaryWriter writer;
  ASSERT_TRUE(sketch.SerializeTo(writer));
  {
    std::vector<uint8_t> bytes = writer.buffer();
    bytes[0] ^= 0xff;  // wrong magic
    BinaryReader reader(bytes);
    EXPECT_FALSE(SalsaCountMin::DeserializeFrom(reader).has_value());
  }
  {
    BinaryReader reader(writer.buffer().data(),
                        writer.buffer().size() / 2);  // truncated
    EXPECT_FALSE(SalsaCountMin::DeserializeFrom(reader).has_value());
  }
  // A plain CountMin blob must not deserialize as a Salsa sketch.
  {
    CountMin cm(CountMinConfig::FromSpaceBudget(4 * 1024, 4, 9));
    BinaryWriter cm_writer;
    ASSERT_TRUE(cm.SerializeTo(cm_writer));
    BinaryReader reader(cm_writer.buffer());
    EXPECT_FALSE(SalsaCountMin::DeserializeFrom(reader).has_value());
  }
}

TEST(SerializationTest, ASketchSalsaRoundTripFullState) {
  ASketchConfig config;
  config.total_bytes = 16 * 1024;
  config.width = 4;
  config.filter_items = 16;
  config.seed = 3;
  auto as = MakeASketchSalsa<RelaxedHeapFilter>(config);
  for (const Tuple& t : TestStream()) as.Update(t.key, t.value);

  BinaryWriter writer;
  ASSERT_TRUE(as.SerializeTo(writer));
  BinaryReader reader(writer.buffer());
  auto restored =
      ASketch<RelaxedHeapFilter, SalsaCountMin>::DeserializeFrom(reader);
  ASSERT_TRUE(restored.has_value());
  for (item_t key = 0; key < 5000; key += 3) {
    EXPECT_EQ(restored->Estimate(key), as.Estimate(key));
  }
  EXPECT_EQ(restored->stats().exchanges, as.stats().exchanges);
  // A countmin-backed composite blob must not restore as salsa-backed.
  BinaryReader cross_reader(writer.buffer());
  const auto cross =
      ASketch<RelaxedHeapFilter, CountMin>::DeserializeFrom(cross_reader);
  EXPECT_FALSE(cross.has_value());
}

template <typename T>
class FilterSerializationTest : public ::testing::Test {};

using HeapFilterTypes = ::testing::Types<StrictHeapFilter, RelaxedHeapFilter>;
TYPED_TEST_SUITE(FilterSerializationTest, HeapFilterTypes);

TYPED_TEST(FilterSerializationTest, RoundTripPreservesEntriesAndMin) {
  TypeParam filter(16);
  for (item_t key = 0; key < 12; ++key) {
    filter.Insert(key * 31 + 5, (key + 3) * 7, key);
  }
  BinaryWriter writer;
  ASSERT_TRUE(filter.SerializeTo(writer));
  BinaryReader reader(writer.buffer());
  auto restored = TypeParam::DeserializeFrom(reader);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), filter.size());
  EXPECT_EQ(restored->capacity(), filter.capacity());
  EXPECT_EQ(restored->MinNewCount(), filter.MinNewCount());
  for (item_t key = 0; key < 12; ++key) {
    const int32_t slot = restored->Find(key * 31 + 5);
    ASSERT_GE(slot, 0);
    EXPECT_EQ(restored->NewCount(slot), (key + 3) * 7);
    EXPECT_EQ(restored->OldCount(slot), key);
  }
}

TEST(SerializationTest, ASketchRoundTripFullState) {
  ASketchConfig config;
  config.total_bytes = 16 * 1024;
  config.width = 4;
  config.filter_items = 16;
  config.seed = 3;
  auto as = MakeASketchCountMin<RelaxedHeapFilter>(config);
  for (const Tuple& t : TestStream()) as.Update(t.key, t.value);

  BinaryWriter writer;
  ASSERT_TRUE(as.SerializeTo(writer));
  BinaryReader reader(writer.buffer());
  auto restored =
      ASketch<RelaxedHeapFilter, CountMin>::DeserializeFrom(reader);
  ASSERT_TRUE(restored.has_value());
  for (item_t key = 0; key < 5000; key += 3) {
    EXPECT_EQ(restored->Estimate(key), as.Estimate(key));
  }
  EXPECT_EQ(restored->stats().exchanges, as.stats().exchanges);
  EXPECT_EQ(restored->stats().filtered_weight,
            as.stats().filtered_weight);
  // The restored instance keeps processing correctly.
  restored->Update(42, 5);
  EXPECT_GE(restored->Estimate(42), as.Estimate(42) + 5);
}

template <typename T>
class ASketchSerializationTest : public ::testing::Test {};

TYPED_TEST_SUITE(ASketchSerializationTest, HeapFilterTypes);

TYPED_TEST(ASketchSerializationTest, RoundTripsWithEitherHeapFilter) {
  ASketchConfig config;
  config.total_bytes = 8 * 1024;
  config.width = 4;
  config.filter_items = 8;
  config.seed = 13;
  auto as = MakeASketchCountMin<TypeParam>(config);
  for (const Tuple& t : TestStream(20000)) as.Update(t.key, t.value);
  BinaryWriter writer;
  ASSERT_TRUE(as.SerializeTo(writer));
  BinaryReader reader(writer.buffer());
  auto restored = ASketch<TypeParam, CountMin>::DeserializeFrom(reader);
  ASSERT_TRUE(restored.has_value());
  for (item_t key = 0; key < 5000; key += 7) {
    ASSERT_EQ(restored->Estimate(key), as.Estimate(key)) << "key " << key;
  }
  // A filter blob from one heap variant must not deserialize as the other.
  using OtherFilter =
      std::conditional_t<std::is_same_v<TypeParam, StrictHeapFilter>,
                         RelaxedHeapFilter, StrictHeapFilter>;
  BinaryReader cross_reader(writer.buffer());
  EXPECT_FALSE(
      (ASketch<OtherFilter, CountMin>::DeserializeFrom(cross_reader))
          .has_value());
}

TEST(SerializationTest, ASketchRoundTripThroughFile) {
  ASketchConfig config;
  config.total_bytes = 8 * 1024;
  config.width = 4;
  config.filter_items = 8;
  auto as = MakeASketchCountMin<RelaxedHeapFilter>(config);
  for (const Tuple& t : TestStream(10000)) as.Update(t.key, t.value);

  const std::string path = testing::TempDir() + "/asketch.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    BinaryWriter writer(f);
    ASSERT_TRUE(as.SerializeTo(writer));
    std::fclose(f);
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    BinaryReader reader(f);
    auto restored =
        ASketch<RelaxedHeapFilter, CountMin>::DeserializeFrom(reader);
    std::fclose(f);
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->Estimate(1), as.Estimate(1));
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, CorruptedInputsYieldNullopt) {
  CountMin sketch(CountMinConfig::FromSpaceBudget(4 * 1024, 4, 9));
  sketch.Update(1, 5);
  BinaryWriter writer;
  ASSERT_TRUE(sketch.SerializeTo(writer));
  // Wrong magic.
  {
    std::vector<uint8_t> bytes = writer.buffer();
    bytes[0] ^= 0xff;
    BinaryReader reader(bytes);
    EXPECT_FALSE(CountMin::DeserializeFrom(reader).has_value());
  }
  // Truncated.
  {
    BinaryReader reader(writer.buffer().data(),
                        writer.buffer().size() / 2);
    EXPECT_FALSE(CountMin::DeserializeFrom(reader).has_value());
  }
  // Cross-type confusion: a CountMin blob is not a SalsaCountMin.
  {
    BinaryReader reader(writer.buffer());
    EXPECT_FALSE(SalsaCountMin::DeserializeFrom(reader).has_value());
  }
}

}  // namespace
}  // namespace asketch
