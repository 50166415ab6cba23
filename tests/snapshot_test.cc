// Snapshot envelope, CRC32C, atomic write, generation store, and
// deterministic fault-injection tests.

#include "src/common/snapshot.h"

#include <array>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/crc32c.h"
#include "src/common/fault_injection.h"
#include "src/common/random.h"
#include "src/core/asketch.h"
#include "src/sketch/count_min.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/holistic_udaf.h"
#include "src/sketch/misra_gries.h"
#include "src/sketch/space_saving.h"

namespace asketch {
namespace {

namespace fs = std::filesystem;

/// Fresh empty directory under the gtest temp root.
std::string TestDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("snapshot_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<uint8_t> SamplePayload(size_t size) {
  std::vector<uint8_t> payload(size);
  for (size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  return payload;
}

TEST(Crc32cTest, KnownAnswer) {
  // The CRC32C check value from RFC 3720 / the Castagnoli paper.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32cReference("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), Crc32cReference(nullptr, 0));
}

TEST(Crc32cTest, HardwareMatchesReferenceOnRandomBuffers) {
  Rng rng(2024);
  // Cover all alignments and tail lengths around the 8-byte chunk size.
  for (size_t size = 0; size < 100; ++size) {
    std::vector<uint8_t> data(size);
    for (auto& b : data) b = static_cast<uint8_t>(rng.NextBounded(256));
    EXPECT_EQ(Crc32c(data.data(), size), Crc32cReference(data.data(), size))
        << "size " << size;
  }
}

TEST(SnapshotEnvelopeTest, RoundTrip) {
  const auto payload = SamplePayload(100);
  const auto envelope = WrapSnapshot(/*payload_type=*/42, payload);
  ASSERT_EQ(envelope.size(), kSnapshotHeaderBytes + payload.size());
  const auto back = UnwrapSnapshot(envelope.data(), envelope.size(), 42);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
}

TEST(SnapshotEnvelopeTest, EmptyPayloadRoundTrips) {
  const auto envelope = WrapSnapshot(7, {});
  const auto back = UnwrapSnapshot(envelope.data(), envelope.size(), 7);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(SnapshotEnvelopeTest, WrongTypeTagRejected) {
  const auto envelope = WrapSnapshot(42, SamplePayload(16));
  EXPECT_FALSE(
      UnwrapSnapshot(envelope.data(), envelope.size(), 43).has_value());
}

TEST(SnapshotEnvelopeTest, EverySingleBitFlipRejected) {
  // The acceptance bar of this format: ANY flipped bit — header or
  // payload — must be rejected. Exhaustive over a small envelope.
  const auto payload = SamplePayload(48);
  const auto envelope = WrapSnapshot(42, payload);
  for (size_t byte = 0; byte < envelope.size(); ++byte) {
    for (uint32_t bit = 0; bit < 8; ++bit) {
      auto corrupted = envelope;
      corrupted[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(
          UnwrapSnapshot(corrupted.data(), corrupted.size(), 42).has_value())
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(SnapshotEnvelopeTest, EveryTruncationRejected) {
  const auto envelope = WrapSnapshot(42, SamplePayload(32));
  for (size_t size = 0; size < envelope.size(); ++size) {
    EXPECT_FALSE(UnwrapSnapshot(envelope.data(), size, 42).has_value())
        << "truncated to " << size;
  }
}

TEST(SnapshotEnvelopeTest, TrailingBytesRejected) {
  auto envelope = WrapSnapshot(42, SamplePayload(32));
  envelope.push_back(0);
  EXPECT_FALSE(
      UnwrapSnapshot(envelope.data(), envelope.size(), 42).has_value());
}

TEST(SnapshotEnvelopeTest, TypedRoundTripAndCrossTypeRejection) {
  CountMin sketch(CountMinConfig::FromSpaceBudget(4096, 4, 99));
  for (item_t key = 0; key < 500; ++key) sketch.Update(key, key % 7 + 1);
  const auto snapshot = ToSnapshot(sketch);
  ASSERT_FALSE(snapshot.empty());

  const auto back = FromSnapshot<CountMin>(snapshot.data(), snapshot.size());
  ASSERT_TRUE(back.has_value());
  for (item_t key = 0; key < 500; ++key) {
    EXPECT_EQ(back->Estimate(key), sketch.Estimate(key));
  }
  // The same bytes presented as a different summary type must fail on
  // the envelope's type tag, before any deserialization runs.
  EXPECT_FALSE(
      FromSnapshot<CountSketch>(snapshot.data(), snapshot.size()).has_value());
}

template <typename T>
void ExpectDoesNotLoad(const std::vector<uint8_t>& envelope) {
  EXPECT_FALSE(FromSnapshot<T>(envelope.data(), envelope.size()).has_value())
      << "payload type " << T::kSnapshotPayloadType;
}

// Every type that registers a snapshot payload tag.
template <typename... Ts>
struct PayloadTypes {
  static constexpr std::array<uint32_t, sizeof...(Ts)> kTags = {
      Ts::kSnapshotPayloadType...};

  /// Expects no registered type to load `envelope`.
  static void ExpectNoneLoads(const std::vector<uint8_t>& envelope) {
    (ExpectDoesNotLoad<Ts>(envelope), ...);
  }
};

using RegisteredPayloadTypes =
    PayloadTypes<CountMin, CountSketch, Fcm, MisraGries, SpaceSaving,
                 HolisticUdaf, VectorFilter, StrictHeapFilter,
                 RelaxedHeapFilter, StreamSummaryFilter, SalsaCountMin,
                 ASketch<RelaxedHeapFilter, CountMin>>;

// Tags of retired payload types (snapshot.h's registry); never reused.
constexpr std::array<uint32_t, 2> kReservedPayloadTags = {7, 12};

constexpr bool PayloadTagsDistinctAndUnreserved() {
  const auto& tags = RegisteredPayloadTypes::kTags;
  for (size_t i = 0; i < tags.size(); ++i) {
    for (const uint32_t reserved : kReservedPayloadTags) {
      if (tags[i] == reserved) return false;
    }
    for (size_t j = i + 1; j < tags.size(); ++j) {
      if (tags[i] == tags[j]) return false;
    }
  }
  return true;
}
static_assert(PayloadTagsDistinctAndUnreserved());

TEST(SnapshotEnvelopeTest, ReservedTagsLoadAsNoType) {
  CountMin sketch(CountMinConfig::FromSpaceBudget(4096, 4, 99));
  for (item_t key = 0; key < 500; ++key) sketch.Update(key, 1);
  BinaryWriter writer;
  ASSERT_TRUE(sketch.SerializeTo(writer));
  for (const uint32_t tag : kReservedPayloadTags) {
    SCOPED_TRACE(tag);
    const auto envelope = WrapSnapshot(tag, writer.buffer());
    ASSERT_TRUE(
        UnwrapSnapshot(envelope.data(), envelope.size(), tag).has_value());
    RegisteredPayloadTypes::ExpectNoneLoads(envelope);
  }
}

TEST(WriteFileAtomicTest, WritesAndKeepsOldContentOnFailure) {
  const std::string dir = TestDir("atomic");
  const std::string path = dir + "/file.bin";
  const std::vector<uint8_t> first{1, 2, 3, 4};
  ASSERT_FALSE(WriteFileAtomic(path, first).has_value());
  EXPECT_EQ(ReadFileBytes(path), first);

  // A failing write must leave the published file untouched and clean up
  // its temp file.
  FaultInjectingIo faults;
  faults.ArmWriteErrorAt(0);
  const std::vector<uint8_t> second{9, 9, 9};
  EXPECT_TRUE(WriteFileAtomic(path, second, faults.Hooks()).has_value());
  EXPECT_EQ(ReadFileBytes(path), first);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(SnapshotStoreTest, SaveLoadAndRetention) {
  const std::string dir = TestDir("retention");
  SnapshotStore store(dir + "/ck", /*retain=*/3);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_FALSE(
        store.Save(42, SamplePayload(static_cast<size_t>(i) * 10))
            .has_value())
        << "generation " << i;
  }
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{3, 4, 5}));
  EXPECT_EQ(store.LatestGeneration(), 5u);

  const auto loaded = store.Load(42);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 5u);
  EXPECT_EQ(loaded->generations_skipped, 0u);
  EXPECT_EQ(loaded->payload, SamplePayload(50));
}

TEST(SnapshotStoreTest, LoadOnEmptyStoreFails) {
  const std::string dir = TestDir("empty");
  SnapshotStore store(dir + "/ck");
  std::string error;
  EXPECT_FALSE(store.Load(42, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(SnapshotStoreTest, SaveCreatesMissingDirectory) {
  const std::string dir = TestDir("mkdir");
  SnapshotStore store(dir + "/nested/deeper/ck");
  ASSERT_FALSE(store.Save(42, SamplePayload(8)).has_value());
  ASSERT_TRUE(store.Load(42).has_value());
}

TEST(SnapshotStoreTest, CorruptNewestFallsBackToPreviousGeneration) {
  const std::string dir = TestDir("fallback");
  SnapshotStore store(dir + "/ck");
  ASSERT_FALSE(store.Save(42, SamplePayload(10)).has_value());
  ASSERT_FALSE(store.Save(42, SamplePayload(20)).has_value());

  // Flip one payload bit of the newest generation directly on disk.
  const std::string newest = store.GenerationPath(2);
  auto bytes = ReadFileBytes(newest);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[kSnapshotHeaderBytes + 3] ^= 0x10;
  std::FILE* f = std::fopen(newest.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes->data(), 1, bytes->size(), f), bytes->size());
  std::fclose(f);

  const auto loaded = store.Load(42);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(loaded->generations_skipped, 1u);
  EXPECT_EQ(loaded->payload, SamplePayload(10));
}

TEST(SnapshotStoreTest, AllGenerationsCorruptFailsWithError) {
  const std::string dir = TestDir("allbad");
  SnapshotStore store(dir + "/ck");
  ASSERT_FALSE(store.Save(42, SamplePayload(10)).has_value());
  // Type confusion counts as corruption: nothing validates under tag 43.
  std::string error;
  EXPECT_FALSE(store.Load(43, &error).has_value());
  EXPECT_NE(error.find("corrupt"), std::string::npos);
}

TEST(FaultInjectionTest, CommitCrashLeavesPreviousGenerationIntact) {
  const std::string dir = TestDir("commit_crash");
  FaultInjectingIo faults;
  faults.ArmCommitCrashAt(1);  // second Save's rename "crashes"
  SnapshotStore store(dir + "/ck", /*retain=*/3, faults.Hooks());
  ASSERT_FALSE(store.Save(42, SamplePayload(10)).has_value());
  EXPECT_TRUE(store.Save(42, SamplePayload(20)).has_value());

  // The crash left a stray temp file, not a published generation …
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{1}));
  EXPECT_TRUE(fs::exists(store.GenerationPath(2) + ".tmp"));
  // … and recovery finds the previous intact generation.
  const auto loaded = store.Load(42);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(loaded->payload, SamplePayload(10));
}

TEST(FaultInjectionTest, ShortWriteFailsSaveAndKeepsStoreUsable) {
  const std::string dir = TestDir("short_write");
  FaultInjectingIo faults;
  faults.ArmShortWriteAt(1);
  SnapshotStore store(dir + "/ck", /*retain=*/3, faults.Hooks());
  ASSERT_FALSE(store.Save(42, SamplePayload(10)).has_value());
  EXPECT_TRUE(store.Save(42, SamplePayload(20)).has_value());
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{1}));
  // The store keeps working after the fault passes.
  ASSERT_FALSE(store.Save(42, SamplePayload(30)).has_value());
  const auto loaded = store.Load(42);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, SamplePayload(30));
}

TEST(FaultInjectionTest, WriteErrorFailsSave) {
  const std::string dir = TestDir("write_error");
  FaultInjectingIo faults;
  faults.ArmWriteErrorAt(0);
  SnapshotStore store(dir + "/ck", /*retain=*/3, faults.Hooks());
  EXPECT_TRUE(store.Save(42, SamplePayload(10)).has_value());
  EXPECT_TRUE(store.ListGenerations().empty());
}

TEST(FaultInjectionTest, SyncErrorFailsSave) {
  const std::string dir = TestDir("sync_error");
  FaultInjectingIo faults;
  faults.ArmSyncErrorAt(0);
  SnapshotStore store(dir + "/ck", /*retain=*/3, faults.Hooks());
  EXPECT_TRUE(store.Save(42, SamplePayload(10)).has_value());
  EXPECT_TRUE(store.ListGenerations().empty());
}

TEST(FaultInjectionTest, OnMediaBitFlipCaughtAtLoadTime) {
  const std::string dir = TestDir("bit_rot");
  FaultInjectingIo faults;
  // Corrupt one payload byte of the second snapshot on its way to disk;
  // the write itself "succeeds", so Save cannot notice.
  faults.ArmBitFlip(/*index=*/1, /*byte_offset=*/kSnapshotHeaderBytes + 5,
                    /*bit=*/2);
  SnapshotStore store(dir + "/ck", /*retain=*/3, faults.Hooks());
  ASSERT_FALSE(store.Save(42, SamplePayload(10)).has_value());
  ASSERT_FALSE(store.Save(42, SamplePayload(20)).has_value());
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{1, 2}));

  const auto loaded = store.Load(42);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(loaded->generations_skipped, 1u);
  EXPECT_EQ(loaded->payload, SamplePayload(10));
}

TEST(FaultInjectionTest, SeededHeaderFlipScheduleAlwaysRecovers) {
  // A seeded schedule of random single-bit flips, one per save: whatever
  // the flip hits (magic, version, tag, length, CRC, payload), Load must
  // either return an intact older generation or fail cleanly — never
  // return corrupt bytes.
  Rng rng(7);
  for (int round = 0; round < 8; ++round) {
    const std::string dir =
        TestDir("seeded_" + std::to_string(round));
    FaultInjectingIo faults;
    const auto payload = SamplePayload(64);
    const size_t envelope_size = kSnapshotHeaderBytes + payload.size();
    faults.ArmBitFlip(1, rng.NextBounded(envelope_size),
                      static_cast<uint32_t>(rng.NextBounded(8)));
    SnapshotStore store(dir + "/ck", /*retain=*/3, faults.Hooks());
    ASSERT_FALSE(store.Save(42, payload).has_value());
    ASSERT_FALSE(store.Save(42, SamplePayload(64)).has_value());
    const auto loaded = store.Load(42);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->generation, 1u);
    EXPECT_EQ(loaded->payload, payload);
  }
}

}  // namespace
}  // namespace asketch
