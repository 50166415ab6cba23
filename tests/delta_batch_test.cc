// The owner law of the ingest path (src/core/delta_batch.h,
// ASketch::ApplyDelta): a DeltaBatch folded into an owner ASketch must
// behave like serial UpdateBatch over the same tuples under a stable
// head — estimates, stats and sketch cells — and stay one-sided under
// both head-drift races the advisory snapshot allows (eviction of a
// snapshot member, admission of a non-snapshot key). A cold filter
// learns the hot set from the misses alone.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/asketch.h"
#include "src/core/delta_batch.h"
#include "src/workload/exact_counter.h"
#include "src/workload/stream_generator.h"

namespace asketch {
namespace {

constexpr uint32_t kFilterItems = 16;
constexpr uint32_t kDomain = 4096;

ASketchConfig SmallConfig() {
  ASketchConfig config;
  config.total_bytes = 32 * 1024;
  config.width = 4;
  config.filter_items = kFilterItems;
  config.seed = 99;
  return config;
}

/// Fills the filter with keys [0, kFilterItems) at weights large enough
/// that no later tail estimate can win an exchange — the "stable head"
/// regime, where the head snapshot and the live filter agree for the
/// whole delta epoch.
template <typename SketchT>
void WarmHead(ASketch<RelaxedHeapFilter, SketchT>& sketch) {
  for (item_t key = 0; key < kFilterItems; ++key) {
    sketch.Update(key, 1 << 20);
  }
  ASSERT_TRUE(sketch.filter().Full());
}

/// A mixed workload: hot traffic on the head keys, a zipf tail on
/// [kFilterItems, kDomain).
std::vector<Tuple> MixedStream(uint64_t seed) {
  StreamSpec spec;
  spec.stream_size = 20000;
  spec.num_distinct = kDomain - kFilterItems;
  spec.skew = 1.1;
  spec.seed = seed;
  std::vector<Tuple> stream = GenerateStream(spec);
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i % 3 == 0) {
      stream[i] = Tuple{static_cast<item_t>(i % kFilterItems), 2};
    } else {
      stream[i].key += kFilterItems;
    }
  }
  return stream;
}

TEST(DeltaBatchTest, EmptyDeltaIsANoOp) {
  auto sketch = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  WarmHead(sketch);
  BinaryWriter before;
  ASSERT_TRUE(sketch.SerializeTo(before));
  DeltaBatch<CountMin> delta = sketch.MakeDeltaBatch();
  EXPECT_TRUE(delta.Empty());
  EXPECT_FALSE(sketch.ApplyDelta(delta).has_value());
  BinaryWriter after;
  ASSERT_TRUE(sketch.SerializeTo(after));
  EXPECT_EQ(before.buffer(), after.buffer());
}

TEST(DeltaBatchTest, SingleHeadKeyAggregatesExactly) {
  auto serial = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  auto merged = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  WarmHead(serial);
  WarmHead(merged);
  DeltaBatch<CountMin> delta = merged.MakeDeltaBatch();
  for (int i = 0; i < 1000; ++i) {
    serial.Update(3, 5);
    delta.Add(3, 5);
  }
  EXPECT_EQ(delta.weight(), 5000u);
  EXPECT_TRUE(delta.misses().empty());
  ASSERT_FALSE(merged.ApplyDelta(delta).has_value());
  EXPECT_EQ(merged.Estimate(3), serial.Estimate(3));
  EXPECT_EQ(merged.stats().filtered_weight, serial.stats().filtered_weight);
}

TEST(DeltaBatchTest, SingleTailKeyLandsInTheSketch) {
  auto serial = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  auto merged = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  WarmHead(serial);
  WarmHead(merged);
  DeltaBatch<CountMin> delta = merged.MakeDeltaBatch();
  const item_t key = kFilterItems + 7;
  serial.Update(key, 42);
  delta.Add(key, 42);
  ASSERT_EQ(delta.misses().size(), 1u);
  ASSERT_FALSE(merged.ApplyDelta(delta).has_value());
  EXPECT_EQ(merged.Estimate(key), serial.Estimate(key));
  EXPECT_EQ(merged.stats().sketch_weight, serial.stats().sketch_weight);
  EXPECT_EQ(merged.stats().sketch_updates, serial.stats().sketch_updates);
}

// A cold filter has an empty head snapshot, so every tuple is a miss;
// UpdateBatch's free-slot admission and exchanges fill the filter with
// the hot keys, each admitted with exact slack (new = W, old = 0).
TEST(DeltaBatchTest, ColdFilterLearnsHotKeysFromMisses) {
  auto serial = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  auto merged = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  const std::vector<Tuple> stream = MixedStream(19);
  serial.UpdateBatch(stream);
  DeltaBatch<CountMin> delta = merged.MakeDeltaBatch();
  for (const Tuple& t : stream) delta.Add(t.key, t.value);
  EXPECT_EQ(delta.misses().size(), stream.size());
  ASSERT_FALSE(merged.ApplyDelta(delta).has_value());
  ASSERT_TRUE(merged.filter().Full());
  EXPECT_GT(merged.stats().exchanges, 0u);
  BinaryWriter serial_bytes;
  BinaryWriter merged_bytes;
  ASSERT_TRUE(serial.SerializeTo(serial_bytes));
  ASSERT_TRUE(merged.SerializeTo(merged_bytes));
  EXPECT_EQ(merged_bytes.buffer(), serial_bytes.buffer());
}

// The equivalence bar, for both backends: with a stable head, applying
// a delta is indistinguishable from serial UpdateBatch — estimate for
// estimate over the whole domain, stat for stat, and byte for byte in
// the sketch cells.
template <typename SketchT, typename MakeFn>
void ExpectStableHeadMatchesSerial(MakeFn make) {
  auto serial = make(SmallConfig());
  auto merged = make(SmallConfig());
  WarmHead(serial);
  WarmHead(merged);
  const std::vector<Tuple> stream = MixedStream(17);
  serial.UpdateBatch(stream);
  DeltaBatch<SketchT> delta = merged.MakeDeltaBatch();
  for (const Tuple& t : stream) delta.Add(t.key, t.value);
  ASSERT_FALSE(merged.ApplyDelta(delta).has_value());

  EXPECT_EQ(serial.stats().exchanges, 0u) << "stable-head premise broken";
  EXPECT_EQ(merged.stats().exchanges, 0u);
  EXPECT_EQ(merged.stats().filtered_weight, serial.stats().filtered_weight);
  EXPECT_EQ(merged.stats().sketch_weight, serial.stats().sketch_weight);
  EXPECT_EQ(merged.stats().sketch_updates, serial.stats().sketch_updates);
  BinaryWriter serial_cells;
  BinaryWriter merged_cells;
  ASSERT_TRUE(serial.sketch().SerializeTo(serial_cells));
  ASSERT_TRUE(merged.sketch().SerializeTo(merged_cells));
  EXPECT_EQ(merged_cells.buffer(), serial_cells.buffer());
  for (item_t key = 0; key < kDomain; ++key) {
    ASSERT_EQ(merged.Estimate(key), serial.Estimate(key)) << "key " << key;
  }
}

TEST(DeltaBatchTest, StableHeadCountMinMatchesSerialApplyBitForBit) {
  ExpectStableHeadMatchesSerial<CountMin>(
      MakeASketchCountMin<RelaxedHeapFilter>);
}

TEST(DeltaBatchTest, StableHeadSalsaMatchesSerialApplyBitForBit) {
  ExpectStableHeadMatchesSerial<SalsaCountMin>(
      MakeASketchSalsa<RelaxedHeapFilter>);
}

// Head drift race 1: a key in the delta's head snapshot is evicted by
// an exchange before the delta lands. Its exact aggregate must re-enter
// through the normal miss path and stay one-sided.
TEST(DeltaBatchTest, EvictionDuringMergeStaysOneSided) {
  auto sketch = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  ExactCounter truth(kDomain);
  // Modest head counts, so later traffic CAN win exchanges.
  for (item_t key = 0; key < kFilterItems; ++key) {
    sketch.Update(key, 3);
    truth.Update(key, 3);
  }
  DeltaBatch<CountMin> delta = sketch.MakeDeltaBatch();
  delta.Add(2, 10);
  ASSERT_TRUE(delta.misses().empty()) << "key 2 should be a head key";
  truth.Update(2, 10);
  // Heavy traffic on fresh keys evicts (at least some of) the original
  // head while the delta is open.
  for (item_t key = kFilterItems; key < kFilterItems + 64; ++key) {
    for (int repeat = 0; repeat < 50; ++repeat) {
      sketch.Update(key, 1);
      truth.Update(key, 1);
    }
  }
  EXPECT_GT(sketch.stats().exchanges, 0u) << "eviction premise broken";
  ASSERT_FALSE(sketch.ApplyDelta(delta).has_value());
  for (item_t key = 0; key < kFilterItems + 64; ++key) {
    ASSERT_GE(static_cast<wide_count_t>(sketch.Estimate(key)),
              truth.Count(key))
        << "key " << key;
  }
}

// Head drift race 2: a key that was not in the snapshot becomes
// filter-resident before the delta lands. Its tuples wait in the miss
// list and meet the live filter inside UpdateBatch, so they join its
// exact counter instead of the sketch.
TEST(DeltaBatchTest, LateFilterAdmissionAbsorbsMissesExactly) {
  auto sketch = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  // Leave the filter with exactly one free slot, then open the delta.
  for (item_t key = 0; key + 1 < kFilterItems; ++key) {
    sketch.Update(key, 1 << 20);
  }
  ASSERT_FALSE(sketch.filter().Full());
  DeltaBatch<CountMin> delta = sketch.MakeDeltaBatch();
  const item_t late = 777;
  delta.Add(late, 25);
  ASSERT_EQ(delta.misses().size(), 1u);
  sketch.Update(late, 4);  // admitted to the free slot mid-delta
  ASSERT_GE(sketch.filter().Find(late), 0);
  ASSERT_FALSE(sketch.ApplyDelta(delta).has_value());
  const int32_t slot = sketch.filter().Find(late);
  ASSERT_GE(slot, 0);
  EXPECT_EQ(sketch.filter().NewCount(slot), 29u);
  EXPECT_EQ(sketch.filter().OldCount(slot), 0u);
  EXPECT_EQ(sketch.Estimate(late), 29u);
}

}  // namespace
}  // namespace asketch
