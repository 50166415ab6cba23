// The owner law of the ingest path (src/core/delta_batch.h,
// ASketch::ApplyDelta): a DeltaBatch folded into an owner ASketch must
// behave like serial UpdateBatch over the same tuples under a stable
// head — estimates, stats and sketch cells — and stay one-sided under
// both head-drift races the advisory snapshot allows (eviction of a
// snapshot member, admission of a non-snapshot key). A cold filter
// learns the hot set from the misses alone. The known-miss block path
// (ApplyDelta on a full, unchanged head) must leave the state the walk
// leaves, byte for byte, and every case it must not
// take or must leave early is pinned.

#include <cstdint>
#include <span>
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

// A head total whose key was evicted before the delta lands is one
// sketch insertion carrying the whole total: the key's estimate covers
// its exact count and exceeds it by at most collision noise, far below
// the total a second insertion would add, and the weight ledger still
// equals the true mass.
TEST(DeltaBatchTest, EvictedHeadTotalTakesOneWholeMiss) {
  auto sketch = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  ExactCounter truth(kDomain);
  for (item_t key = 0; key < kFilterItems; ++key) {
    sketch.Update(key, 3);
    truth.Update(key, 3);
  }
  constexpr uint64_t kHeadTotal = 1000;
  DeltaBatch<CountMin> delta = sketch.MakeDeltaBatch();
  for (item_t key = 0; key < kFilterItems; ++key) {
    for (uint64_t i = 0; i < kHeadTotal / 4; ++i) delta.Add(key, 4);
    truth.Update(key, kHeadTotal);
  }
  ASSERT_TRUE(delta.misses().empty()) << "every key should be a head key";
  // Heavy fresh keys take over the filter while the delta is open.
  for (item_t key = kFilterItems; key < 3 * kFilterItems; ++key) {
    sketch.Update(key, 200);
    truth.Update(key, 200);
  }
  std::vector<item_t> evicted;
  for (item_t key = 0; key < kFilterItems; ++key) {
    if (sketch.filter().Find(key) < 0) evicted.push_back(key);
  }
  ASSERT_GE(evicted.size(), kFilterItems / 2) << "eviction premise broken";

  const ASketchStats before = sketch.stats();
  ASSERT_FALSE(sketch.ApplyDelta(delta).has_value());
  const ASketchStats& after = sketch.stats();
  // One insertion per evicted total, plus the writeback of each
  // exchange those insertions win.
  EXPECT_EQ(after.sketch_updates - before.sketch_updates,
            evicted.size() +
                (after.exchange_writebacks - before.exchange_writebacks));
  for (item_t key : evicted) {
    const wide_count_t exact = truth.Count(key);
    const wide_count_t estimate = sketch.Estimate(key);
    EXPECT_GE(estimate, exact) << "key " << key;
    EXPECT_LE(estimate, exact + kHeadTotal / 2) << "key " << key;
  }
  EXPECT_EQ(after.filtered_weight + after.sketch_weight, truth.Total());
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

// ---------------------------------------------------------------------
// Known-miss block path. The reference is ApplyDelta's walk spelled
// with public calls: each head total through Update (a resident key
// aggregates, an evicted one takes the miss path; that is exactly
// ApplyDelta's first step), then the misses through
// UpdateBatch. Both owners start equal, so each delta's head snapshot
// holds for both.

using Owner = ASketch<RelaxedHeapFilter, CountMin>;

void ApplyByWalk(Owner& owner, const ShardDelta& delta) {
  delta.ForEachHead([&](item_t key, uint64_t weight) {
    owner.Update(key, static_cast<delta_t>(weight));
  });
  owner.UpdateBatch(delta.misses());
}

/// Feeds `stream` in `delta_tuples`-tuple deltas: to `block` through
/// ApplyDelta, to `walk` through ApplyByWalk. Returns the sketch
/// insertions `block` took through the block path.
uint64_t FeedBoth(Owner& block, Owner& walk, std::span<const Tuple> stream,
                  size_t delta_tuples = 2048) {
  const uint64_t before = block.stats().block_updates;
  for (size_t begin = 0; begin < stream.size(); begin += delta_tuples) {
    const size_t end = std::min(stream.size(), begin + delta_tuples);
    ShardDelta delta = block.MakeDeltaBatch();
    for (size_t i = begin; i < end; ++i) {
      delta.Add(stream[i].key, stream[i].value);
    }
    ApplyByWalk(walk, delta);
    EXPECT_FALSE(block.ApplyDelta(delta).has_value());
  }
  return block.stats().block_updates - before;
}

/// Serialized filter, sketch and stats must match.
void ExpectSameState(const Owner& block, const Owner& walk) {
  BinaryWriter block_bytes;
  BinaryWriter walk_bytes;
  ASSERT_TRUE(block.SerializeTo(block_bytes));
  ASSERT_TRUE(walk.SerializeTo(walk_bytes));
  EXPECT_EQ(block_bytes.buffer(), walk_bytes.buffer());
}

ASketchConfig BlockConfig(uint32_t width) {
  ASketchConfig config;
  config.total_bytes = 64 * 1024;
  config.width = width;
  config.filter_items = 32;
  config.seed = 5;
  return config;
}

/// A Zipf stream with mixed weights: mostly 1-13, some zeros, and a few
/// at or above 2^31 so cells and filter counters saturate.
std::vector<Tuple> MixedWeightStream(double skew, uint64_t seed) {
  StreamSpec spec;
  spec.stream_size = 60000;
  spec.num_distinct = 1u << 16;
  spec.skew = skew;
  spec.seed = seed;
  std::vector<Tuple> stream = GenerateStream(spec);
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].value = 1 + static_cast<count_t>(i * 7919 % 13);
    if (i % 97 == 0) stream[i].value = 0;
    if (i % 20011 == 5) {
      stream[i].value = 0x80000000u + static_cast<count_t>(i);
    }
  }
  return stream;
}

TEST(DeltaBatchBlockPathTest, MatchesWalkAcrossSkewsWeightsAndWidths) {
  for (const double skew : {0.0, 0.8, 1.1, 1.5}) {
    for (const uint32_t width : {4u, 8u, 20u}) {
      SCOPED_TRACE(testing::Message() << "skew " << skew << " width "
                                      << width);
      Owner block = MakeASketchCountMin<RelaxedHeapFilter>(BlockConfig(width));
      Owner walk = MakeASketchCountMin<RelaxedHeapFilter>(BlockConfig(width));
      const uint64_t blocked =
          FeedBoth(block, walk, MixedWeightStream(skew, 31));
      ExpectSameState(block, walk);
      if (CountMin::kBlockKernel && width <= CountMin::kBlockMaxWidth &&
          skew > 0.0) {
        EXPECT_GT(blocked, 0u) << "the block path never ran";
      }
      if (width > CountMin::kBlockMaxWidth) {
        EXPECT_EQ(blocked, 0u);
      }
    }
  }
}

// Free filter slots: a miss may be admitted, so the misses are not
// known misses even though the head matches the snapshot.
TEST(DeltaBatchBlockPathTest, FilterNotFullTakesTheWalk) {
  Owner block = MakeASketchCountMin<RelaxedHeapFilter>(BlockConfig(8));
  Owner walk = MakeASketchCountMin<RelaxedHeapFilter>(BlockConfig(8));
  for (item_t key = 0; key < 5; ++key) {
    block.Update(key, 1 << 20);
    walk.Update(key, 1 << 20);
  }
  std::vector<Tuple> misses;
  for (item_t key = 100; key < 2100; ++key) misses.push_back(Tuple{key, 1});
  EXPECT_EQ(FeedBoth(block, walk, misses, misses.size()), 0u);
  EXPECT_TRUE(block.filter().Full());
  ExpectSameState(block, walk);
}

// An exchange after the delta opened admits one of its miss keys: those
// tuples are filter hits now, so the stale snapshot must send the
// misses through the walk.
TEST(DeltaBatchBlockPathTest, StaleSnapshotTakesTheWalk) {
  Owner block = MakeASketchCountMin<RelaxedHeapFilter>(BlockConfig(8));
  Owner walk = MakeASketchCountMin<RelaxedHeapFilter>(BlockConfig(8));
  for (Owner* owner : {&block, &walk}) {
    for (item_t key = 0; key < 32; ++key) owner->Update(key, 3);
  }
  const item_t late = 5000;
  ShardDelta delta = block.MakeDeltaBatch();
  for (item_t key = 100; key < 2100; ++key) {
    delta.Add(key, 1);
    delta.Add(late, 2);
  }
  for (Owner* owner : {&block, &walk}) owner->Update(late, 100);
  ASSERT_GE(block.filter().Find(late), 0) << "exchange premise broken";
  ApplyByWalk(walk, delta);
  ASSERT_FALSE(block.ApplyDelta(delta).has_value());
  EXPECT_EQ(block.stats().block_updates, 0u);
  ExpectSameState(block, walk);
  EXPECT_EQ(block.Estimate(late), walk.Estimate(late));
}

// The last free slot is taken after the delta opened: the filter is
// full, the admitted key's tuples wait among the misses, and its empty
// sketch cells would pass any block bound. Only the membership check
// stands between those tuples and the sketch.
TEST(DeltaBatchBlockPathTest, LateFreeSlotAdmissionTakesTheWalk) {
  Owner block = MakeASketchCountMin<RelaxedHeapFilter>(BlockConfig(8));
  Owner walk = MakeASketchCountMin<RelaxedHeapFilter>(BlockConfig(8));
  for (Owner* owner : {&block, &walk}) {
    for (item_t key = 0; key < 31; ++key) owner->Update(key, 1 << 20);
  }
  const item_t late = 5000;
  ShardDelta delta = block.MakeDeltaBatch();
  for (item_t key = 100; key < 2100; ++key) delta.Add(key, 1);
  delta.Add(late, 1);
  for (Owner* owner : {&block, &walk}) owner->Update(late, 4);
  ASSERT_TRUE(block.filter().Full());
  ApplyByWalk(walk, delta);
  ASSERT_FALSE(block.ApplyDelta(delta).has_value());
  EXPECT_EQ(block.stats().block_updates, 0u);
  ExpectSameState(block, walk);
  EXPECT_EQ(block.Estimate(late), 5u);
}

// A tail key heats up mid-delta: blocks run until one could reach the
// filter minimum, and the rest of the misses take the walk, which makes
// the exchange where Algorithm 1 makes it.
TEST(DeltaBatchBlockPathTest, BoundFailureMidDeltaHandsTheRestToTheWalk) {
  Owner block = MakeASketchCountMin<RelaxedHeapFilter>(BlockConfig(8));
  Owner walk = MakeASketchCountMin<RelaxedHeapFilter>(BlockConfig(8));
  for (Owner* owner : {&block, &walk}) {
    for (item_t key = 0; key < 32; ++key) owner->Update(key, 500);
  }
  std::vector<Tuple> misses;
  for (item_t i = 0; i < 2048; ++i) {
    const bool hot = i >= 1000 && i < 1200 && i % 2 == 0;
    misses.push_back(hot ? Tuple{7777, 50} : Tuple{100 + i, 1});
  }
  const uint64_t blocked = FeedBoth(block, walk, misses, misses.size());
  EXPECT_GT(block.stats().exchanges, 0u) << "exchange premise broken";
  EXPECT_GE(block.filter().Find(7777), 0);
  if (CountMin::kBlockKernel) {
    EXPECT_GT(blocked, 0u);
    EXPECT_LT(blocked, misses.size());
  }
  ExpectSameState(block, walk);
}

// With exchanges off nothing can leave or enter a full filter: the
// bound is unbounded and every miss takes the block path.
TEST(DeltaBatchBlockPathTest, ExchangesDisabledAppliesEveryMissAsBlocks) {
  const CountMinConfig sketch_config =
      CountMinConfig::FromSpaceBudget(48 * 1024, 8, 5);
  Owner block(RelaxedHeapFilter(32), CountMin(sketch_config),
              /*enable_exchanges=*/false);
  Owner walk(RelaxedHeapFilter(32), CountMin(sketch_config),
             /*enable_exchanges=*/false);
  for (Owner* owner : {&block, &walk}) {
    for (item_t key = 0; key < 32; ++key) owner->Update(key, 1);
  }
  const uint64_t updates_before = block.stats().sketch_updates;
  const uint64_t blocked =
      FeedBoth(block, walk, MixedWeightStream(0.8, 9));
  const uint64_t updates = block.stats().sketch_updates - updates_before;
  EXPECT_GT(updates, 0u);
  EXPECT_EQ(blocked, CountMin::kBlockKernel ? updates : 0u);
  ExpectSameState(block, walk);
}

}  // namespace
}  // namespace asketch
