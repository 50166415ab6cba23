#include "src/sketch/misra_gries.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/workload/exact_counter.h"

namespace asketch {
namespace {

TEST(MisraGriesTest, InsertAndLookup) {
  MisraGries mg(4);
  mg.Update(10);
  mg.Update(10);
  mg.Update(20);
  EXPECT_TRUE(mg.Contains(10));
  EXPECT_EQ(mg.CountOf(10), 2u);
  EXPECT_EQ(mg.CountOf(20), 1u);
  EXPECT_FALSE(mg.Contains(30));
  EXPECT_EQ(mg.CountOf(30), 0u);
}

TEST(MisraGriesTest, DecrementOnOverflow) {
  MisraGries mg(2);
  mg.Update(1);
  mg.Update(1);
  mg.Update(2);
  // Summary full {1:2, 2:1}; a third key decrements everything and evicts
  // the zeroed key 2, then inserts key 3 with the residual weight 0... so
  // key 3 lands with no count only if its weight was fully absorbed.
  mg.Update(3);
  EXPECT_TRUE(mg.Contains(1));
  EXPECT_EQ(mg.CountOf(1), 1u);
  EXPECT_FALSE(mg.Contains(2));
}

TEST(MisraGriesTest, GuaranteesFrequentItemsAreMonitored) {
  // Any key with frequency > N/(k+1) must be monitored at the end.
  const uint32_t k = 9;
  MisraGries mg(k);
  ExactCounter truth(100);
  Rng rng(3);
  const uint64_t n = 10000;
  for (uint64_t i = 0; i < n; ++i) {
    // Keys 0 and 1 are hot (~30% each); the rest is uniform noise.
    item_t key;
    const uint64_t r = rng.NextBounded(10);
    if (r < 3) {
      key = 0;
    } else if (r < 6) {
      key = 1;
    } else {
      key = static_cast<item_t>(2 + rng.NextBounded(98));
    }
    mg.Update(key);
    truth.Update(key);
  }
  for (item_t key = 0; key < 100; ++key) {
    if (truth.Count(key) > n / (k + 1)) {
      EXPECT_TRUE(mg.Contains(key)) << "hot key " << key << " missing";
    }
  }
}

TEST(MisraGriesTest, CountNeverExceedsTruth) {
  MisraGries mg(8);
  ExactCounter truth(200);
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const item_t key = static_cast<item_t>(rng.NextBounded(200));
    mg.Update(key);
    truth.Update(key);
  }
  // MG counters are lower bounds on true frequency.
  for (item_t key = 0; key < 200; ++key) {
    EXPECT_LE(mg.CountOf(key), truth.Count(key));
  }
}

TEST(MisraGriesTest, CountErrorBoundedByNOverK) {
  const uint32_t k = 10;
  MisraGries mg(k);
  ExactCounter truth(50);
  Rng rng(29);
  const uint64_t n = 5000;
  for (uint64_t i = 0; i < n; ++i) {
    const item_t key = static_cast<item_t>(rng.NextBounded(50));
    mg.Update(key);
    truth.Update(key);
  }
  // truth - count <= N/(k+1) for monitored keys.
  for (item_t key = 0; key < 50; ++key) {
    if (!mg.Contains(key)) continue;
    EXPECT_LE(truth.Count(key) - mg.CountOf(key), n / (k + 1));
  }
}

TEST(MisraGriesTest, WeightedUpdates) {
  MisraGries mg(2);
  mg.Update(1, 100);
  mg.Update(2, 50);
  mg.Update(3, 60);  // decrements by 50, evicts 2, inserts 3 with 10
  EXPECT_TRUE(mg.Contains(1));
  EXPECT_EQ(mg.CountOf(1), 50u);
  EXPECT_FALSE(mg.Contains(2));
  EXPECT_TRUE(mg.Contains(3));
  EXPECT_EQ(mg.CountOf(3), 10u);
}

TEST(MisraGriesTest, WeightFullyAbsorbedLeavesKeyOut) {
  MisraGries mg(2);
  mg.Update(1, 100);
  mg.Update(2, 100);
  mg.Update(3, 40);  // all 40 absorbed by decrements; no eviction room
  EXPECT_FALSE(mg.Contains(3));
  EXPECT_EQ(mg.CountOf(1), 60u);
  EXPECT_EQ(mg.CountOf(2), 60u);
}

TEST(MisraGriesTest, CapacityOne) {
  MisraGries mg(1);
  mg.Update(1);
  mg.Update(1);
  mg.Update(2);  // decrement 1 to 1... then 2 absorbed
  EXPECT_TRUE(mg.Contains(1));
  EXPECT_EQ(mg.CountOf(1), 1u);
  mg.Update(2);  // 1 hits zero, evicted; 2 inserted? weight absorbed first
  // Either way the summary stays consistent:
  EXPECT_LE(mg.size(), 1u);
}

TEST(MisraGriesTest, ResetEmptiesSummary) {
  MisraGries mg(4);
  mg.Update(1);
  mg.Reset();
  EXPECT_EQ(mg.size(), 0u);
  EXPECT_FALSE(mg.Contains(1));
}

TEST(MisraGriesTest, MemoryAccounting) {
  MisraGries mg(32);
  EXPECT_EQ(mg.MemoryUsageBytes(), 32 * MisraGries::BytesPerItem());
  EXPECT_EQ(MisraGries::BytesPerItem(), 8u);
}

}  // namespace
}  // namespace asketch
