#include "src/workload/exact_counter.h"

#include <gtest/gtest.h>

namespace asketch {
namespace {

TEST(ExactCounterTest, CountsUpdates) {
  ExactCounter counter(10);
  counter.Update(3, 5);
  counter.Update(3, 2);
  counter.Update(7);
  EXPECT_EQ(counter.Count(3), 7u);
  EXPECT_EQ(counter.Count(7), 1u);
  EXPECT_EQ(counter.Count(0), 0u);
  EXPECT_EQ(counter.Total(), 8u);
}

TEST(ExactCounterTest, DeletionsSubtract) {
  ExactCounter counter(10);
  counter.Update(1, 5);
  counter.Update(1, -3);
  EXPECT_EQ(counter.Count(1), 2u);
  EXPECT_EQ(counter.Total(), 2u);
}

TEST(ExactCounterTest, NegativeCountAborts) {
  ExactCounter counter(10);
  counter.Update(1, 2);
  EXPECT_DEATH(counter.Update(1, -3), "next >= 0");
}

TEST(ExactCounterTest, OutOfDomainAborts) {
  ExactCounter counter(10);
  EXPECT_DEATH(counter.Update(10), "key");
}

TEST(ExactCounterTest, KeysByFrequencySortsDescending) {
  ExactCounter counter(5);
  counter.Update(0, 3);
  counter.Update(1, 9);
  counter.Update(2, 1);
  counter.Update(3, 9);
  const auto keys = counter.KeysByFrequency();
  ASSERT_EQ(keys.size(), 5u);
  EXPECT_EQ(keys[0], 1u);  // tie 9/9 broken by key
  EXPECT_EQ(keys[1], 3u);
  EXPECT_EQ(keys[2], 0u);
  EXPECT_EQ(keys[3], 2u);
  EXPECT_EQ(keys[4], 4u);  // zero-count key last
}

TEST(ExactCounterTest, CountOfRank) {
  ExactCounter counter(5);
  counter.Update(0, 3);
  counter.Update(1, 9);
  counter.Update(2, 1);
  EXPECT_EQ(counter.CountOfRank(1), 9u);
  EXPECT_EQ(counter.CountOfRank(2), 3u);
  EXPECT_EQ(counter.CountOfRank(3), 1u);
  EXPECT_EQ(counter.CountOfRank(4), 0u);
  EXPECT_EQ(counter.CountOfRank(0), 0u);
  EXPECT_EQ(counter.CountOfRank(99), 0u);
}

}  // namespace
}  // namespace asketch
