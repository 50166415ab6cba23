#include "src/core/asketch.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/sketch/holistic_udaf.h"
#include "src/workload/exact_counter.h"
#include "src/workload/stream_generator.h"

namespace asketch {
namespace {

// ---------------------------------------------------------------------------
// Algorithm-level tests against a transparent sketch double.
// ---------------------------------------------------------------------------

// A deterministic "sketch" with one private cell per key (no collisions):
// estimates are exact sums of what was pushed into it. This exposes
// Algorithm 1's control flow without hash noise.
class TransparentSketch {
 public:
  void Update(item_t key, delta_t delta) {
    counts_[key] = SaturatingAdd(counts_[key], delta);
    log_.push_back({key, delta});
  }
  count_t Estimate(item_t key) const {
    const auto it = counts_.find(key);
    return it == counts_.end() ? 0 : it->second;
  }
  size_t MemoryUsageBytes() const { return counts_.size() * 8; }
  void Reset() {
    counts_.clear();
    log_.clear();
  }
  std::string Name() const { return "Transparent"; }

  const std::vector<std::pair<item_t, delta_t>>& log() const { return log_; }

 private:
  std::map<item_t, count_t> counts_;
  std::vector<std::pair<item_t, delta_t>> log_;
};

static_assert(FrequencyEstimatorType<TransparentSketch>);

// Every concrete estimator, and ASketch itself, satisfies the concept.
static_assert(FrequencyEstimatorType<CountMin>);
static_assert(FrequencyEstimatorType<CountSketch>);
static_assert(FrequencyEstimatorType<Fcm>);
static_assert(FrequencyEstimatorType<HolisticUdaf>);
static_assert(FrequencyEstimatorType<ASketch<RelaxedHeapFilter, CountMin>>);
static_assert(FrequencyEstimatorType<ASketch<VectorFilter, Fcm>>);

using TestASketch = ASketch<VectorFilter, TransparentSketch>;

TestASketch MakeTestASketch(uint32_t filter_items) {
  return TestASketch(VectorFilter(filter_items), TransparentSketch());
}

TEST(ASketchAlgorithmTest, FilterAbsorbsUntilFull) {
  TestASketch as = MakeTestASketch(2);
  as.Update(1);
  as.Update(2);
  as.Update(1);
  // Nothing reached the sketch.
  EXPECT_TRUE(as.sketch().log().empty());
  EXPECT_EQ(as.Estimate(1), 2u);
  EXPECT_EQ(as.Estimate(2), 1u);
  EXPECT_EQ(as.stats().filtered_weight, 3u);
  EXPECT_EQ(as.stats().sketch_weight, 0u);
}

TEST(ASketchAlgorithmTest, MissOnFullFilterGoesToSketch) {
  TestASketch as = MakeTestASketch(2);
  as.Update(1, 10);
  as.Update(2, 10);
  as.Update(3, 1);  // estimate 1 <= min 10: no exchange
  ASSERT_EQ(as.sketch().log().size(), 1u);
  EXPECT_EQ(as.sketch().log()[0], (std::pair<item_t, delta_t>{3, 1}));
  EXPECT_EQ(as.stats().exchanges, 0u);
  EXPECT_EQ(as.Estimate(3), 1u);
}

TEST(ASketchAlgorithmTest, ExchangeMovesHotKeyIntoFilter) {
  TestASketch as = MakeTestASketch(2);
  as.Update(1, 10);
  as.Update(2, 3);
  // Key 3 arrives repeatedly; once its sketch estimate exceeds the filter
  // minimum (3), it must displace key 2.
  as.Update(3, 4);  // sketch: 3->4 ; 4 > 3 -> exchange
  EXPECT_EQ(as.stats().exchanges, 1u);
  // Key 2 had new=3, old=0: its 3 exact hits must be written back.
  ASSERT_EQ(as.sketch().log().size(), 2u);
  EXPECT_EQ(as.sketch().log()[1], (std::pair<item_t, delta_t>{2, 3}));
  // Key 3 now answers from the filter with the (over-)estimate 4.
  EXPECT_GE(as.filter().Find(3), 0);
  EXPECT_EQ(as.Estimate(3), 4u);
  // Key 2 now answers from the sketch: exactly its 3 hits.
  EXPECT_EQ(as.Estimate(2), 3u);
}

TEST(ASketchAlgorithmTest, ExchangedKeyCountsExactlyFromThenOn) {
  TestASketch as = MakeTestASketch(1);
  as.Update(1, 5);
  as.Update(2, 6);  // sketch 2->6 > 5 -> exchange; 1's 5 hits -> sketch
  as.Update(2, 7);  // filter hit: new=13, old=6
  EXPECT_EQ(as.Estimate(2), 13u);
  // Evict 2 by making another key hotter; only 13-6=7 goes back.
  as.Update(3, 100);
  const auto& log = as.sketch().log();
  // log: (2,6) initial, (1,5) writeback, (3,100), (2,7) writeback.
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[3], (std::pair<item_t, delta_t>{2, 7}));
  EXPECT_EQ(as.Estimate(2), 13u);  // 6 + 7 in the sketch, still exact
}

TEST(ASketchAlgorithmTest, ZeroDeltaWritebackIsSuppressed) {
  TestASketch as = MakeTestASketch(1);
  as.Update(1, 5);
  as.Update(2, 6);  // exchange #1; writeback (1,5)
  as.Update(1, 7);  // sketch 1 -> 12 > 6 -> exchange #2; 2 has new==old
  EXPECT_EQ(as.stats().exchanges, 2u);
  EXPECT_EQ(as.stats().exchange_writebacks, 1u);
  const auto& log = as.sketch().log();
  // (2,6), (1,5) writeback, (1,7) update — and no (2,0) writeback.
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[2], (std::pair<item_t, delta_t>{1, 7}));
}

TEST(ASketchAlgorithmTest, AtMostOneExchangePerSketchInsertion) {
  TestASketch as = MakeTestASketch(3);
  as.Update(1, 2);
  as.Update(2, 3);
  as.Update(3, 4);
  as.Update(4, 100);  // one exchange, even though 100 > all remaining mins
  EXPECT_EQ(as.stats().exchanges, 1u);
  EXPECT_GE(as.filter().Find(4), 0);
  EXPECT_EQ(as.filter().Find(1), -1);  // the minimum was evicted
  EXPECT_GE(as.filter().Find(2), 0);   // the others stayed
  EXPECT_GE(as.filter().Find(3), 0);
}

// The worked example of Figure 4 (performed on a real Count-Min so the
// cell arithmetic matches the paper's semantics; the concrete hash layout
// differs, but every invariant of the example is checked).
TEST(ASketchAlgorithmTest, Figure4Example) {
  // Filter holds A(new=8, old=2) and B(new=10, old=1); sketch holds what
  // it holds; C arrives with weight 1 and estimate > 8.
  TestASketch primed = MakeTestASketch(2);
  primed.filter().Insert(/*A=*/65, 8, 2);
  primed.filter().Insert(/*B=*/66, 10, 1);
  primed.sketch().Update(/*C=*/67, 8);  // C already has 8 in the sketch
  const size_t log_before = primed.sketch().log().size();

  primed.Update(67, 1);  // (C, 1) arrives

  // C's estimate after update was 9 > min(8) -> exchange happened.
  EXPECT_EQ(primed.stats().exchanges, 1u);
  // C is in the filter with new = old = 9 (nothing removed from sketch).
  const int32_t c_slot = primed.filter().Find(67);
  ASSERT_GE(c_slot, 0);
  EXPECT_EQ(primed.filter().NewCount(c_slot), 9u);
  EXPECT_EQ(primed.filter().OldCount(c_slot), 9u);
  // A was evicted and only its (new-old) = 6 was inserted into the sketch.
  EXPECT_EQ(primed.filter().Find(65), -1);
  const auto& log = primed.sketch().log();
  ASSERT_EQ(log.size(), log_before + 2);  // (C,1) then (A,6)
  EXPECT_EQ(log[log_before], (std::pair<item_t, delta_t>{67, 1}));
  EXPECT_EQ(log[log_before + 1], (std::pair<item_t, delta_t>{65, 6}));
  // B is untouched.
  const int32_t b_slot = primed.filter().Find(66);
  ASSERT_GE(b_slot, 0);
  EXPECT_EQ(primed.filter().NewCount(b_slot), 10u);
  EXPECT_EQ(primed.filter().OldCount(b_slot), 1u);
  // Although A's estimate (10 via its exact cell) now exceeds the filter
  // minimum (9 for C), no second exchange was initiated.
  EXPECT_EQ(primed.stats().exchanges, 1u);
}

// ---------------------------------------------------------------------------
// Property tests on real backends, parameterized over the filter designs.
// ---------------------------------------------------------------------------

template <typename T>
class ASketchFilterTest : public ::testing::Test {};

using AllFilters = ::testing::Types<VectorFilter, StrictHeapFilter,
                                    RelaxedHeapFilter, StreamSummaryFilter>;
TYPED_TEST_SUITE(ASketchFilterTest, AllFilters);

ASketchConfig TestConfig() {
  ASketchConfig config;
  config.total_bytes = 16 * 1024;
  config.width = 4;
  config.filter_items = 16;
  config.seed = 11;
  return config;
}

TYPED_TEST(ASketchFilterTest, NeverUnderestimatesOnStrictStreams) {
  auto as = MakeASketchCountMin<TypeParam>(TestConfig());
  ExactCounter truth(5000);
  StreamSpec spec;
  spec.stream_size = 100000;
  spec.num_distinct = 5000;
  spec.skew = 1.2;
  spec.seed = 23;
  for (const Tuple& t : GenerateStream(spec)) {
    as.Update(t.key, t.value);
    truth.Update(t.key, t.value);
  }
  for (item_t key = 0; key < 5000; ++key) {
    ASSERT_GE(as.Estimate(key), truth.Count(key)) << "key " << key;
  }
}

TYPED_TEST(ASketchFilterTest, SketchInsertionsNeverExceedStreamWeight) {
  // Aggregate form of Lemma 1: total count pushed into the sketch
  // (updates + writebacks) never exceeds the total stream weight.
  auto as = MakeASketchCountMin<TypeParam>(TestConfig());
  StreamSpec spec;
  spec.stream_size = 50000;
  spec.num_distinct = 2000;
  spec.skew = 0.5;
  spec.seed = 31;
  wide_count_t total = 0;
  for (const Tuple& t : GenerateStream(spec)) {
    as.Update(t.key, t.value);
    total += t.value;
  }
  wide_count_t sketch_row_sum = as.sketch().RowSum(0);
  EXPECT_LE(sketch_row_sum, total);
}

TYPED_TEST(ASketchFilterTest, HighSkewKeepsHotKeysExact) {
  auto as = MakeASketchCountMin<TypeParam>(TestConfig());
  ExactCounter truth(100000);
  StreamSpec spec;
  spec.stream_size = 200000;
  spec.num_distinct = 100000;
  spec.skew = 2.0;
  spec.seed = 41;
  std::vector<wide_count_t> counts;
  ZipfStreamGenerator gen(spec);
  for (uint64_t i = 0; i < spec.stream_size; ++i) {
    const Tuple t = gen.Next();
    as.Update(t.key, t.value);
    truth.Update(t.key, t.value);
  }
  // With skew 2.0 the top handful of keys dominates; the very hottest key
  // must sit in the filter with an exact (or near-exact) count.
  const item_t hottest = gen.RankToKey(1);
  EXPECT_GE(as.filter().Find(hottest), 0);
  // Exact if the key entered the filter through a free slot (the common
  // case); at worst it carries the small over-estimate of one exchange.
  EXPECT_GE(as.Estimate(hottest), truth.Count(hottest));
  EXPECT_LE(as.Estimate(hottest),
            truth.Count(hottest) + truth.Total() / 100);
}

TYPED_TEST(ASketchFilterTest, SelectivityDropsAsSkewRises) {
  double previous = 1.1;
  for (const double skew : {0.0, 1.0, 2.0}) {
    auto as = MakeASketchCountMin<TypeParam>(TestConfig());
    StreamSpec spec;
    spec.stream_size = 50000;
    spec.num_distinct = 20000;
    spec.skew = skew;
    spec.seed = 53;
    for (const Tuple& t : GenerateStream(spec)) {
      as.Update(t.key, t.value);
    }
    const double selectivity = as.stats().FilterSelectivity();
    EXPECT_LT(selectivity, previous) << "skew " << skew;
    previous = selectivity;
  }
}

TYPED_TEST(ASketchFilterTest, TopKReportsFilterContentsSortedDescending) {
  auto as = MakeASketchCountMin<TypeParam>(TestConfig());
  StreamSpec spec;
  spec.stream_size = 50000;
  spec.num_distinct = 1000;
  spec.skew = 1.5;
  spec.seed = 61;
  for (const Tuple& t : GenerateStream(spec)) {
    as.Update(t.key, t.value);
  }
  const auto top = as.TopK();
  EXPECT_EQ(top.size(), as.filter().size());
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].new_count, top[i].new_count);
  }
}

TYPED_TEST(ASketchFilterTest, ResetRestoresPristineState) {
  auto as = MakeASketchCountMin<TypeParam>(TestConfig());
  for (int i = 0; i < 1000; ++i) {
    as.Update(static_cast<item_t>(i % 37));
  }
  as.Reset();
  EXPECT_EQ(as.Estimate(1), 0u);
  EXPECT_EQ(as.stats().exchanges, 0u);
  EXPECT_EQ(as.stats().filtered_weight, 0u);
  EXPECT_EQ(as.TopK().size(), 0u);
}

// ---------------------------------------------------------------------------
// Space accounting and the h' = h - s_f/w identity.
// ---------------------------------------------------------------------------

TEST(ASketchSpaceTest, TotalBudgetIsPreserved) {
  ASketchConfig config;
  config.total_bytes = 128 * 1024;
  config.width = 8;
  config.filter_items = 32;
  auto as = MakeASketchCountMin<RelaxedHeapFilter>(config);
  EXPECT_LE(as.MemoryUsageBytes(), config.total_bytes);
  EXPECT_GT(as.MemoryUsageBytes(), config.total_bytes - 64);
  // Same total as the plain 128KB Count-Min it is compared against.
  const CountMin plain(CountMinConfig::FromSpaceBudget(128 * 1024, 8));
  EXPECT_LE(as.MemoryUsageBytes(), plain.MemoryUsageBytes());
}

TEST(ASketchSpaceTest, DepthShrinksToPayForFilter) {
  ASketchConfig config;
  config.total_bytes = 128 * 1024;
  config.width = 8;
  config.filter_items = 32;
  auto as = MakeASketchCountMin<RelaxedHeapFilter>(config);
  const CountMin plain(CountMinConfig::FromSpaceBudget(128 * 1024, 8));
  EXPECT_EQ(as.sketch().width(), plain.width());  // w' = w
  EXPECT_LT(as.sketch().depth(), plain.depth());  // h' < h
  // h' = h - s_f / (w * cell) = 4096 - 384/32 = 4084 — the value the
  // paper's appendix quotes for this configuration.
  EXPECT_EQ(as.sketch().depth(), 4084u);
}

TEST(ASketchSpaceTest, SketchEstimateIsUsedForUnfilteredKeys) {
  ASketchConfig config = TestConfig();
  auto as = MakeASketchCountMin<RelaxedHeapFilter>(config);
  // Fill the filter with hot keys, then query a cold key.
  for (int round = 0; round < 100; ++round) {
    for (item_t key = 0; key < 20; ++key) as.Update(key);
  }
  as.Update(999);
  EXPECT_GE(as.Estimate(999), 1u);
}

TEST(ASketchSpaceTest, NameDescribesComposition) {
  auto as = MakeASketchCountMin<RelaxedHeapFilter>(TestConfig());
  EXPECT_EQ(as.Name(), "ASketch<Relaxed-Heap,CountMin>");
}

}  // namespace
}  // namespace asketch
