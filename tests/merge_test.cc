// Merge semantics: distributed agents each summarize a partition and the
// summaries are merged; the result must answer queries over the union
// stream with the usual guarantees. CountMin and ASketch over CountMin
// are the mergeable summaries (asketch_cli merge, bench_ext_distributed).

#include <vector>

#include <gtest/gtest.h>

#include "src/core/asketch.h"
#include "src/workload/exact_counter.h"
#include "src/workload/stream_generator.h"

namespace asketch {
namespace {

struct SplitStream {
  std::vector<Tuple> first;
  std::vector<Tuple> second;
  ExactCounter truth;
};

SplitStream MakeSplit(double skew, uint64_t n = 100000,
                      uint32_t m = 5000) {
  StreamSpec spec;
  spec.stream_size = n;
  spec.num_distinct = m;
  spec.skew = skew;
  spec.seed = 55;
  SplitStream split{{}, {}, ExactCounter(m)};
  const std::vector<Tuple> stream = GenerateStream(spec);
  for (size_t i = 0; i < stream.size(); ++i) {
    split.truth.Update(stream[i].key, stream[i].value);
    (i % 2 == 0 ? split.first : split.second).push_back(stream[i]);
  }
  return split;
}

TEST(CountMinMergeTest, MergedEqualsSingleStreamSketch) {
  const SplitStream split = MakeSplit(1.2);
  const CountMinConfig config = CountMinConfig::FromSpaceBudget(
      16 * 1024, 4, 9);
  CountMin a(config), b(config), whole(config);
  for (const Tuple& t : split.first) {
    a.Update(t.key, t.value);
    whole.Update(t.key, t.value);
  }
  for (const Tuple& t : split.second) {
    b.Update(t.key, t.value);
    whole.Update(t.key, t.value);
  }
  ASSERT_FALSE(a.MergeFrom(b).has_value());
  for (item_t key = 0; key < 5000; ++key) {
    ASSERT_EQ(a.Estimate(key), whole.Estimate(key)) << "key " << key;
  }
}

TEST(CountMinMergeTest, RejectsIncompatibleConfigs) {
  CountMin a(CountMinConfig::FromSpaceBudget(16 * 1024, 4, 9));
  CountMin b(CountMinConfig::FromSpaceBudget(16 * 1024, 4, 10));  // seed
  EXPECT_TRUE(a.MergeFrom(b).has_value());
  CountMin c(CountMinConfig::FromSpaceBudget(8 * 1024, 4, 9));  // depth
  EXPECT_TRUE(a.MergeFrom(c).has_value());
}

using AllFilters = ::testing::Types<VectorFilter, StrictHeapFilter,
                                    RelaxedHeapFilter, StreamSummaryFilter>;

template <typename T>
class ASketchMergeTest : public ::testing::Test {};
TYPED_TEST_SUITE(ASketchMergeTest, AllFilters);

ASketchConfig MergeConfig() {
  ASketchConfig config;
  config.total_bytes = 16 * 1024;
  config.width = 4;
  config.filter_items = 16;
  config.seed = 21;
  return config;
}

TYPED_TEST(ASketchMergeTest, MergedEstimatesAreOneSidedOverTheUnion) {
  const SplitStream split = MakeSplit(1.3);
  auto a = MakeASketchCountMin<TypeParam>(MergeConfig());
  auto b = MakeASketchCountMin<TypeParam>(MergeConfig());
  for (const Tuple& t : split.first) a.Update(t.key, t.value);
  for (const Tuple& t : split.second) b.Update(t.key, t.value);
  ASSERT_FALSE(a.MergeFrom(b).has_value());
  for (item_t key = 0; key < 5000; ++key) {
    ASSERT_GE(a.Estimate(key), split.truth.Count(key)) << "key " << key;
  }
}

TYPED_TEST(ASketchMergeTest, MergedHotKeysStayTight) {
  const SplitStream split = MakeSplit(1.8, 200000, 20000);
  auto a = MakeASketchCountMin<TypeParam>(MergeConfig());
  auto b = MakeASketchCountMin<TypeParam>(MergeConfig());
  for (const Tuple& t : split.first) a.Update(t.key, t.value);
  for (const Tuple& t : split.second) b.Update(t.key, t.value);
  ASSERT_FALSE(a.MergeFrom(b).has_value());
  // The hottest key's merged estimate must be within the combined
  // sketch noise (each side's estimate was near-exact).
  item_t hottest = 0;
  for (item_t key = 1; key < 20000; ++key) {
    if (split.truth.Count(key) > split.truth.Count(hottest)) {
      hottest = key;
    }
  }
  const double est = static_cast<double>(a.Estimate(hottest));
  const double t = static_cast<double>(split.truth.Count(hottest));
  EXPECT_GE(est, t);
  EXPECT_LE(est, t * 1.1 + 2.0 * split.truth.Total() / 1000);
}

TYPED_TEST(ASketchMergeTest, MergeKeepsMassAccounting) {
  // Each half of the merged weight split is the sum of the inputs'
  // halves: step 2 re-applies filter-era mass that b's filtered weight
  // already counts, and must not book it again.
  const SplitStream split = MakeSplit(1.3);
  auto a = MakeASketchCountMin<TypeParam>(MergeConfig());
  auto b = MakeASketchCountMin<TypeParam>(MergeConfig());
  for (const Tuple& t : split.first) a.Update(t.key, t.value);
  for (const Tuple& t : split.second) b.Update(t.key, t.value);
  const ASketchStats sa = a.stats();
  const ASketchStats sb = b.stats();
  ASSERT_GT(sb.filtered_weight, 0u);
  ASSERT_GT(sb.sketch_weight, 0u);
  ASSERT_FALSE(a.MergeFrom(b).has_value());
  EXPECT_EQ(a.stats().filtered_weight,
            sa.filtered_weight + sb.filtered_weight);
  EXPECT_EQ(a.stats().sketch_weight, sa.sketch_weight + sb.sketch_weight);
  EXPECT_EQ(a.stats().filtered_weight + a.stats().sketch_weight,
            split.truth.Total());
}

TYPED_TEST(ASketchMergeTest, MergeRejectsMismatchedConfigs) {
  auto a = MakeASketchCountMin<TypeParam>(MergeConfig());
  ASketchConfig other_config = MergeConfig();
  other_config.filter_items = 8;
  auto b = MakeASketchCountMin<TypeParam>(other_config);
  EXPECT_TRUE(a.MergeFrom(b).has_value());
  ASketchConfig third = MergeConfig();
  third.seed = 99;
  auto c = MakeASketchCountMin<TypeParam>(third);
  EXPECT_TRUE(a.MergeFrom(c).has_value());
}

TEST(ASketchMergeTest2, MergeIntoEmptyAndFromEmpty) {
  const SplitStream split = MakeSplit(1.2, 20000, 1000);
  auto a = MakeASketchCountMin<RelaxedHeapFilter>(MergeConfig());
  auto empty = MakeASketchCountMin<RelaxedHeapFilter>(MergeConfig());
  for (const Tuple& t : split.first) a.Update(t.key, t.value);
  // Merge an empty sketch in: nothing changes.
  const count_t before = a.Estimate(1);
  ASSERT_FALSE(a.MergeFrom(empty).has_value());
  EXPECT_EQ(a.Estimate(1), before);
  // Merge into an empty sketch: estimates dominate a's own.
  ASSERT_FALSE(empty.MergeFrom(a).has_value());
  for (item_t key = 0; key < 1000; key += 11) {
    EXPECT_GE(empty.Estimate(key), a.Estimate(key) > 0 ? 1u : 0u);
  }
}

}  // namespace
}  // namespace asketch
