#include "src/workload/stream_generator.h"

#include <limits>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/workload/trace_simulators.h"

namespace asketch {
namespace {

StreamSpec SmallSpec() {
  StreamSpec spec;
  spec.stream_size = 20000;
  spec.num_distinct = 500;
  spec.skew = 1.2;
  spec.seed = 7;
  return spec;
}

TEST(StreamSpecTest, Validates) {
  StreamSpec spec = SmallSpec();
  EXPECT_FALSE(spec.Validate().has_value());
  spec.stream_size = 0;
  EXPECT_TRUE(spec.Validate().has_value());
  spec = SmallSpec();
  spec.skew = -0.1;
  EXPECT_TRUE(spec.Validate().has_value());
  // A non-finite skew would stall or abort the Zipf sampler.
  for (const double skew : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()}) {
    spec.skew = skew;
    EXPECT_TRUE(spec.Validate().has_value()) << skew;
  }
}

TEST(StreamGeneratorTest, DeterministicForSameSpec) {
  const std::vector<Tuple> a = GenerateStream(SmallSpec());
  const std::vector<Tuple> b = GenerateStream(SmallSpec());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]);
  }
}

TEST(StreamGeneratorTest, DifferentSeedsDiffer) {
  StreamSpec other = SmallSpec();
  other.seed = 8;
  const std::vector<Tuple> a = GenerateStream(SmallSpec());
  const std::vector<Tuple> b = GenerateStream(other);
  int differing = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) ++differing;
  }
  EXPECT_GT(differing, static_cast<int>(a.size()) / 2);
}

TEST(StreamGeneratorTest, KeysStayInDomain) {
  const StreamSpec spec = SmallSpec();
  for (const Tuple& t : GenerateStream(spec)) {
    ASSERT_LT(t.key, spec.num_distinct);
    ASSERT_EQ(t.value, 1u);
  }
}

TEST(StreamGeneratorTest, RankToKeyIsABijection) {
  const StreamSpec spec = SmallSpec();
  ZipfStreamGenerator gen(spec);
  std::unordered_set<item_t> keys;
  for (uint64_t rank = 1; rank <= spec.num_distinct; ++rank) {
    keys.insert(gen.RankToKey(rank));
  }
  EXPECT_EQ(keys.size(), spec.num_distinct);
}

TEST(StreamGeneratorTest, HotKeysAreNotSmallIntegers) {
  // The permutation must scatter the head of the distribution.
  const StreamSpec spec = SmallSpec();
  ZipfStreamGenerator gen(spec);
  uint32_t small = 0;
  for (uint64_t rank = 1; rank <= 10; ++rank) {
    if (gen.RankToKey(rank) < 10) ++small;
  }
  EXPECT_LT(small, 3u);
}

TEST(StreamGeneratorTest, TruthMatchesStream) {
  std::vector<wide_count_t> truth;
  const StreamSpec spec = SmallSpec();
  const std::vector<Tuple> stream = GenerateStreamWithTruth(spec, &truth);
  ASSERT_EQ(truth.size(), spec.num_distinct);
  std::vector<wide_count_t> recounted(spec.num_distinct, 0);
  for (const Tuple& t : stream) recounted[t.key] += t.value;
  EXPECT_EQ(truth, recounted);
}

TEST(StreamGeneratorTest, SkewShapesTheHead) {
  // The hottest key's share grows with skew.
  double previous_share = 0;
  for (const double skew : {0.0, 1.0, 2.0}) {
    StreamSpec spec = SmallSpec();
    spec.skew = skew;
    std::vector<wide_count_t> truth;
    GenerateStreamWithTruth(spec, &truth);
    const wide_count_t max_count =
        *std::max_element(truth.begin(), truth.end());
    const double share =
        static_cast<double>(max_count) / spec.stream_size;
    EXPECT_GT(share, previous_share) << "skew " << skew;
    previous_share = share;
  }
}

TEST(TraceSimulatorTest, IpTraceLikeShape) {
  const StreamSpec spec = IpTraceLikeSpec(/*scale=*/0.0001);
  EXPECT_NEAR(spec.skew, 0.9, 1e-9);
  EXPECT_GT(spec.stream_size, 10000u);
  EXPECT_GT(spec.num_distinct, 100u);
  // N/M ratio of the original trace (~35) is preserved.
  const double ratio = static_cast<double>(spec.stream_size) /
                       static_cast<double>(spec.num_distinct);
  EXPECT_NEAR(ratio, 461.0 / 13.0, 5.0);
}

TEST(TraceSimulatorTest, KosarakLikeShape) {
  const StreamSpec spec = KosarakLikeSpec(/*scale=*/0.1);
  EXPECT_NEAR(spec.skew, 1.0, 1e-9);
  EXPECT_EQ(spec.stream_size, 800000u);
  EXPECT_LE(spec.num_distinct, 40270u);
  EXPECT_GE(spec.num_distinct, 1024u);
}

TEST(TraceSimulatorTest, FullScaleMatchesPaperNumbers) {
  const StreamSpec ip = IpTraceLikeSpec(1.0);
  EXPECT_EQ(ip.stream_size, 461'000'000u);
  EXPECT_EQ(ip.num_distinct, 13'000'000u);
  const StreamSpec kosarak = KosarakLikeSpec(1.0);
  EXPECT_EQ(kosarak.stream_size, 8'000'000u);
  EXPECT_EQ(kosarak.num_distinct, 40'270u);
}

}  // namespace
}  // namespace asketch
