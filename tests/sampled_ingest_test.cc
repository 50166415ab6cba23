// Sampled tail ingest (NitroSketch-style geometric skip counters,
// ALGORITHMS.md §8). Pins the three guarantees the mode ships with:
// the filter head stays bit-exact under a stable head (hits and
// writebacks are never sampled), the sampled tail is unbiased across
// sampler seeds (1/p-scaled compensation with stochastic rounding),
// and rate 1.0 is bit-identical to the unsampled path — the sampler
// is inert at permille 1000, so enabling the flag at rate 1.0 cannot
// perturb a single serialized byte for either backend. The sampler
// lives in ASketch::MissPositive, the one sampling site of every
// ingest path; a delta's head totals bypass it even when an eviction
// sends them to the sketch.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/sampling.h"
#include "src/common/serialize.h"
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

/// Stable-head warm-up (delta_batch_test idiom): the filter fills with
/// keys [0, kFilterItems) at weights no tail estimate can beat, so no
/// exchange can evict them for the rest of the test. This isolates the
/// head-exactness claim from exchange-timing differences — under head
/// churn the sampled run may legitimately make different exchange
/// decisions, because exchanges consult (perturbed) tail estimates.
template <typename ASketchT>
void WarmHead(ASketchT& sketch) {
  for (item_t key = 0; key < kFilterItems; ++key) {
    sketch.Update(key, 1 << 20);
  }
  ASSERT_TRUE(sketch.filter().Full());
}

/// Hot traffic on the head keys interleaved with a zipf tail on
/// [kFilterItems, kDomain).
std::vector<Tuple> MixedStream(uint64_t seed) {
  StreamSpec spec;
  spec.stream_size = 30000;
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

// ---------------------------------------------------------------------
// GeometricSampler unit behavior.
// ---------------------------------------------------------------------

TEST(GeometricSamplerTest, InactiveAtPermille1000) {
  GeometricSampler sampler(7);
  EXPECT_FALSE(sampler.active());
  sampler.SetPermille(1000);
  EXPECT_FALSE(sampler.active());
  sampler.SetPermille(250);
  EXPECT_TRUE(sampler.active());
}

TEST(GeometricSamplerTest, ApplyRateMatchesPermille) {
  GeometricSampler sampler(11);
  sampler.SetPermille(100);  // p = 0.1
  const uint64_t trials = 200000;
  uint64_t applied = 0;
  for (uint64_t i = 0; i < trials; ++i) {
    if (sampler.ShouldApply()) ++applied;
  }
  const double rate = static_cast<double>(applied) / trials;
  EXPECT_NEAR(rate, 0.1, 0.01);
}

TEST(GeometricSamplerTest, ScaleDeltaIsUnbiased) {
  GeometricSampler sampler(13);
  sampler.SetPermille(300);  // p = 0.3; 7/0.3 is fractional
  const uint64_t trials = 100000;
  uint64_t total = 0;
  for (uint64_t i = 0; i < trials; ++i) {
    total += static_cast<uint64_t>(sampler.ScaleDelta(7));
  }
  const double mean = static_cast<double>(total) / trials;
  EXPECT_NEAR(mean, 7.0 / 0.3, 0.1);
}

// ---------------------------------------------------------------------
// Head exactness: with a stable head, every filter entry is untouched
// by sampling — hits and free-slot inserts bypass the sampler.
// ---------------------------------------------------------------------

TEST(SampledIngestTest, HeadStaysBitExactUnderStableHead) {
  auto plain = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  auto sampled = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  sampled.SetTailSampleRate(0.05);
  sampled.SeedTailSampler(77);
  WarmHead(plain);
  WarmHead(sampled);
  const std::vector<Tuple> stream = MixedStream(31);
  for (const Tuple& t : stream) {
    plain.Update(t.key, static_cast<delta_t>(t.value));
    sampled.Update(t.key, static_cast<delta_t>(t.value));
  }
  EXPECT_GT(sampled.stats().sampled_skips, 0u)
      << "sampling never engaged; the test is vacuous";
  // True-mass accounting: sketch_weight books unscaled tail mass, so
  // the two ledgers agree exactly even though the sampled instance
  // elided most tail sketch updates.
  EXPECT_EQ(sampled.stats().sketch_weight, plain.stats().sketch_weight);
  EXPECT_EQ(sampled.stats().filtered_weight, plain.stats().filtered_weight);
  // The heads are bit-identical: same keys, same exact counters.
  const auto plain_top = plain.TopK();
  const auto sampled_top = sampled.TopK();
  ASSERT_EQ(plain_top.size(), sampled_top.size());
  for (size_t i = 0; i < plain_top.size(); ++i) {
    EXPECT_EQ(plain_top[i].key, sampled_top[i].key);
    EXPECT_EQ(plain_top[i].new_count, sampled_top[i].new_count);
    EXPECT_EQ(plain_top[i].old_count, sampled_top[i].old_count);
  }
}

// ---------------------------------------------------------------------
// Tail unbiasedness: averaged over independent sampler seeds, sampled
// tail estimates converge to the unsampled ones. Per-key estimates are
// noisy (variance ~ count·(1/p − 1)), so the check aggregates over a
// key set; the tolerance is far below the ~1/p one-sided error a
// non-compensated skip policy would produce.
// ---------------------------------------------------------------------

TEST(SampledIngestTest, TailUnbiasedAcrossSeedsWithinTolerance) {
  auto plain = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  WarmHead(plain);
  const std::vector<Tuple> stream = MixedStream(43);
  for (const Tuple& t : stream) {
    plain.Update(t.key, static_cast<delta_t>(t.value));
  }
  std::vector<item_t> tail_keys;
  for (item_t key = kFilterItems; key < kFilterItems + 512; ++key) {
    tail_keys.push_back(key);
  }
  uint64_t reference = 0;
  for (item_t key : tail_keys) reference += plain.Estimate(key);
  ASSERT_GT(reference, 0u);

  constexpr uint64_t kSeeds = 16;
  double mean_total = 0.0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto sampled = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
    sampled.SetTailSampleRate(0.1);
    sampled.SeedTailSampler(seed * 0x9e3779b97f4a7c15ull);
    WarmHead(sampled);
    for (const Tuple& t : stream) {
      sampled.Update(t.key, static_cast<delta_t>(t.value));
    }
    uint64_t total = 0;
    for (item_t key : tail_keys) total += sampled.Estimate(key);
    mean_total += static_cast<double>(total) / kSeeds;
  }
  const double ref = static_cast<double>(reference);
  EXPECT_NEAR(mean_total / ref, 1.0, 0.05)
      << "mean sampled tail mass drifted from the unsampled reference";
}

// ---------------------------------------------------------------------
// Head churn under sampling: a delta's head total whose key was evicted
// before the delta lands re-enters through the sketch UNSAMPLED. Its
// tuples were head hits when they arrived; one sampling draw for the
// whole total would drop it (probability 1-p) or apply it ×1/p.
// ---------------------------------------------------------------------

TEST(SampledIngestTest, EvictedHeadTotalIsAppliedUnsampled) {
  auto sketch = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  ExactCounter truth(kDomain);
  // Modest head counts, so later traffic can evict every head key.
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

  sketch.SetTailSampleRate(0.1);
  sketch.SeedTailSampler(2024);
  sketch.UpdateBatch({});  // the owner folds the new rate in
  ASSERT_FALSE(sketch.ApplyDelta(delta).has_value());
  // Sampled runs are no longer one-sided in general, but these totals
  // skipped the sampler: each evicted key's estimate covers its exact
  // count and exceeds it by at most Count-Min collision noise — far
  // below the 10x total a sampled apply would add.
  for (item_t key : evicted) {
    const wide_count_t exact = truth.Count(key);
    const wide_count_t estimate = sketch.Estimate(key);
    EXPECT_GE(estimate, exact) << "key " << key;
    EXPECT_LE(estimate, exact + kHeadTotal / 2) << "key " << key;
  }
  EXPECT_EQ(sketch.stats().sampled_skips, 0u);
  EXPECT_EQ(sketch.stats().filtered_weight + sketch.stats().sketch_weight,
            truth.Total());
}

// ---------------------------------------------------------------------
// Rate 1.0 is the unsampled path, bit for bit, on both backends: the
// sampler is inert at permille 1000 (no RNG draw, no scaling), so the
// serialized states cannot differ.
// ---------------------------------------------------------------------

template <typename ASketchT>
void ExpectRateOneBitIdentical(ASketchT plain, ASketchT sampled) {
  sampled.SetTailSampleRate(1.0);
  sampled.SeedTailSampler(12345);  // seed must be irrelevant at 1.0
  const std::vector<Tuple> stream = MixedStream(59);
  for (const Tuple& t : stream) {
    plain.Update(t.key, static_cast<delta_t>(t.value));
    sampled.Update(t.key, static_cast<delta_t>(t.value));
  }
  EXPECT_EQ(sampled.stats().sampled_skips, 0u);
  BinaryWriter plain_bytes;
  BinaryWriter sampled_bytes;
  ASSERT_TRUE(plain.SerializeTo(plain_bytes));
  ASSERT_TRUE(sampled.SerializeTo(sampled_bytes));
  EXPECT_EQ(plain_bytes.buffer(), sampled_bytes.buffer());
}

TEST(SampledIngestTest, RateOneBitIdenticalCountMin) {
  ExpectRateOneBitIdentical(
      MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig()),
      MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig()));
}

TEST(SampledIngestTest, RateOneBitIdenticalSalsa) {
  ExpectRateOneBitIdentical(
      MakeASketchSalsa<RelaxedHeapFilter>(SmallConfig()),
      MakeASketchSalsa<RelaxedHeapFilter>(SmallConfig()));
}

}  // namespace
}  // namespace asketch
