#include "src/sketch/count_min.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/workload/exact_counter.h"

namespace asketch {
namespace {

CountMinConfig SmallConfig(uint32_t width = 4, uint32_t depth = 256,
                           uint64_t seed = 42) {
  CountMinConfig config;
  config.width = width;
  config.depth = depth;
  config.seed = seed;
  return config;
}

TEST(CountMinConfigTest, ValidatesParameters) {
  CountMinConfig config = SmallConfig();
  EXPECT_FALSE(config.Validate().has_value());
  config.width = 0;
  EXPECT_TRUE(config.Validate().has_value());
  config = SmallConfig();
  config.depth = 0;
  EXPECT_TRUE(config.Validate().has_value());
}

TEST(CountMinConfigTest, RejectsWidthBeyondBatchBucketBlock) {
  // UpdateBatchBounded stages the buckets of a 64-key hashed chunk in a
  // fixed on-stack block sized for kMaxWidth rows, so a wider config
  // would overflow the stack. Validate() must reject it up front.
  CountMinConfig config = SmallConfig();
  config.width = CountMinConfig::kMaxWidth;
  EXPECT_FALSE(config.Validate().has_value());
  config.width = CountMinConfig::kMaxWidth + 1;
  EXPECT_TRUE(config.Validate().has_value());
}

TEST(CountMinConfigTest, FromSpaceBudgetGuardsDegenerateWidth) {
  // Regression: width 0 used to divide by zero (UB); it must clamp to a
  // valid single-row config instead.
  const CountMinConfig config = CountMinConfig::FromSpaceBudget(1024, 0);
  EXPECT_EQ(config.width, 1u);
  EXPECT_FALSE(config.Validate().has_value());
  EXPECT_EQ(config.depth, 256u);  // 1024 B / (1 row * 4 B)
  // Widths beyond the valid range clamp too, so the returned config
  // always passes Validate().
  const CountMinConfig wide = CountMinConfig::FromSpaceBudget(1024, 1000);
  EXPECT_EQ(wide.width, CountMinConfig::kMaxWidth);
  EXPECT_FALSE(wide.Validate().has_value());
}

TEST(CountMinConfigTest, FromSpaceBudgetClampsHugeBudgets) {
  // Regression: the computed depth was truncated size_t -> uint32_t, so
  // a budget over 16 GiB wrapped to a tiny (or zero) depth. It must cap
  // at UINT32_MAX instead. Config-only check: nothing is allocated.
  const size_t kHuge = size_t{1} << 35;  // 32 GiB, depth_raw = 2^33
  const CountMinConfig config = CountMinConfig::FromSpaceBudget(kHuge, 1);
  EXPECT_EQ(config.depth, std::numeric_limits<uint32_t>::max());
  EXPECT_FALSE(config.Validate().has_value());
}

TEST(CountMinConfigTest, FromSpaceBudgetMatchesPaperAccounting) {
  // 128 KB with w = 8 rows of 4-byte cells -> h = 4096 (§7.1 setting).
  const CountMinConfig config =
      CountMinConfig::FromSpaceBudget(128 * 1024, 8);
  EXPECT_EQ(config.width, 8u);
  EXPECT_EQ(config.depth, 4096u);
  const CountMin sketch(config);
  EXPECT_EQ(sketch.MemoryUsageBytes(), 128u * 1024u);
}

TEST(CountMinTest, ExactWhenNoCollisions) {
  CountMin sketch(SmallConfig(4, 4096));
  sketch.Update(1, 10);
  sketch.Update(2, 20);
  // With 2 keys in 4096 cells the chance of a min-destroying collision in
  // all rows is negligible; these should be exact.
  EXPECT_EQ(sketch.Estimate(1), 10u);
  EXPECT_EQ(sketch.Estimate(2), 20u);
  EXPECT_EQ(sketch.Estimate(3), 0u);
}

TEST(CountMinTest, NeverUnderestimatesOnStrictStreams) {
  CountMin sketch(SmallConfig(4, 64));  // tiny: lots of collisions
  ExactCounter truth(1000);
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const item_t key = static_cast<item_t>(rng.NextBounded(1000));
    sketch.Update(key);
    truth.Update(key);
  }
  for (item_t key = 0; key < 1000; ++key) {
    EXPECT_GE(sketch.Estimate(key), truth.Count(key)) << "key " << key;
  }
}

TEST(CountMinTest, ErrorBoundHoldsWithHighProbability) {
  // Expected error <= (e/h)·N with probability >= 1 - e^{-w}. Check the
  // empirical violation rate over many keys is well below e^{-w} ≈ 1.8%
  // for w = 4 (allowing slack for test stability).
  const uint32_t h = 512;
  const uint32_t w = 4;
  CountMin sketch(SmallConfig(w, h, 99));
  ExactCounter truth(50000);
  Rng rng(13);
  const uint64_t n = 200000;
  for (uint64_t i = 0; i < n; ++i) {
    const item_t key = static_cast<item_t>(rng.NextBounded(50000));
    sketch.Update(key);
    truth.Update(key);
  }
  const double bound = (2.718281828 / h) * static_cast<double>(n);
  int violations = 0;
  for (item_t key = 0; key < 50000; ++key) {
    const double err = static_cast<double>(sketch.Estimate(key)) -
                       static_cast<double>(truth.Count(key));
    if (err > bound) ++violations;
  }
  EXPECT_LT(violations, 50000 * 0.05);
}

TEST(CountMinTest, DeletionsReverseInsertions) {
  CountMin sketch(SmallConfig());
  sketch.Update(5, 100);
  sketch.Update(5, -40);
  EXPECT_EQ(sketch.Estimate(5), 60u);
  sketch.Update(5, -60);
  EXPECT_EQ(sketch.Estimate(5), 0u);
}

TEST(CountMinTest, DeletionsKeepOneSidedGuarantee) {
  CountMin sketch(SmallConfig(4, 64, 5));
  ExactCounter truth(500);
  Rng rng(11);
  std::vector<int> live(500, 0);
  for (int i = 0; i < 20000; ++i) {
    const item_t key = static_cast<item_t>(rng.NextBounded(500));
    if (live[key] > 0 && rng.NextBounded(3) == 0) {
      sketch.Update(key, -1);
      truth.Update(key, -1);
      --live[key];
    } else {
      sketch.Update(key, 1);
      truth.Update(key, 1);
      ++live[key];
    }
  }
  for (item_t key = 0; key < 500; ++key) {
    EXPECT_GE(sketch.Estimate(key), truth.Count(key)) << "key " << key;
  }
}

TEST(CountMinTest, RowSumEqualsStreamWeight) {
  CountMin sketch(SmallConfig(3, 128));
  Rng rng(3);
  wide_count_t total = 0;
  for (int i = 0; i < 5000; ++i) {
    const count_t u = 1 + static_cast<count_t>(rng.NextBounded(5));
    sketch.Update(static_cast<item_t>(rng.NextBounded(10000)), u);
    total += u;
  }
  for (uint32_t row = 0; row < 3; ++row) {
    EXPECT_EQ(sketch.RowSum(row), total);
  }
}

TEST(CountMinTest, ResetZeroesCells) {
  CountMin sketch(SmallConfig());
  sketch.Update(1, 5);
  sketch.Reset();
  EXPECT_EQ(sketch.Estimate(1), 0u);
  for (uint32_t row = 0; row < sketch.width(); ++row) {
    EXPECT_EQ(sketch.RowSum(row), 0u);
  }
}

TEST(CountMinTest, SaturatesInsteadOfWrapping) {
  CountMin sketch(SmallConfig(1, 1));  // all keys share one cell
  sketch.Update(1, ~count_t{0});
  sketch.Update(1, 100);
  EXPECT_EQ(sketch.Estimate(1), ~count_t{0});
  sketch.Update(1, -50);
  EXPECT_EQ(sketch.Estimate(1), ~count_t{0} - 50);
}

TEST(CountMinTest, UpdateAndEstimateMatchesSeparateCalls) {
  CountMin fused(SmallConfig(4, 128, 31));
  CountMin plain(SmallConfig(4, 128, 31));
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) {
    const item_t key = static_cast<item_t>(rng.NextBounded(2000));
    const delta_t delta = 1 + static_cast<delta_t>(rng.NextBounded(5));
    const count_t fused_estimate = fused.UpdateAndEstimate(key, delta);
    plain.Update(key, delta);
    ASSERT_EQ(fused_estimate, plain.Estimate(key)) << "step " << i;
  }
  for (item_t key = 0; key < 2000; ++key) {
    ASSERT_EQ(fused.Estimate(key), plain.Estimate(key));
  }
}

/// Tuples over `domain` keys whose weights mix small values, zeros and
/// values near 2^32 (so cells saturate).
std::vector<Tuple> MixedWeightTuples(size_t n, uint32_t domain,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t pick = rng.NextBounded(100);
    count_t weight = 1 + static_cast<count_t>(rng.NextBounded(9));
    if (pick < 5) weight = 0;
    if (pick >= 98) weight = ~count_t{0} - static_cast<count_t>(pick);
    tuples.push_back(
        Tuple{static_cast<item_t>(rng.NextBounded(domain)), weight});
  }
  return tuples;
}

std::vector<uint8_t> CellBytes(const CountMin& sketch) {
  BinaryWriter writer;
  EXPECT_TRUE(sketch.SerializeTo(writer));
  return writer.buffer();
}

// UpdateBatch runs the block kernel (16-key blocks, a per-row conflict
// fallback, saturating lanes); its cells must equal the Update loop's.
// A 13-cell row makes repeated buckets inside a block common, the
// large weights saturate cells, and the lengths leave partial blocks.
TEST(CountMinTest, UpdateBatchMatchesUpdateLoop) {
  for (const uint32_t width : {1u, 8u, 16u, 20u}) {
    for (const uint32_t depth : {13u, 4096u}) {
      for (const size_t n : {size_t{1}, size_t{37}, size_t{5000}}) {
        const std::vector<Tuple> tuples =
            MixedWeightTuples(n, 3000, width * 1000 + depth + n);
        CountMin batch(SmallConfig(width, depth, 7));
        CountMin loop(SmallConfig(width, depth, 7));
        batch.UpdateBatch(tuples);
        for (const Tuple& t : tuples) loop.Update(t.key, t.value);
        ASSERT_EQ(CellBytes(batch), CellBytes(loop))
            << "width " << width << " depth " << depth << " n " << n;
      }
    }
  }
}

// The bounded kernel applies whole blocks and stops at the first block
// in which some key's estimate might pass the bound: the applied
// prefix leaves the Update loop's cells, and replaying that prefix
// tuple by tuple never shows an estimate above the bound.
TEST(CountMinTest, UpdateBatchBoundedStopsBeforeTheBound) {
  for (const uint32_t width : {4u, 8u, 16u}) {
    std::vector<Tuple> tuples;
    Rng rng(width);
    for (int i = 0; i < 4000; ++i) {
      tuples.push_back(Tuple{static_cast<item_t>(rng.NextBounded(500)),
                             1 + static_cast<count_t>(rng.NextBounded(3))});
    }
    constexpr uint64_t kBound = 60;  // above any first block's weight
    CountMin bounded(SmallConfig(width, 64, 3));
    const size_t applied = bounded.UpdateBatchBounded(tuples, kBound);
    ASSERT_GT(applied, 0u);
    ASSERT_LT(applied, tuples.size()) << "the bound never bit";
    EXPECT_EQ(applied % CountMin::kBlockKeys, 0u);
    CountMin loop(SmallConfig(width, 64, 3));
    for (size_t i = 0; i < applied; ++i) {
      ASSERT_LE(loop.UpdateAndEstimate(tuples[i].key, tuples[i].value),
                kBound)
          << "tuple " << i;
    }
    EXPECT_EQ(CellBytes(bounded), CellBytes(loop)) << "width " << width;
  }
}

TEST(CountMinTest, UpdateBatchBoundedDeclinesWhatItCannotBound) {
  const std::vector<Tuple> tuples = MixedWeightTuples(100, 1000, 5);
  CountMin wide(SmallConfig(CountMin::kBlockMaxWidth + 1, 256));
  EXPECT_EQ(wide.UpdateBatchBounded(tuples, 1000), 0u);
  EXPECT_EQ(wide.UpdateBatchBounded(tuples, CountMin::kUnbounded),
            tuples.size());
}

TEST(CountMinTest, AdoptFromCopiesCellsAndKeepsUpdating) {
  // AdoptFrom (--recover's snapshot re-adoption) replaces the cells in
  // place; updates after it must leave exactly the cells of a sketch
  // that saw the donor's prefix and the suffix all along.
  const CountMinConfig config = SmallConfig(4, 128, 21);
  CountMin donor(config);
  CountMin reference(config);
  Rng rng(29);
  for (int i = 0; i < 20000; ++i) {
    const item_t key = static_cast<item_t>(rng.NextBounded(1000));
    donor.Update(key, 1);
    reference.Update(key, 1);
  }

  CountMin adopted(config);
  adopted.Update(7, 3);  // stale state the adoption must overwrite
  ASSERT_TRUE(adopted.CanAdoptFrom(donor));
  adopted.AdoptFrom(std::move(donor));
  EXPECT_EQ(CellBytes(adopted), CellBytes(reference));

  for (int i = 0; i < 20000; ++i) {
    const item_t key = static_cast<item_t>(rng.NextBounded(1000));
    adopted.Update(key, 1);
    reference.Update(key, 1);
  }
  EXPECT_EQ(CellBytes(adopted), CellBytes(reference));
}

}  // namespace
}  // namespace asketch
