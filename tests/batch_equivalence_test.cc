// UpdateBatch must be bit-identical to the equivalent sequence of
// Update() calls: same filter contents, same sketch cells (observed via
// Estimate), same exchange decisions, same stats — for every filter and
// sketch backend and for every way of slicing the stream into batches.
// This is the contract that lets the ingestion fast path (SIMD filter
// probe + vectorized bucket hashing + prepared sketch updates) replace
// the scalar loop without changing a single answer.

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/asketch.h"
#include "src/workload/stream_generator.h"

namespace asketch {
namespace {

constexpr item_t kKeyUniverse = 700;

ASketchConfig SmallConfig() {
  ASketchConfig config;
  config.total_bytes = 16 * 1024;
  config.width = 4;
  config.filter_items = 16;
  config.seed = 11;
  return config;
}

/// Mixed-weight stream: a skewed base workload with extra random-weight
/// tuples (including zero weights, which Update() skips and UpdateBatch
/// must skip identically) spliced in.
std::vector<Tuple> MakeStream(uint64_t seed, size_t n) {
  StreamSpec spec;
  spec.stream_size = n;
  spec.num_distinct = kKeyUniverse;
  spec.skew = 1.1;
  spec.seed = seed;
  std::vector<Tuple> stream = GenerateStream(spec);
  Rng rng(seed * 77 + 1);
  for (Tuple& t : stream) {
    if (rng.NextBounded(4) == 0) {
      t.value = static_cast<count_t>(rng.NextBounded(6));  // may be 0
    }
  }
  return stream;
}

/// Drives `scalar` tuple-by-tuple and `batched` through UpdateBatch with
/// the given slicing, then asserts observable state is identical:
/// estimates for every key in (and beyond) the universe, top-k, and the
/// full stats block.
template <typename A>
void CheckEquivalence(A scalar, A batched, const std::vector<Tuple>& stream,
                      const std::vector<size_t>& batch_sizes) {
  for (const Tuple& t : stream) {
    scalar.Update(t.key, static_cast<delta_t>(t.value));
  }
  size_t begin = 0;
  size_t size_index = 0;
  while (begin < stream.size()) {
    const size_t want = batch_sizes[size_index++ % batch_sizes.size()];
    const size_t count = std::min(want, stream.size() - begin);
    batched.UpdateBatch(
        std::span<const Tuple>(stream.data() + begin, count));
    begin += count;
  }

  for (item_t key = 0; key < kKeyUniverse + 50; ++key) {
    ASSERT_EQ(scalar.Estimate(key), batched.Estimate(key))
        << "key " << key;
  }
  EXPECT_EQ(scalar.TopK(), batched.TopK());
  EXPECT_EQ(scalar.stats().filtered_weight, batched.stats().filtered_weight);
  EXPECT_EQ(scalar.stats().sketch_weight, batched.stats().sketch_weight);
  EXPECT_EQ(scalar.stats().exchanges, batched.stats().exchanges);
  EXPECT_EQ(scalar.stats().exchange_writebacks,
            batched.stats().exchange_writebacks);
  EXPECT_EQ(scalar.stats().sketch_updates, batched.stats().sketch_updates);
}

/// Batch slicings exercised per backend: single-tuple batches, sizes
/// around the internal chunk width (16), chunk-misaligned primes, large
/// blocks, and a ragged mix.
const std::vector<std::vector<size_t>> kSlicings = {
    {1}, {3}, {16}, {17}, {64}, {1000}, {1, 31, 2, 16, 128, 5}};

template <typename MakeFn>
void RunAllSlicings(MakeFn make) {
  for (size_t s = 0; s < kSlicings.size(); ++s) {
    SCOPED_TRACE("slicing " + std::to_string(s));
    CheckEquivalence(make(), make(), MakeStream(/*seed=*/s + 1, 6000),
                     kSlicings[s]);
  }
}

TEST(BatchEquivalenceTest, VectorFilterCountMin) {
  RunAllSlicings([] {
    return MakeASketchCountMin<VectorFilter>(SmallConfig());
  });
}

TEST(BatchEquivalenceTest, StrictHeapFilterCountMin) {
  RunAllSlicings([] {
    return MakeASketchCountMin<StrictHeapFilter>(SmallConfig());
  });
}

TEST(BatchEquivalenceTest, RelaxedHeapFilterCountMin) {
  RunAllSlicings([] {
    return MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  });
}

TEST(BatchEquivalenceTest, StreamSummaryFilterCountMin) {
  RunAllSlicings([] {
    return MakeASketchCountMin<StreamSummaryFilter>(SmallConfig());
  });
}

TEST(BatchEquivalenceTest, RelaxedHeapFilterFcm) {
  RunAllSlicings([] {
    return MakeASketchFcm<RelaxedHeapFilter>(SmallConfig());
  });
}

TEST(BatchEquivalenceTest, RelaxedHeapFilterCountSketch) {
  RunAllSlicings([] {
    return MakeASketchCountSketch<RelaxedHeapFilter>(SmallConfig());
  });
}

TEST(BatchEquivalenceTest, ExchangesDisabled) {
  auto make = [] {
    auto as = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
    return ASketch<RelaxedHeapFilter, CountMin>(
        std::move(as.filter()), std::move(as.sketch()),
        /*enable_exchanges=*/false);
  };
  CheckEquivalence(make(), make(), MakeStream(/*seed=*/99, 6000),
                   {1, 31, 2, 16, 128, 5});
}

TEST(BatchEquivalenceTest, EmptyAndTinyBatches) {
  auto scalar = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  auto batched = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  batched.UpdateBatch(std::span<const Tuple>{});  // no-op
  const std::vector<Tuple> stream = MakeStream(/*seed=*/7, 100);
  CheckEquivalence(std::move(scalar), std::move(batched), stream, {1});
}

}  // namespace
}  // namespace asketch
