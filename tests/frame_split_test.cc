// The decode step (src/net/shard_set.{h,cc}, ALGORITHMS.md §7): the
// frame split must hand every shard exactly the delta
// per-tuple ShardDelta::Add builds from that shard's tuples — the same
// misses in the same order, every head total, tuple_count and weight —
// across frame sizes, shard counts, head sizes, weights and skews.
// ShardRouter must equal ShardOf for every shard count the daemon
// accepts, ASketch::HeadMatches must accept a kept head index only
// while it holds the filter's exact key set, and a ShardSet must split
// each frame on its filters' current heads.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/asketch.h"
#include "src/core/delta_batch.h"
#include "src/net/protocol.h"
#include "src/net/shard_set.h"
#include "src/obs/core_metrics.h"
#include "src/workload/stream_generator.h"

namespace asketch {
namespace net {
namespace {

TEST(ShardRouterTest, MatchesShardOfForEveryShardCount) {
  std::vector<item_t> random_keys(1'000'000);
  Rng rng(2024);
  for (item_t& key : random_keys) key = static_cast<item_t>(rng.NextU64());
  for (uint32_t n = 1; n <= kMaxShards; ++n) {
    const ShardRouter router(n);
    ASSERT_EQ(router.num_shards(), n);
    for (const item_t key : {item_t{0}, item_t{1}, ~item_t{0}}) {
      ASSERT_EQ(router(key), ShardOf(key, n)) << "n " << n << " key " << key;
    }
    // Multiples of n, to the top of the key space.
    for (uint64_t key = 0; key <= ~item_t{0}; key += uint64_t{n} * 65521) {
      ASSERT_EQ(router(static_cast<item_t>(key)),
                ShardOf(static_cast<item_t>(key), n))
          << "n " << n << " key " << key;
    }
    for (const item_t key : random_keys) {
      ASSERT_EQ(router(key), ShardOf(key, n)) << "n " << n << " key " << key;
    }
  }
}

/// A Zipf stream whose weights are mostly 1 and include 0 and
/// 2^32 - 1, so hot keys' head totals pass 2^32.
std::vector<Tuple> WeightedStream(double skew, size_t size) {
  StreamSpec spec;
  spec.stream_size = size;
  spec.num_distinct = 1u << 14;
  spec.skew = skew;
  spec.seed = 7;
  std::vector<Tuple> stream = GenerateStream(spec);
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i % 11 == 3) stream[i].value = 0;
    if (i % 13 == 5) stream[i].value = ~count_t{0};
  }
  return stream;
}

/// Each shard's `head_keys` most frequent keys in `stream`, as its
/// filter would hold them.
std::vector<std::shared_ptr<const HeadIndex>> TopKeyHeads(
    std::span<const Tuple> stream, const ShardRouter& router,
    size_t head_keys) {
  std::vector<std::unordered_map<item_t, uint64_t>> counts(
      router.num_shards());
  for (const Tuple& t : stream) ++counts[router(t.key)][t.key];
  std::vector<std::shared_ptr<const HeadIndex>> heads;
  for (const auto& shard_counts : counts) {
    std::vector<std::pair<uint64_t, item_t>> ranked;
    for (const auto& [key, count] : shard_counts) {
      ranked.emplace_back(count, key);
    }
    std::sort(ranked.begin(), ranked.end(), std::greater<>());
    std::vector<item_t> keys;
    for (size_t i = 0; i < std::min(head_keys, ranked.size()); ++i) {
      keys.push_back(ranked[i].second);
    }
    heads.push_back(std::make_shared<const HeadIndex>(std::move(keys)));
  }
  return heads;
}

/// Splits `frame` and checks every emitted delta against ShardDelta
/// fed the shard's tuples one by one through Add.
void ExpectSplitMatchesAdd(
    std::span<const Tuple> frame, const ShardRouter& router,
    const std::vector<std::shared_ptr<const HeadIndex>>& heads) {
  const uint32_t n = router.num_shards();
  std::vector<std::optional<ShardDelta>> want(n);
  for (const Tuple& t : frame) {
    const uint32_t s = ShardOf(t.key, n);
    if (!want[s].has_value()) want[s].emplace(heads[s]);
    want[s]->Add(t.key, t.value);
  }
  const SplitIndex index(router, heads);
  std::vector<std::optional<ShardDelta>> got(n);
  std::vector<uint32_t> order;
  SplitFrame(
      frame, router, index, [&](uint32_t s, ShardDelta delta) {
        ASSERT_FALSE(got[s].has_value()) << "shard " << s << " emitted twice";
        order.push_back(s);
        got[s].emplace(std::move(delta));
      });
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  for (uint32_t s = 0; s < n; ++s) {
    ASSERT_EQ(got[s].has_value(), want[s].has_value()) << "shard " << s;
    if (!want[s].has_value()) continue;
    const ShardDelta& g = *got[s];
    const ShardDelta& w = *want[s];
    EXPECT_EQ(&g.head(), &w.head()) << "shard " << s;
    EXPECT_EQ(g.tuple_count(), w.tuple_count()) << "shard " << s;
    EXPECT_EQ(g.weight(), w.weight()) << "shard " << s;
    ASSERT_TRUE(std::equal(g.head_totals().begin(), g.head_totals().end(),
                           w.head_totals().begin(), w.head_totals().end()))
        << "shard " << s;
    ASSERT_TRUE(std::equal(g.misses().begin(), g.misses().end(),
                           w.misses().begin(), w.misses().end()))
        << "shard " << s;
  }
}

TEST(FrameSplitTest, MatchesPerTupleAdd) {
  const size_t kFrames[] = {0, 1, 15, 16, 17, 255, 256, 8192,
                            kMaxBatchTuples};
  size_t stream_size = 0;
  for (const size_t frame : kFrames) stream_size += frame;
  bool past_2_32 = false;
  for (const double skew : {0.0, 0.8, 1.1, 1.5}) {
    const std::vector<Tuple> stream = WeightedStream(skew, stream_size);
    for (const uint32_t n : {1u, 2u, 3u, 4u, 7u, 16u, 256u}) {
      const ShardRouter router(n);
      for (const size_t head_keys : {0u, 1u, 32u, 33u, 1024u}) {
        SCOPED_TRACE(testing::Message() << "skew " << skew << " shards " << n
                                        << " head " << head_keys);
        const auto heads = TopKeyHeads(stream, router, head_keys);
        size_t at = 0;
        for (const size_t frame : kFrames) {
          SCOPED_TRACE(testing::Message() << "frame " << frame);
          ExpectSplitMatchesAdd({stream.data() + at, frame}, router, heads);
          at += frame;
        }
        // Heads need not be consistent with routing: a head key of
        // another shard, or one no tuple carries, gets a zero total.
        std::vector<std::shared_ptr<const HeadIndex>> stray(n);
        for (uint32_t s = 0; s < n; ++s) {
          std::vector<item_t> keys(heads[(s + 1) % n]->keys().begin(),
                                   heads[(s + 1) % n]->keys().end());
          keys.push_back(~item_t{0} - s);
          stray[s] = std::make_shared<const HeadIndex>(std::move(keys));
        }
        ExpectSplitMatchesAdd({stream.data(), 8192}, router, stray);
        if (skew == 1.5 && n == 1 && head_keys == 1) {
          ShardDelta delta(heads[0]);
          for (const Tuple& t : stream) delta.Add(t.key, t.value);
          past_2_32 = delta.head_totals()[0] > (uint64_t{1} << 32);
        }
      }
    }
  }
  EXPECT_TRUE(past_2_32) << "no head total passed 2^32";
}

// The frame split reuses one head index per shard across frames; the
// content check must reject it the moment the filter's key set moves,
// even when its size does not.
TEST(FrameSplitTest, HeadMatchesOnlyTheExactKeySet) {
  ASketchConfig config;
  config.total_bytes = 32 * 1024;
  config.width = 4;
  config.filter_items = 4;
  config.seed = 3;
  auto sketch = MakeASketchCountMin<RelaxedHeapFilter>(config);
  const auto empty = sketch.HeadSnapshot();
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_TRUE(sketch.HeadMatches(*empty));

  for (item_t key = 1; key <= 3; ++key) sketch.Update(key, 10);
  EXPECT_FALSE(sketch.HeadMatches(*empty));
  const auto three = sketch.HeadSnapshot();
  EXPECT_EQ(std::vector<item_t>(three->keys().begin(), three->keys().end()),
            (std::vector<item_t>{1, 2, 3}));
  sketch.Update(2, 5);  // counts move, membership does not
  EXPECT_TRUE(sketch.HeadMatches(*three));

  sketch.Update(9, 1);  // free-slot admission: the set grows
  EXPECT_FALSE(sketch.HeadMatches(*three));
  const auto four = sketch.HeadSnapshot();
  EXPECT_EQ(std::vector<item_t>(four->keys().begin(), four->keys().end()),
            (std::vector<item_t>{1, 2, 3, 9}));
  EXPECT_TRUE(sketch.HeadMatches(*four));

  // An exchange on a full filter: same size, one key swapped.
  sketch.Update(50, 100);
  ASSERT_GE(sketch.filter().Find(50), 0) << "exchange premise broken";
  ASSERT_EQ(sketch.filter().size(), 4u);
  EXPECT_FALSE(sketch.HeadMatches(*four));
  const auto swapped = sketch.HeadSnapshot();
  EXPECT_TRUE(sketch.HeadMatches(*swapped));
  EXPECT_TRUE(swapped->Contains(50));
  EXPECT_FALSE(swapped->Contains(9));

  // Another set of the same size never matches.
  EXPECT_FALSE(sketch.HeadMatches(HeadIndex({1, 2, 3, 4})));
}

#ifndef ASKETCH_NO_TELEMETRY
// A ShardSet keeps one split index across frames. After an exchange
// moves a head, the next frame's deltas must carry the new head: only
// then does the owner see its filter unchanged since the snapshot and
// apply the misses as sketch blocks (asketch_block_updates_total). A
// stale index would send them through the walk.
TEST(FrameSplitTest, ShardSetSplitsOnTheMovedHead) {
  if (!CountMin::kBlockKernel) GTEST_SKIP() << "no block kernel";
  ShardSetOptions options;
  options.num_shards = 2;
  options.shard_config.total_bytes = 32 * 1024;
  options.shard_config.width = 4;
  options.shard_config.filter_items = 4;
  options.shard_config.seed = 3;
  ShardSet shards(options);
  const ShardRouter router(options.num_shards);
  std::vector<item_t> shard0;
  for (item_t key = 0; shard0.size() < 200; ++key) {
    if (router(key) == 0) shard0.push_back(key);
  }
  std::vector<Tuple> frame;
  for (size_t i = 0; i < 4; ++i) frame.push_back(Tuple{shard0[i], 1000});
  shards.Ingest(frame);  // shard 0's filter: shard0[0..3]
  shards.Drain();
  std::vector<Tuple> misses;
  for (size_t i = 100; i < 200; ++i) misses.push_back(Tuple{shard0[i], 1});
  obs::Counter& block_updates = obs::IngestMetrics::Get().block_updates;

  uint64_t before = block_updates.Value();
  shards.Ingest(misses);
  shards.Drain();
  EXPECT_EQ(block_updates.Value() - before, misses.size());

  // shard0[4] wins an exchange against a filter minimum of 1000.
  shards.Ingest(std::vector<Tuple>{{shard0[4], 5000}});
  shards.Drain();
  const std::vector<TopKEntry> top = shards.TopK(8);
  ASSERT_TRUE(std::any_of(top.begin(), top.end(), [&](const TopKEntry& e) {
    return e.key == shard0[4];
  })) << "exchange premise broken";

  before = block_updates.Value();
  shards.Ingest(misses);
  shards.Drain();
  EXPECT_EQ(block_updates.Value() - before, misses.size())
      << "the frame was split on the stale head";
}
#endif  // !ASKETCH_NO_TELEMETRY

TEST(FrameSplitTest, HeadIndexRanksAreAscendingKeyOrder) {
  const HeadIndex head({42, 7, 99, 7, 0, ~item_t{0}});
  ASSERT_EQ(head.size(), 5u);
  const std::vector<item_t> want{0, 7, 42, 99, ~item_t{0}};
  EXPECT_EQ(std::vector<item_t>(head.keys().begin(), head.keys().end()),
            want);
  for (size_t rank = 0; rank < want.size(); ++rank) {
    EXPECT_EQ(head.Rank(want[rank]), static_cast<int32_t>(rank));
  }
  for (const item_t key : {item_t{1}, item_t{8}, item_t{100}}) {
    EXPECT_EQ(head.Rank(key), -1) << "key " << key;
  }
  const HeadIndex none(std::vector<item_t>{});
  EXPECT_EQ(none.Rank(0), -1);
}

}  // namespace
}  // namespace net
}  // namespace asketch
