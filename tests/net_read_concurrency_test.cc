// Concurrent read/write equivalence tests for the lock-free serving
// read path (ShardSet::Estimate / EstimateBatch / TopK against live
// ingest workers). The checks are oracle-bracketed rather than exact:
// AppliedTuples(shard) only advances at sub-batch boundaries, so a
// reader can bracket each query with the boundary observed before (b1)
// and after (b2) the call and require the answer to fall between the
// reference answers at prefix b1 and prefix b2+1 — the strongest
// statement that holds while a worker is mid-batch. The reference is a
// second ServingSketch replaying the same per-shard sub-batch sequence
// offline (deterministic: Ingest splits preserve arrival order, and a
// delta reaches its shard only through the queue, so the worker applies
// exactly that sequence).
//
// This test runs in the TSan CI job (.github/workflows/ci.yml): the
// seqlock and the relaxed cell loads are fence-free and fully atomic,
// so the same binary that proves bracketing also proves race-freedom.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/net/shard_set.h"

namespace asketch {
namespace net {
namespace {

/// xorshift64* — deterministic stream without pulling in the workload
/// generator (keys must be re-derivable by the oracle).
uint64_t NextRand(uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 2685821657736338717ull;
}

struct OracleStream {
  /// batches[b] is the b-th Ingest call's payload.
  std::vector<std::vector<Tuple>> batches;
  /// cumulative[s][b]: tuples owned by shard s in the first b batches —
  /// the only values AppliedTuples(s) can ever return here.
  std::vector<std::vector<uint64_t>> cumulative;
  /// answers[s][b][p]: reference estimate of probe p against shard s's
  /// state after its prefix of b batches (only meaningful when probe p
  /// is owned by shard s).
  std::vector<std::vector<std::vector<count_t>>> answers;
  std::vector<item_t> probes;
};

/// Builds a skewed stream (small universe, so filter<->sketch exchanges
/// actually fire) and replays it per shard through a reference
/// ServingSketch, recording the estimate of every probe key at every
/// sub-batch boundary.
OracleStream BuildOracle(const ShardSetOptions& options, uint32_t num_batches,
                         uint32_t batch_size, uint32_t universe,
                         uint32_t num_probes) {
  const uint32_t n = options.num_shards;
  OracleStream oracle;
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  oracle.batches.resize(num_batches);
  for (auto& batch : oracle.batches) {
    batch.reserve(batch_size);
    for (uint32_t i = 0; i < batch_size; ++i) {
      // Squaring the draw skews mass toward low keys: hot keys pass
      // through the sketch, outgrow the filter minimum, and exchange in.
      const uint64_t draw = NextRand(rng) % universe;
      batch.push_back(
          Tuple{static_cast<item_t>((draw * draw) % universe), 1});
    }
  }
  oracle.probes.reserve(num_probes);
  for (uint32_t p = 0; p < num_probes; ++p) {
    // Half hot (small keys), half across the universe (sketch-resident).
    oracle.probes.push_back(p % 2 == 0 ? p / 2
                                       : (NextRand(rng) % universe));
  }
  oracle.cumulative.assign(n, std::vector<uint64_t>(num_batches + 1, 0));
  oracle.answers.assign(
      n, std::vector<std::vector<count_t>>(
             num_batches + 1, std::vector<count_t>(num_probes, 0)));
  for (uint32_t s = 0; s < n; ++s) {
    ServingSketch ref =
        MakeASketchCountMin<RelaxedHeapFilter>(options.shard_config);
    std::vector<Tuple> sub;
    for (uint32_t b = 0; b < num_batches; ++b) {
      sub.clear();
      for (const Tuple& t : oracle.batches[b]) {
        if (ShardOf(t.key, n) == s) sub.push_back(t);
      }
      if (!sub.empty()) ref.UpdateBatch(sub);
      oracle.cumulative[s][b + 1] = oracle.cumulative[s][b] + sub.size();
      for (uint32_t p = 0; p < num_probes; ++p) {
        oracle.answers[s][b + 1][p] = ref.Estimate(oracle.probes[p]);
      }
    }
  }
  return oracle;
}

/// Index of the boundary whose cumulative count equals `applied` (the
/// last such boundary; empty sub-batches repeat the value with an
/// unchanged reference state, so the ambiguity is answer-preserving).
uint32_t BoundaryAt(const std::vector<uint64_t>& cumulative,
                    uint64_t applied) {
  const auto it =
      std::upper_bound(cumulative.begin(), cumulative.end(), applied);
  return static_cast<uint32_t>(it - cumulative.begin()) - 1;
}

/// First boundary strictly past `applied` — the post-state of the
/// sub-batch a worker may have been applying while the reader raced it
/// (the bump happens after application, so the in-flight sub-batch is
/// at most the one producing this boundary).
uint32_t BoundaryAfter(const std::vector<uint64_t>& cumulative,
                       uint64_t applied) {
  const auto it =
      std::upper_bound(cumulative.begin(), cumulative.end(), applied);
  if (it == cumulative.end()) {
    return static_cast<uint32_t>(cumulative.size()) - 1;
  }
  return static_cast<uint32_t>(it - cumulative.begin());
}

ShardSetOptions SmallShards() {
  ShardSetOptions options;
  options.num_shards = 2;
  options.shard_config.total_bytes = 16 * 1024;
  options.shard_config.filter_items = 8;  // small filter → many exchanges
  // One batch per queue: every Ingest after the first waits for the
  // worker to pop, so the readers race a set whose queues stay full.
  // Waiting keeps queue order, which is what the oracle replays.
  options.max_queue_batches = 1;
  return options;
}

TEST(NetReadConcurrencyTest, EstimateBracketedByOracleDuringIngest) {
  const ShardSetOptions options = SmallShards();
  constexpr uint32_t kBatches = 192;
  constexpr uint32_t kBatchSize = 128;
  const OracleStream oracle =
      BuildOracle(options, kBatches, kBatchSize, /*universe=*/256,
                  /*num_probes=*/32);
  ShardSet set(options);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> queries{0};
  auto reader = [&] {
    const uint32_t n = options.num_shards;
    while (!done.load(std::memory_order_acquire)) {
      for (uint32_t p = 0; p < oracle.probes.size(); ++p) {
        const item_t key = oracle.probes[p];
        const uint32_t s = ShardOf(key, n);
        const uint64_t a1 = set.AppliedTuples(s);
        const count_t got = set.Estimate(key);
        const uint64_t a2 = set.AppliedTuples(s);
        const uint32_t b1 = BoundaryAt(oracle.cumulative[s], a1);
        const uint32_t b2 = BoundaryAfter(oracle.cumulative[s], a2);
        const count_t lo = oracle.answers[s][b1][p];
        const count_t hi = oracle.answers[s][b2][p];
        queries.fetch_add(1, std::memory_order_relaxed);
        if (got < lo || got > hi) {
          violations.fetch_add(1, std::memory_order_relaxed);
          ADD_FAILURE() << "key " << key << " estimate " << got
                        << " outside oracle bracket [" << lo << ", " << hi
                        << "] (boundaries " << b1 << ".." << b2 << ")";
        }
      }
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);
  for (const auto& batch : oracle.batches) {
    set.Ingest(batch);
  }
  set.Drain();
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(queries.load(), 0u);

  // Quiescent: every probe must now answer exactly the full-prefix
  // oracle value.
  for (uint32_t p = 0; p < oracle.probes.size(); ++p) {
    const uint32_t s = ShardOf(oracle.probes[p], options.num_shards);
    EXPECT_EQ(set.Estimate(oracle.probes[p]),
              oracle.answers[s][kBatches][p])
        << "probe " << oracle.probes[p];
  }
}

TEST(NetReadConcurrencyTest, EstimateBatchBracketedByOracleDuringIngest) {
  const ShardSetOptions options = SmallShards();
  constexpr uint32_t kBatches = 128;
  const OracleStream oracle =
      BuildOracle(options, kBatches, /*batch_size=*/128, /*universe=*/256,
                  /*num_probes=*/32);
  ShardSet set(options);
  const uint32_t n = options.num_shards;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};
  auto reader = [&] {
    std::vector<uint64_t> a1(n), a2(n), estimates;
    while (!done.load(std::memory_order_acquire)) {
      // The whole batched call is bracketed per shard: every key's
      // answer must fall inside its own shard's bracket.
      for (uint32_t s = 0; s < n; ++s) a1[s] = set.AppliedTuples(s);
      set.EstimateBatch(oracle.probes, &estimates);
      for (uint32_t s = 0; s < n; ++s) a2[s] = set.AppliedTuples(s);
      ASSERT_EQ(estimates.size(), oracle.probes.size());
      for (uint32_t p = 0; p < oracle.probes.size(); ++p) {
        const uint32_t s = ShardOf(oracle.probes[p], n);
        const count_t lo =
            oracle.answers[s][BoundaryAt(oracle.cumulative[s], a1[s])][p];
        const count_t hi =
            oracle
                .answers[s][BoundaryAfter(oracle.cumulative[s], a2[s])][p];
        if (estimates[p] < lo || estimates[p] > hi) {
          violations.fetch_add(1, std::memory_order_relaxed);
          ADD_FAILURE() << "key " << oracle.probes[p] << " batch answer "
                        << estimates[p] << " outside [" << lo << ", " << hi
                        << "]";
        }
      }
    }
  };
  std::thread r1(reader);
  for (const auto& batch : oracle.batches) set.Ingest(batch);
  set.Drain();
  done.store(true, std::memory_order_release);
  r1.join();
  EXPECT_EQ(violations.load(), 0u);

  // Quiescent batched answers equal per-key answers equal the oracle.
  std::vector<uint64_t> estimates;
  set.EstimateBatch(oracle.probes, &estimates);
  for (uint32_t p = 0; p < oracle.probes.size(); ++p) {
    EXPECT_EQ(estimates[p], set.Estimate(oracle.probes[p]));
  }
}

TEST(NetReadConcurrencyTest, TopKStaysWellFormedDuringIngest) {
  const ShardSetOptions options = SmallShards();
  constexpr uint32_t kBatches = 128;
  constexpr uint32_t kBatchSize = 128;
  const OracleStream oracle =
      BuildOracle(options, kBatches, kBatchSize, /*universe=*/128,
                  /*num_probes=*/8);
  ShardSet set(options);
  const uint64_t total_weight =
      static_cast<uint64_t>(kBatches) * kBatchSize;

  std::atomic<bool> done{false};
  auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<TopKEntry> top = set.TopK(16);
      EXPECT_LE(top.size(), 16u);
      for (size_t i = 0; i < top.size(); ++i) {
        // The clamp under test: exact_hits = new_count - old_count must
        // never wrap, and a validated filter snapshot can never report
        // more exact hits than its estimate.
        EXPECT_LE(top[i].exact_hits, top[i].estimate);
        // All tuple weights are 1, and a filter entry's new_count is at
        // most the sketch estimate at adoption plus its filter-era hits
        // — bounded by the whole stream's weight.
        EXPECT_LE(top[i].estimate, total_weight);
        if (i > 0) {
          EXPECT_LE(top[i].estimate, top[i - 1].estimate);
        }
      }
    }
  };
  std::thread r1(reader);
  for (const auto& batch : oracle.batches) set.Ingest(batch);
  set.Drain();
  done.store(true, std::memory_order_release);
  r1.join();

  // Quiescent: the merged report equals the union of the per-shard
  // reference filters, sorted by descending estimate.
  std::vector<TopKEntry> top = set.TopK(64);
  for (const TopKEntry& e : top) {
    const uint32_t s = ShardOf(e.key, options.num_shards);
    EXPECT_EQ(e.estimate, set.Estimate(e.key));
    EXPECT_LE(e.exact_hits, e.estimate);
    (void)s;
  }
}

}  // namespace
}  // namespace net
}  // namespace asketch
