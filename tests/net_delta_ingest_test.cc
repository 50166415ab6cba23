// ShardSet ingest (src/net/shard_set.{h,cc}): equality with serial
// per-shard UpdateBatch under a stable head for both backends,
// flush/drain barrier semantics, the overload paths, snapshot
// round-trips, read-your-writes sessions, and — under TSan —
// concurrent decode threads building deltas, stable-head and churning,
// while lock-free readers and read-your-writes sessions query.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/serialize.h"
#include "src/net/shard_set.h"
#include "src/workload/exact_counter.h"
#include "src/workload/stream_generator.h"

namespace asketch {
namespace net {
namespace {

constexpr uint32_t kFilterItems = 16;
constexpr uint32_t kDomain = 4096;

ShardSetOptions BaseOptions(SketchBackend backend) {
  ShardSetOptions options;
  options.num_shards = 4;
  options.backend = backend;
  options.shard_config.total_bytes = 32 * 1024;
  options.shard_config.width = 4;
  options.shard_config.filter_items = kFilterItems;
  options.shard_config.seed = 99;
  return options;
}

/// Heavy warm-up tuples: exactly kFilterItems keys per shard, at
/// weights no tail estimate can beat, so every shard's filter fills and
/// its head stays stable for the rest of the test.
std::vector<Tuple> WarmupTuples(uint32_t num_shards) {
  std::vector<Tuple> tuples;
  std::vector<uint32_t> per_shard(num_shards);
  for (item_t key = 0; tuples.size() < num_shards * kFilterItems; ++key) {
    if (per_shard[ShardOf(key, num_shards)]++ < kFilterItems) {
      tuples.push_back(Tuple{key, 1 << 20});
    }
  }
  return tuples;
}

std::vector<Tuple> PayloadTuples(uint64_t seed) {
  StreamSpec spec;
  spec.stream_size = 30000;
  spec.num_distinct = kDomain;
  spec.skew = 1.1;
  spec.seed = seed;
  return GenerateStream(spec);
}

uint64_t TotalApplied(const ShardSet& shards) {
  uint64_t total = 0;
  for (uint32_t i = 0; i < shards.num_shards(); ++i) {
    total += shards.AppliedTuples(i);
  }
  return total;
}

/// The shards of a SerializeState payload, parsed back into synopses
/// (the ShardSet exposes no shard internals, its snapshot format does).
template <typename ServingT>
std::vector<ServingT> ParseShards(std::span<const uint8_t> payload) {
  BinaryReader reader(payload.data(), payload.size());
  uint32_t magic = 0;
  uint32_t count = 0;
  uint64_t shed = 0;
  uint64_t inline_applied = 0;
  EXPECT_TRUE(reader.GetU32(&magic) && reader.GetU32(&count) &&
              reader.GetU64(&shed) && reader.GetU64(&inline_applied));
  std::vector<ServingT> shards;
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t applied = 0;
    EXPECT_TRUE(reader.GetU64(&applied));
    auto shard = ServingT::DeserializeFrom(reader);
    EXPECT_TRUE(shard.has_value());
    if (!shard.has_value()) break;
    shards.push_back(*std::move(shard));
  }
  return shards;
}

/// The one-path equality law (ALGORITHMS.md §7): under a stable head,
/// `frame`-tuple Ingest slices plus Drain leave every shard in the
/// state serial ASketch::UpdateBatch over that shard's tuples produces —
/// estimates over the whole domain, the filter's entries and counters,
/// the split stats, and the sketch cells. With `caller_state` the
/// slices join a caller-held DeltaIngestState, the last of them left
/// for FlushDeltas; without, each slice is one null-state Ingest, the
/// frame split the server runs per UPDATE frame.
template <typename ServingT, typename MakeFn>
void ExpectStableHeadMatchesSerial(SketchBackend backend, MakeFn make,
                                   size_t frame, bool caller_state) {
  SCOPED_TRACE(testing::Message() << "frame " << frame << " caller state "
                                  << caller_state);
  const ShardSetOptions options = BaseOptions(backend);
  ShardSet shards(options);
  const uint32_t n = options.num_shards;
  const std::vector<Tuple> warmup = WarmupTuples(n);
  const std::vector<Tuple> payload = PayloadTuples(31);
  shards.Ingest(warmup);
  shards.Drain();
  DeltaIngestState state = shards.MakeDeltaState();
  for (size_t begin = 0; begin < payload.size(); begin += frame) {
    const size_t count = std::min(frame, payload.size() - begin);
    shards.Ingest(std::span<const Tuple>(payload.data() + begin, count),
                  caller_state ? &state : nullptr);
  }
  shards.FlushDeltas(state);
  shards.Drain();
  EXPECT_EQ(TotalApplied(shards), warmup.size() + payload.size());

  std::vector<ServingT> serial;
  std::vector<std::vector<Tuple>> per_shard(n);
  for (uint32_t i = 0; i < n; ++i) serial.push_back(make(options.shard_config));
  for (const Tuple& t : warmup) per_shard[ShardOf(t.key, n)].push_back(t);
  for (uint32_t i = 0; i < n; ++i) serial[i].UpdateBatch(per_shard[i]);
  for (auto& part : per_shard) part.clear();
  for (const Tuple& t : payload) per_shard[ShardOf(t.key, n)].push_back(t);
  for (uint32_t i = 0; i < n; ++i) serial[i].UpdateBatch(per_shard[i]);

  const std::vector<ServingT> applied =
      ParseShards<ServingT>(shards.SerializeState());
  ASSERT_EQ(applied.size(), n);
  for (uint32_t i = 0; i < n; ++i) {
    const ASketchStats& want = serial[i].stats();
    const ASketchStats& got = applied[i].stats();
    EXPECT_EQ(want.exchanges, 0u) << "stable-head premise broken";
    EXPECT_EQ(got.exchanges, 0u);
    EXPECT_EQ(got.filtered_weight, want.filtered_weight) << "shard " << i;
    EXPECT_EQ(got.sketch_weight, want.sketch_weight) << "shard " << i;
    EXPECT_EQ(got.sketch_updates, want.sketch_updates) << "shard " << i;
    const std::vector<FilterEntry> want_top = serial[i].TopK();
    const std::vector<FilterEntry> got_top = applied[i].TopK();
    ASSERT_EQ(got_top.size(), want_top.size());
    for (size_t j = 0; j < want_top.size(); ++j) {
      EXPECT_EQ(got_top[j].key, want_top[j].key);
      EXPECT_EQ(got_top[j].new_count, want_top[j].new_count);
      EXPECT_EQ(got_top[j].old_count, want_top[j].old_count);
    }
    // Equal sketch bytes mean equal cells, so equal row sums too.
    BinaryWriter want_cells;
    BinaryWriter got_cells;
    ASSERT_TRUE(serial[i].sketch().SerializeTo(want_cells));
    ASSERT_TRUE(applied[i].sketch().SerializeTo(got_cells));
    EXPECT_EQ(got_cells.buffer(), want_cells.buffer()) << "shard " << i;
    if constexpr (requires { serial[i].sketch().RowSum(0); }) {
      for (uint32_t row = 0; row < serial[i].sketch().width(); ++row) {
        EXPECT_EQ(applied[i].sketch().RowSum(row),
                  serial[i].sketch().RowSum(row));
      }
    }
  }
  for (item_t key = 0; key < kDomain; ++key) {
    ASSERT_EQ(shards.Estimate(key), serial[ShardOf(key, n)].Estimate(key))
        << "key " << key;
  }
}

ServingSketch MakeCountMin(const ASketchConfig& config) {
  return MakeASketchCountMin<RelaxedHeapFilter>(config);
}

ServingSketchSalsa MakeSalsa(const ASketchConfig& config) {
  return MakeASketchSalsa<RelaxedHeapFilter>(config);
}

// UPDATE-sized slices into a caller-held state, and null-state frames of
// 1, 17 and 8192 tuples (the frame split).
TEST(NetDeltaIngestTest, StableHeadMatchesSerialUpdateBatchCountMin) {
  ExpectStableHeadMatchesSerial<ServingSketch>(SketchBackend::kCountMin,
                                               MakeCountMin, 997, true);
  for (const size_t frame : {1u, 17u, 8192u}) {
    ExpectStableHeadMatchesSerial<ServingSketch>(SketchBackend::kCountMin,
                                                 MakeCountMin, frame, false);
  }
}

TEST(NetDeltaIngestTest, StableHeadMatchesSerialUpdateBatchSalsa) {
  ExpectStableHeadMatchesSerial<ServingSketchSalsa>(SketchBackend::kSalsa,
                                                    MakeSalsa, 997, true);
  for (const size_t frame : {1u, 17u, 8192u}) {
    ExpectStableHeadMatchesSerial<ServingSketchSalsa>(
        SketchBackend::kSalsa, MakeSalsa, frame, false);
  }
}

TEST(NetDeltaIngestTest, SalsaDeltaModeStaysOneSided) {
  ShardSet shards(BaseOptions(SketchBackend::kSalsa));
  ExactCounter truth(kDomain);
  const std::vector<Tuple> payload = PayloadTuples(37);
  for (const Tuple& t : payload) {
    truth.Update(t.key, static_cast<delta_t>(t.value));
  }
  DeltaIngestState state = shards.MakeDeltaState();
  shards.Ingest(payload, &state);
  shards.FlushDeltas(state);
  shards.Drain();
  for (item_t key = 0; key < kDomain; ++key) {
    ASSERT_GE(static_cast<wide_count_t>(shards.Estimate(key)),
              truth.Count(key))
        << "key " << key;
  }
}

TEST(NetDeltaIngestTest, TuplesBecomeVisibleOnlyAtFlush) {
  ShardSet shards(BaseOptions(SketchBackend::kCountMin));
  DeltaIngestState state = shards.MakeDeltaState();
  // Far below ShardSetOptions::delta_flush_tuples: no auto-flush.
  std::vector<Tuple> tuples;
  for (item_t key = 0; key < 100; ++key) tuples.push_back(Tuple{key, 7});
  shards.Ingest(tuples, &state);
  shards.Drain();
  // Still private to the accumulator: nothing queued, nothing applied.
  EXPECT_EQ(state.PendingTuples(), tuples.size());
  EXPECT_EQ(TotalApplied(shards), 0u);
  shards.FlushDeltas(state);
  shards.Drain();
  EXPECT_EQ(state.PendingTuples(), 0u);
  EXPECT_EQ(TotalApplied(shards), tuples.size());
  for (item_t key = 0; key < 100; ++key) {
    EXPECT_GE(shards.Estimate(key), 7u);
  }
}

TEST(NetDeltaIngestTest, AutoFlushHonorsEpochThreshold) {
  ShardSet shards(BaseOptions(SketchBackend::kCountMin));
  DeltaIngestState state = shards.MakeDeltaState();
  constexpr uint64_t kFlush = ShardSetOptions::delta_flush_tuples;
  constexpr size_t kSlice = 1000;
  std::vector<Tuple> payload;
  for (item_t key = 0; payload.size() < 3 * 4 * kFlush; ++key) {
    payload.push_back(Tuple{key % kDomain, 1});
  }
  for (size_t begin = 0; begin < payload.size(); begin += kSlice) {
    const size_t count = std::min(kSlice, payload.size() - begin);
    shards.Ingest(std::span<const Tuple>(payload.data() + begin, count),
                  &state);
  }
  // Each shard saw about three epochs of tuples. Ingest flushes a
  // shard's delta at the end of the slice that takes it past the
  // threshold, so less than one epoch per shard stays private.
  const uint64_t pending = state.PendingTuples();
  EXPECT_LT(pending, 4 * kFlush);
  shards.Drain();
  EXPECT_EQ(TotalApplied(shards), payload.size() - pending);
  shards.FlushDeltas(state);
  shards.Drain();
  EXPECT_EQ(TotalApplied(shards), payload.size());
}

TEST(NetDeltaIngestTest, ShedOverloadAccountsDeltaWeight) {
  ShardSetOptions options =
      BaseOptions(SketchBackend::kCountMin);
  options.overload = OverloadPolicy::kShed;
  options.max_queue_batches = 1;
  options.max_enqueue_wait_ms = 1;
  ShardSet shards(options);
  shards.StallWorkersForTesting(true);
  DeltaIngestState state = shards.MakeDeltaState();
  std::vector<Tuple> tuples;
  for (item_t key = 0; key < 512; ++key) tuples.push_back(Tuple{key, 3});
  shards.Ingest(tuples, &state);
  uint64_t shed = shards.FlushDeltas(state);
  // One delta per shard fits the queue; flushing again with fresh
  // tuples must shed and report the dropped weight.
  shards.Ingest(tuples, &state);
  shed += shards.FlushDeltas(state);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(shed % 3, 0u);  // whole tuples of weight 3
  shards.StallWorkersForTesting(false);
  shards.Drain();
  const WireStats stats = shards.GetStats();
  EXPECT_EQ(stats.shed_weight, shed);
}

TEST(NetDeltaIngestTest, SnapshotRoundTripsDeltaIngestedState) {
  ShardSet shards(BaseOptions(SketchBackend::kCountMin));
  DeltaIngestState state = shards.MakeDeltaState();
  const std::vector<Tuple> payload = PayloadTuples(43);
  shards.Ingest(payload, &state);
  shards.FlushDeltas(state);
  StateDigest digest;
  const std::vector<uint8_t> payload_bytes = shards.SerializeState(&digest);
  ASSERT_FALSE(payload_bytes.empty());
  EXPECT_EQ(digest.ingested, payload.size());

  ShardSet restored(
      BaseOptions(SketchBackend::kCountMin));
  ASSERT_FALSE(restored.RestoreState(payload_bytes).has_value());
  for (item_t key = 0; key < kDomain; key += 7) {
    EXPECT_EQ(restored.Estimate(key), shards.Estimate(key));
  }
}

// The TSan target: decode threads split frames into deltas and flush
// them per frame, as the server does, while a reader hammers the
// lock-free query paths. Ends with an exactness check on applied counts
// and a one-sidedness check against the union stream.
TEST(NetDeltaIngestTest, ConcurrentDecodeThreadsAndReadersAreSafe) {
  ShardSet shards(BaseOptions(SketchBackend::kCountMin));
  ExactCounter truth(kDomain);
  std::vector<std::vector<Tuple>> streams;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    streams.push_back(PayloadTuples(100 + seed));
    for (const Tuple& t : streams.back()) {
      truth.Update(t.key, static_cast<delta_t>(t.value));
    }
  }
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    uint64_t sink = 0;
    while (!stop_reader.load(std::memory_order_acquire)) {
      sink += shards.Estimate(5);
      sink += shards.TopK(8).size();
    }
    EXPECT_GE(sink, 0u);
  });
  std::vector<std::thread> writers;
  for (const auto& stream : streams) {
    writers.emplace_back([&shards, &stream] {
      for (size_t begin = 0; begin < stream.size(); begin += 503) {
        const size_t count = std::min<size_t>(503, stream.size() - begin);
        shards.Ingest(std::span<const Tuple>(stream.data() + begin, count));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop_reader.store(true, std::memory_order_release);
  reader.join();
  shards.Drain();

  uint64_t expected = 0;
  for (const auto& stream : streams) expected += stream.size();
  EXPECT_EQ(TotalApplied(shards), expected);
  for (item_t key = 0; key < kDomain; ++key) {
    ASSERT_GE(static_cast<wide_count_t>(shards.Estimate(key)),
              truth.Count(key))
        << "key " << key;
  }
}

// The TSan stress case for the frame split: cold filters and a Zipf 0.8
// stream keep exchanges moving every shard's head, so decode threads
// keep rebuilding and sharing head indexes while owners apply deltas
// and a reader answers batched queries. Estimates must stay one-sided
// and the split ledgers must conserve the true mass.
TEST(NetDeltaIngestTest, ChurningHeadDecodeThreadsAndBatchReaderStayExact) {
  ShardSet shards(BaseOptions(SketchBackend::kCountMin));
  ExactCounter truth(kDomain);
  uint64_t true_mass = 0;
  std::vector<std::vector<Tuple>> streams;
  for (uint64_t seed = 0; seed < 2; ++seed) {
    StreamSpec spec;
    spec.stream_size = 40000;
    spec.num_distinct = kDomain;
    spec.skew = 0.8;
    spec.seed = 200 + seed;
    streams.push_back(GenerateStream(spec));
    for (const Tuple& t : streams.back()) {
      truth.Update(t.key, static_cast<delta_t>(t.value));
      true_mass += t.value;
    }
  }
  std::vector<item_t> probes;
  for (item_t key = 0; key < kDomain; key += 3) probes.push_back(key);
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    std::vector<uint64_t> estimates;
    uint64_t batches = 0;
    while (!stop_reader.load(std::memory_order_acquire)) {
      shards.EstimateBatch(probes, &estimates);
      ASSERT_EQ(estimates.size(), probes.size());
      ++batches;
    }
    EXPECT_GT(batches, 0u);
  });
  std::vector<std::thread> writers;
  for (const auto& stream : streams) {
    writers.emplace_back([&shards, &stream] {
      for (size_t begin = 0; begin < stream.size(); begin += 509) {
        const size_t count = std::min<size_t>(509, stream.size() - begin);
        shards.Ingest(std::span<const Tuple>(stream.data() + begin, count));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  shards.Drain();
  stop_reader.store(true, std::memory_order_release);
  reader.join();

  const WireStats stats = shards.GetStats();
  EXPECT_GT(stats.exchanges, 0u) << "churn premise broken";
  EXPECT_EQ(stats.filtered_weight + stats.sketch_weight, true_mass);
  EXPECT_EQ(TotalApplied(shards), streams[0].size() + streams[1].size());
  std::vector<item_t> all(kDomain);
  for (item_t key = 0; key < kDomain; ++key) all[key] = key;
  std::vector<uint64_t> estimates;
  shards.EstimateBatch(all, &estimates);
  for (item_t key = 0; key < kDomain; ++key) {
    ASSERT_GE(estimates[key], truth.Count(key)) << "key " << key;
  }
}

// Two bulk decode threads ingest without a session while two sessions
// each write a fresh key and read it back. Every read-back counts the
// session's own weight unless the overload policy shed it, and the
// applied plus shed tuples add up to everything sent.
void RunSessionsBesideBulkWriters(OverloadPolicy overload) {
  ShardSetOptions options = BaseOptions(SketchBackend::kCountMin);
  options.overload = overload;
  options.max_queue_batches = 2;
  options.max_enqueue_wait_ms = 1;
  ShardSet shards(options);
  ExactCounter truth(kDomain);
  std::vector<std::vector<Tuple>> streams;
  for (uint64_t seed = 0; seed < 2; ++seed) {
    streams.push_back(PayloadTuples(300 + seed));
    for (const Tuple& t : streams.back()) {
      truth.Update(t.key, static_cast<delta_t>(t.value));
    }
  }
  std::atomic<uint64_t> shed{0};
  std::vector<std::thread> threads;
  for (const auto& stream : streams) {
    threads.emplace_back([&shards, &shed, &stream] {
      for (size_t begin = 0; begin < stream.size(); begin += 499) {
        const size_t count = std::min<size_t>(499, stream.size() - begin);
        shed += shards.Ingest(
            std::span<const Tuple>(stream.data() + begin, count));
      }
    });
  }
  constexpr uint32_t kSessionKeys = 200;
  constexpr uint32_t kOwnWeight = 5;
  std::atomic<uint64_t> session_tuples{0};
  for (uint32_t session = 0; session < 2; ++session) {
    threads.emplace_back([&, session] {
      OwnWrites own_writes(shards);
      for (uint32_t j = 0; j < kSessionKeys; ++j) {
        // Fresh keys above the payload domain, disjoint per session.
        const item_t key = kDomain + session * kSessionKeys + j;
        const std::vector<Tuple> frame(kOwnWeight, Tuple{key, 1});
        const uint64_t frame_shed = shards.Ingest(frame, nullptr, &own_writes);
        shed += frame_shed;
        session_tuples += frame.size();
        shards.AwaitOwnWrites(own_writes);
        if (frame_shed == 0) {
          ASSERT_GE(shards.Estimate(key), kOwnWeight) << "key " << key;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  shards.Drain();

  const WireStats stats = shards.GetStats();
  EXPECT_EQ(stats.shed_weight, shed.load());
  EXPECT_EQ(stats.ingested + stats.shed_weight,
            streams[0].size() + streams[1].size() + session_tuples.load());
  if (overload == OverloadPolicy::kInlineApply) {
    EXPECT_EQ(stats.shed_weight, 0u);
    for (item_t key = 0; key < kDomain; ++key) {
      ASSERT_GE(static_cast<wide_count_t>(shards.Estimate(key)),
                truth.Count(key))
          << "key " << key;
    }
  }
}

TEST(NetDeltaIngestTest, SessionsReadOwnWritesBesideBulkWritersInline) {
  RunSessionsBesideBulkWriters(OverloadPolicy::kInlineApply);
}

TEST(NetDeltaIngestTest, SessionsReadOwnWritesBesideBulkWritersShed) {
  RunSessionsBesideBulkWriters(OverloadPolicy::kShed);
}

// A reader applying its own delta has popped it, so the queue is empty
// while the delta is not yet applied; Drain must still wait for it.
TEST(NetDeltaIngestTest, DrainWaitsForAReaderMidApply) {
  ShardSetOptions options = BaseOptions(SketchBackend::kCountMin);
  options.num_shards = 1;
  ShardSet shards(options);
  shards.StallWorkersForTesting(true);
  // Distinct keys: the filter takes the first few, and every other
  // tuple walks the sketch, so the apply runs for milliseconds.
  std::vector<Tuple> frame;
  for (item_t key = 1; key <= 1000000; ++key) frame.push_back(Tuple{key, 1});
  OwnWrites own_writes(shards);
  shards.Ingest(frame, nullptr, &own_writes);
  ASSERT_EQ(shards.AppliedTuples(0), 0u);

  std::thread reader([&] { shards.AwaitOwnWrites(own_writes); });
  // The first key reads non-zero once the reader's apply has begun.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (shards.Estimate(frame[0].key) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
  }
  shards.Drain();
  EXPECT_EQ(shards.AppliedTuples(0), frame.size());
  reader.join();
  shards.StallWorkersForTesting(false);
}

}  // namespace
}  // namespace net
}  // namespace asketch
