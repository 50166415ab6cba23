// End-to-end tests for the asketchd serving core: lifecycle, HELLO
// negotiation over the wire (including mismatch and hello-required
// rejection), single-client determinism against an in-process ShardSet
// oracle under a stable head, one-sidedness and conservation under head
// churn, concurrent-client conservation, garbage-resilience, waits on
// a full shard queue, snapshot/recover bit-identity, all-or-nothing
// restore of truncated payloads, the background checkpoint loop,
// read-your-writes on a connection, and the reaping of finished
// connection threads.

#include "src/net/server.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/serialize.h"
#include "src/common/snapshot.h"
#include "src/net/client.h"
#include "src/net/shard_set.h"
#include "src/obs/metrics.h"
#include "src/workload/exact_counter.h"
#include "src/workload/stream_generator.h"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define ASKETCH_NET_TESTS 1
#else
#define ASKETCH_NET_TESTS 0
#endif

namespace asketch {
namespace net {
namespace {

#if ASKETCH_NET_TESTS

namespace fs = std::filesystem;

ServerOptions SmallServer() {
  ServerOptions options;
  options.shards.num_shards = 4;
  options.shards.shard_config.total_bytes = 32 * 1024;
  return options;
}

std::vector<Tuple> TestStream(uint64_t n, uint64_t seed = 7) {
  StreamSpec spec;
  spec.stream_size = n;
  spec.num_distinct = n / 4 + 16;
  spec.seed = seed;
  return GenerateStream(spec);
}

/// A raw connection that can speak arbitrary bytes — for the handshake
/// and garbage tests the Client class is too well-behaved for.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  bool Send(const std::vector<uint8_t>& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocks until one frame arrives (or the peer closes → nullopt).
  std::optional<Frame> ReadFrame() {
    uint8_t buffer[4096];
    for (;;) {
      if (auto frame = decoder_.Next()) return frame;
      if (decoder_.corrupt()) return std::nullopt;
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) return std::nullopt;
      decoder_.Feed(buffer, static_cast<size_t>(n));
    }
  }

  /// True when the server closed the connection.
  bool WaitClosed() {
    uint8_t buffer[256];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n == 0) return true;
      if (n < 0) return false;
      // drain any pending frames
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

TEST(NetServer, StartStopIdempotent) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  EXPECT_GT(server.port(), 0);
  EXPECT_NE(server.Start(), std::nullopt);  // double start refused
  server.Stop();
  server.Stop();  // idempotent
}

TEST(NetServer, HelloNegotiation) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  EXPECT_EQ(client.negotiated_version(), kProtocolVersionMax);
  EXPECT_EQ(client.server_shards(), 4u);
}

TEST(NetServer, HelloVersionMismatch) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Send(EncodeHelloRequest(
      HelloRequest{kProtocolMagic, kProtocolVersionMax + 1,
                   kProtocolVersionMax + 2})));
  const auto reply = conn.ReadFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, NetStatus::kVersionMismatch);
  EXPECT_TRUE(conn.WaitClosed());
}

TEST(NetServer, OpcodeBeforeHelloRejected) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Send(EncodeStatsRequest()));
  const auto reply = conn.ReadFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, NetStatus::kHelloRequired);
  EXPECT_TRUE(conn.WaitClosed());
}

TEST(NetServer, GarbageStreamDropsConnectionButServerSurvives) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    // A lying length prefix (beyond the cap) poisons the stream.
    std::vector<uint8_t> garbage(64, 0xff);
    ASSERT_TRUE(conn.Send(garbage));
    EXPECT_TRUE(conn.WaitClosed());
  }
  // The server keeps serving fresh connections.
  Client client;
  EXPECT_EQ(client.Connect({.port = server.port()}), std::nullopt);
}

// The wire path must be a pure transport: a server-fed ShardSet and an
// identically configured in-process oracle fed the same frames must end
// bit-identical (equal serialized digests), with equal estimates and
// TOPK reports. Each frame's head snapshot is taken while the owners
// may still be applying earlier frames, so ingest is deterministic only
// under a stable head: a heavy warm-up fills every filter exactly, and
// a barrier makes it resident before the stream starts.
TEST(NetServer, SingleClientMatchesInProcessOracle) {
  const ServerOptions options = SmallServer();
  Server server(options);
  ASSERT_EQ(server.Start(), std::nullopt);
  ShardSet oracle(options.shards);
  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);

  const uint32_t shards = options.shards.num_shards;
  const uint32_t slots = options.shards.shard_config.filter_items;
  std::vector<Tuple> warmup;
  std::vector<uint32_t> per_shard(shards);
  for (item_t key = 0; warmup.size() < shards * slots; ++key) {
    if (per_shard[ShardOf(key, shards)]++ < slots) {
      warmup.push_back(Tuple{key, 1 << 24});
    }
  }
  oracle.Ingest(warmup);
  oracle.Drain();
  ASSERT_EQ(client.Update(warmup), std::nullopt);
  StateDigest warm_digest;
  ASSERT_EQ(client.Digest(&warm_digest), std::nullopt);

  const auto tuples = TestStream(50'000);
  for (size_t offset = 0; offset < tuples.size(); offset += 1000) {
    const size_t n = std::min<size_t>(1000, tuples.size() - offset);
    const std::span<const Tuple> frame(tuples.data() + offset, n);
    oracle.Ingest(frame);
    ASSERT_EQ(client.Update(frame), std::nullopt);
  }
  oracle.Drain();
  ASSERT_EQ(client.Flush(), std::nullopt);
  EXPECT_EQ(client.last_ack().received_tuples,
            warmup.size() + tuples.size());
  EXPECT_EQ(client.last_ack().shed_weight, 0u);

  StateDigest server_digest;
  ASSERT_EQ(client.Digest(&server_digest), std::nullopt);
  StateDigest oracle_digest;
  oracle.SerializeState(&oracle_digest);
  EXPECT_EQ(server_digest.digest, oracle_digest.digest);
  EXPECT_EQ(server_digest.ingested, oracle_digest.ingested);

  // Spot-check point queries and the merged TOPK over the wire.
  std::vector<item_t> keys;
  for (size_t i = 0; i < tuples.size(); i += 997) {
    keys.push_back(tuples[i].key);
  }
  std::vector<uint64_t> estimates;
  ASSERT_EQ(client.QueryBatch(keys, &estimates), std::nullopt);
  ASSERT_EQ(estimates.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(estimates[i], oracle.Estimate(keys[i]));
  }
  std::vector<TopKEntry> wire_topk;
  ASSERT_EQ(client.TopK(16, &wire_topk), std::nullopt);
  const auto oracle_topk = oracle.TopK(16);
  ASSERT_EQ(wire_topk.size(), oracle_topk.size());
  for (size_t i = 0; i < wire_topk.size(); ++i) {
    EXPECT_EQ(wire_topk[i].key, oracle_topk[i].key);
    EXPECT_EQ(wire_topk[i].estimate, oracle_topk[i].estimate);
  }
}

// A cold server fed a stream whose head keeps changing: the state
// depends on how far the owners got when each frame's head snapshot was
// taken, so it is not compared with an oracle. What holds regardless:
// every tuple is received and applied, the filter/sketch split books the
// true mass, and every estimate and TOPK count covers the exact count.
TEST(NetServer, ColdStreamWithHeadChurnStaysOneSidedAndConserved) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);

  const auto tuples = TestStream(50'000);
  const uint32_t domain = 50'000 / 4 + 16;  // TestStream's key range
  ExactCounter truth(domain);
  for (const Tuple& t : tuples) {
    truth.Update(t.key, static_cast<delta_t>(t.value));
  }
  for (size_t offset = 0; offset < tuples.size(); offset += 1000) {
    const size_t n = std::min<size_t>(1000, tuples.size() - offset);
    ASSERT_EQ(client.Update(std::span<const Tuple>(
                  tuples.data() + offset, n)),
              std::nullopt);
  }
  ASSERT_EQ(client.Flush(), std::nullopt);
  EXPECT_EQ(client.last_ack().received_tuples, tuples.size());
  EXPECT_EQ(client.last_ack().shed_weight, 0u);
  StateDigest digest;
  ASSERT_EQ(client.Digest(&digest), std::nullopt);
  EXPECT_EQ(digest.ingested, tuples.size());

  WireStats stats;
  ASSERT_EQ(client.Stats(&stats), std::nullopt);
  EXPECT_GT(stats.exchanges, 0u) << "head churn premise broken";
  EXPECT_EQ(stats.filtered_weight + stats.sketch_weight,
            static_cast<uint64_t>(truth.Total()));

  std::vector<item_t> keys;
  for (item_t key = 0; key < domain; ++key) keys.push_back(key);
  std::vector<uint64_t> estimates;
  ASSERT_EQ(client.QueryBatch(keys, &estimates), std::nullopt);
  ASSERT_EQ(estimates.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_GE(estimates[i], static_cast<uint64_t>(truth.Count(keys[i])))
        << "key " << keys[i];
  }
  std::vector<TopKEntry> topk;
  ASSERT_EQ(client.TopK(16, &topk), std::nullopt);
  ASSERT_FALSE(topk.empty());
  for (const TopKEntry& entry : topk) {
    EXPECT_GE(entry.estimate, static_cast<uint64_t>(truth.Count(entry.key)))
        << "key " << entry.key;
  }
  server.Stop();
}

// Concurrent clients: total ingested tuples are conserved and every
// sampled estimate keeps the one-sided guarantee against an exact
// counter of the union stream.
TEST(NetServer, ConcurrentClientsConserveAndStayOneSided) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);

  constexpr int kClients = 4;
  constexpr uint64_t kPerClient = 20'000;
  std::vector<std::vector<Tuple>> streams;
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(TestStream(kPerClient, /*seed=*/100 + c));
  }
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (auto error = client.Connect({.port = server.port()})) {
        errors[c] = *error;
        return;
      }
      const auto& stream = streams[c];
      for (size_t offset = 0; offset < stream.size(); offset += 500) {
        const size_t n = std::min<size_t>(500, stream.size() - offset);
        if (auto error = client.Update(std::span<const Tuple>(
                stream.data() + offset, n))) {
          errors[c] = *error;
          return;
        }
      }
      if (auto error = client.Flush()) errors[c] = *error;
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& error : errors) EXPECT_EQ(error, "");

  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  StateDigest barrier;
  ASSERT_EQ(client.Digest(&barrier), std::nullopt);  // drains queues
  EXPECT_EQ(barrier.ingested, kClients * kPerClient);

  WireStats stats;
  ASSERT_EQ(client.Stats(&stats), std::nullopt);
  EXPECT_EQ(stats.ingested, kClients * kPerClient);
  EXPECT_EQ(stats.shed_weight, 0u);
  // Unit weights: filter + sketch shares must add up to the stream.
  EXPECT_EQ(stats.filtered_weight + stats.sketch_weight,
            kClients * kPerClient);

  std::unordered_map<item_t, uint64_t> exact;
  for (const auto& stream : streams) {
    for (const Tuple& t : stream) exact[t.key] += t.value;
  }
  std::vector<item_t> keys;
  for (const auto& [key, count] : exact) {
    keys.push_back(key);
    if (keys.size() == 2048) break;
  }
  std::vector<uint64_t> estimates;
  ASSERT_EQ(client.QueryBatch(keys, &estimates), std::nullopt);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_GE(estimates[i], exact[keys[i]])
        << "one-sided guarantee violated for key " << keys[i];
  }
}

TEST(NetServer, SnapshotRecoverBitIdentical) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "asketchd_recover_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = (dir / "ckpt").string();

  ServerOptions options = SmallServer();
  options.snapshot_prefix = prefix;
  StateDigest saved;
  {
    Server server(options);
    ASSERT_EQ(server.Start(), std::nullopt);
    Client client;
    ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
    const auto tuples = TestStream(30'000);
    ASSERT_EQ(client.Update(tuples), std::nullopt);
    ASSERT_EQ(client.Flush(), std::nullopt);
    ASSERT_EQ(client.Snapshot(&saved), std::nullopt);
    EXPECT_GT(saved.generation, 0u);
    EXPECT_EQ(saved.ingested, 30'000u);
    // The snapshot re-adopts the serialized form: the live digest now
    // equals the saved one.
    StateDigest live;
    ASSERT_EQ(client.Digest(&live), std::nullopt);
    EXPECT_EQ(live.digest, saved.digest);
    server.Stop();
  }
  {
    ServerOptions recover_options = options;
    recover_options.recover = true;
    Server server(recover_options);
    ASSERT_EQ(server.Start(), std::nullopt);
    ASSERT_TRUE(server.recovered().has_value());
    EXPECT_EQ(server.recovered()->digest, saved.digest);
    EXPECT_EQ(server.recovered()->ingested, saved.ingested);
    Client client;
    ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
    StateDigest recovered;
    ASSERT_EQ(client.Digest(&recovered), std::nullopt);
    EXPECT_EQ(recovered.digest, saved.digest);
    EXPECT_EQ(recovered.ingested, saved.ingested);
  }
  fs::remove_all(dir);
}

// The salsa backend must serve the full query surface: point queries,
// batch queries, and the merged TOPK, all one-sided against an exact
// counter of the ingested stream.
TEST(NetServer, SalsaBackendServesQueriesAndTopK) {
  ServerOptions options = SmallServer();
  options.shards.backend = SketchBackend::kSalsa;
  Server server(options);
  ASSERT_EQ(server.Start(), std::nullopt);
  ShardSet oracle(options.shards);

  const auto tuples = TestStream(50'000);
  oracle.Ingest(tuples);
  oracle.Drain();

  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  ASSERT_EQ(client.Update(tuples), std::nullopt);
  ASSERT_EQ(client.Flush(), std::nullopt);

  StateDigest server_digest;
  ASSERT_EQ(client.Digest(&server_digest), std::nullopt);
  StateDigest oracle_digest;
  oracle.SerializeState(&oracle_digest);
  EXPECT_EQ(server_digest.digest, oracle_digest.digest);

  std::unordered_map<item_t, uint64_t> exact;
  for (const Tuple& t : tuples) exact[t.key] += t.value;
  std::vector<item_t> keys;
  std::vector<uint64_t> estimates;
  for (const auto& [key, count] : exact) keys.push_back(key);
  ASSERT_EQ(client.QueryBatch(keys, &estimates), std::nullopt);
  ASSERT_EQ(estimates.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_GE(estimates[i], exact[keys[i]]) << "key " << keys[i];
    EXPECT_EQ(estimates[i], oracle.Estimate(keys[i]));
  }
  std::vector<TopKEntry> wire_topk;
  ASSERT_EQ(client.TopK(16, &wire_topk), std::nullopt);
  const auto oracle_topk = oracle.TopK(16);
  ASSERT_EQ(wire_topk.size(), oracle_topk.size());
  for (size_t i = 0; i < wire_topk.size(); ++i) {
    EXPECT_EQ(wire_topk[i].key, oracle_topk[i].key);
    EXPECT_EQ(wire_topk[i].estimate, oracle_topk[i].estimate);
  }
}

TEST(NetServer, SalsaBackendSnapshotRecoverBitIdentical) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "asketchd_salsa_recover_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = (dir / "ckpt").string();

  ServerOptions options = SmallServer();
  options.shards.backend = SketchBackend::kSalsa;
  options.snapshot_prefix = prefix;
  StateDigest saved;
  {
    Server server(options);
    ASSERT_EQ(server.Start(), std::nullopt);
    Client client;
    ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
    ASSERT_EQ(client.Update(TestStream(30'000)), std::nullopt);
    ASSERT_EQ(client.Flush(), std::nullopt);
    ASSERT_EQ(client.Snapshot(&saved), std::nullopt);
    server.Stop();
  }
  {
    ServerOptions recover_options = options;
    recover_options.recover = true;
    Server server(recover_options);
    ASSERT_EQ(server.Start(), std::nullopt);
    ASSERT_TRUE(server.recovered().has_value());
    EXPECT_EQ(server.recovered()->digest, saved.digest);
    EXPECT_EQ(server.recovered()->ingested, saved.ingested);
  }
  {
    // A salsa checkpoint must not restore under the countmin backend:
    // the sketch magics differ, so recovery fails hard instead of
    // silently misreading counters.
    ServerOptions cross_options = options;
    cross_options.recover = true;
    cross_options.shards.backend = SketchBackend::kCountMin;
    Server server(cross_options);
    EXPECT_NE(server.Start(), std::nullopt);
  }
  fs::remove_all(dir);
}

// RestoreLocked parses every shard before adopting any: a payload cut
// short anywhere must be refused and leave the live state as it was.
TEST(ShardSetTest, TruncatedRestoreLeavesStateUnchanged) {
  for (const SketchBackend backend :
       {SketchBackend::kCountMin, SketchBackend::kSalsa}) {
    SCOPED_TRACE(backend == SketchBackend::kSalsa ? "salsa" : "countmin");
    ShardSetOptions options;
    options.num_shards = 2;
    options.backend = backend;
    options.shard_config.total_bytes = 2048;
    options.shard_config.width = 2;
    options.shard_config.filter_items = 8;
    ShardSet source(options);
    source.Ingest(TestStream(4'000, /*seed=*/11));
    const std::vector<uint8_t> payload = source.SerializeState();
    ASSERT_FALSE(payload.empty());

    ShardSet target(options);
    target.Ingest(TestStream(4'000, /*seed=*/12));
    StateDigest before;
    target.SerializeState(&before);
    for (size_t size = 0; size < payload.size(); ++size) {
      ASSERT_TRUE(
          target.RestoreState(std::span(payload.data(), size)).has_value())
          << "payload truncated to " << size << " of " << payload.size();
      StateDigest after;
      target.SerializeState(&after);
      ASSERT_EQ(after.digest, before.digest)
          << "payload truncated to " << size;
      ASSERT_EQ(after.ingested, before.ingested);
    }
    // The whole payload restores.
    ASSERT_EQ(target.RestoreState(payload), std::nullopt);
    StateDigest restored;
    target.SerializeState(&restored);
    EXPECT_NE(restored.digest, before.digest);
    EXPECT_EQ(restored.ingested, 4'000u);
  }
}

// The --checkpoint-interval-ms loop cuts generations on its own, with no
// SNAPSHOT request: a second store on the prefix sees one holding every
// tuple sent, and a --recover'd server comes back with its digest.
TEST(NetServer, CheckpointLoopCutsRecoverableGenerations) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "asketchd_checkpoint_loop_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = (dir / "ckpt").string();

  ServerOptions options = SmallServer();
  options.snapshot_prefix = prefix;
  options.checkpoint_interval_ms = 100;
  constexpr uint64_t kTuples = 20'000;
  StateDigest cut;
  StateDigest live;
  {
    Server server(options);
    ASSERT_EQ(server.Start(), std::nullopt);
    Client client;
    ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
    ASSERT_EQ(client.Update(TestStream(kTuples)), std::nullopt);
    ASSERT_EQ(client.Flush(), std::nullopt);

    // Read the newest generation through a store and shard set of our
    // own until the loop has cut one that holds every tuple.
    const SnapshotStore probe_store(prefix, options.snapshot_retain);
    ShardSet probe(options.shards);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (cut.ingested != kTuples &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      StateDigest seen;
      if (probe.RecoverFromStore(probe_store, &seen) == std::nullopt) {
        cut = seen;
      }
    }
    ASSERT_EQ(cut.ingested, kTuples)
        << "no checkpoint holding every tuple within 10 s";
    EXPECT_GT(cut.generation, 0u);
    ASSERT_EQ(client.Digest(&live), std::nullopt);
    server.Stop();
  }
  // The loop's cut re-adopted its serialized form, so the live state and
  // every later cut (Stop's final one included) serialize to the same
  // bytes.
  EXPECT_EQ(live.digest, cut.digest);
  {
    ServerOptions recover_options = options;
    recover_options.recover = true;
    recover_options.checkpoint_interval_ms = 0;
    Server server(recover_options);
    ASSERT_EQ(server.Start(), std::nullopt);
    ASSERT_TRUE(server.recovered().has_value());
    EXPECT_EQ(server.recovered()->digest, cut.digest);
    EXPECT_EQ(server.recovered()->ingested, kTuples);
  }
  fs::remove_all(dir);
}

TEST(NetServer, RecoverWithoutSnapshotFails) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "asketchd_recover_empty";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ServerOptions options = SmallServer();
  options.snapshot_prefix = (dir / "ckpt").string();
  options.recover = true;
  Server server(options);
  EXPECT_NE(server.Start(), std::nullopt);
  fs::remove_all(dir);
}

TEST(NetServer, SnapshotWithoutPrefixAnswersError) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  StateDigest digest;
  const auto error = client.Snapshot(&digest);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("snapshot_failed"), std::string::npos);
}

// Six frames over disjoint key sets: no frame's keys are in a head
// snapshot when it is split, so each delta carries its tuples as misses
// in arrival order, and the final state depends on the queue order
// alone, not on how far the owners had got (ALGORITHMS.md §7).
// Exchanges inside each frame make that order matter.
TEST(ShardSetTest, FullQueueWaitsAndKeepsQueueOrder) {
  ShardSetOptions options;
  options.num_shards = 2;
  options.shard_config.total_bytes = 32 * 1024;
  options.max_queue_batches = 1;
  std::vector<std::vector<Tuple>> frames;
  for (uint64_t f = 0; f < 6; ++f) {
    frames.push_back(TestStream(5'000, /*seed=*/20 + f));
    for (Tuple& t : frames.back()) t.key += static_cast<item_t>(f << 20);
  }
  ShardSet reference(options);
  for (const auto& frame : frames) reference.Ingest(frame);
  StateDigest want;
  reference.SerializeState(&want);

  ShardSet shards(options);
  shards.StallWorkersForTesting(true);
  std::atomic<bool> returned{false};
  std::thread ingest([&] {
    for (const auto& frame : frames) shards.Ingest(frame);
    returned.store(true);
  });
  // The first frame fills both one-batch queues; the second waits for
  // room however long the owners stay stalled.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(returned.load()) << "Ingest into a full queue must wait";
  for (uint32_t s = 0; s < shards.num_shards(); ++s) {
    EXPECT_EQ(shards.AppliedTuples(s), 0u) << "shard " << s;
  }
  shards.StallWorkersForTesting(false);
  ingest.join();
  StateDigest got;
  shards.SerializeState(&got);
  EXPECT_EQ(got.ingested, 6u * 5'000u);
  EXPECT_EQ(got.digest, want.digest);
}

TEST(ShardSetTest, ShardRoutingIsDisjointAndTotal) {
  // Every key maps to exactly one shard, and estimates route there.
  ShardSetOptions options;
  options.num_shards = 4;
  options.shard_config.total_bytes = 32 * 1024;
  ShardSet shards(options);
  const std::vector<Tuple> tuples{{1, 10}, {2, 20}, {3, 30}, {4, 40}};
  shards.Ingest(tuples);
  shards.Drain();
  for (const Tuple& t : tuples) {
    EXPECT_GE(shards.Estimate(t.key), t.value);
  }
  const WireStats stats = shards.GetStats();
  EXPECT_EQ(stats.ingested, tuples.size());
}

// Builds a serialized ShardSet payload ("SRD1") whose shard owning
// `bad_key` carries a filter entry with new_count < old_count. Live
// streams cannot produce that state — Appendix A deletions equalize the
// counters instead of crossing them — but RestoreState accepts any
// payload that deserializes (snapshots written by external tools or
// older builds are not revalidated), and TOPK used to compute
// exact_hits = new_count - old_count with unsigned arithmetic, wrapping
// to ~4.29e9 for such an entry.
std::vector<uint8_t> PayloadWithUnderflowedEntry(
    const ShardSetOptions& options, item_t bad_key, count_t bad_new,
    count_t bad_old) {
  BinaryWriter writer;
  writer.PutU32(kShardSetPayloadType);  // "SRD1"
  writer.PutU32(options.num_shards);
  // The two reserved header words held overload counters in older
  // servers; a restore must ignore whatever they carry.
  writer.PutU64(6'472);
  writer.PutU64(3'528);
  const uint32_t bad_shard = ShardOf(bad_key, options.num_shards);
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    ServingSketch crafted =
        MakeASketchCountMin<RelaxedHeapFilter>(options.shard_config);
    // Some ordinary traffic, including an Appendix A deletion — which
    // leaves new_count == old_count, never below.
    crafted.Update(bad_key + 1, 6);
    crafted.Update(bad_key + 1, -2);
    if (s == bad_shard) {
      crafted.filter().Insert(bad_key, bad_new, bad_old);
    }
    writer.PutU64(10);  // applied_tuples
    if (!crafted.SerializeTo(writer)) return {};
  }
  return writer.buffer();
}

TEST(ShardSetTest, TopKClampsUnderflowedRestoredCounts) {
  ShardSetOptions options;
  options.num_shards = 2;
  options.shard_config.total_bytes = 32 * 1024;
  const item_t bad_key = 99;
  const std::vector<uint8_t> payload =
      PayloadWithUnderflowedEntry(options, bad_key, /*bad_new=*/5,
                                  /*bad_old=*/9);
  ASSERT_FALSE(payload.empty());
  ShardSet set(options);
  ASSERT_EQ(set.RestoreState(payload), std::nullopt);
  bool found = false;
  for (const TopKEntry& e : set.TopK(16)) {
    EXPECT_LE(e.exact_hits, e.estimate) << "key " << e.key;
    if (e.key == bad_key) {
      found = true;
      EXPECT_EQ(e.estimate, 5u);
      // The regression: unsigned 5 - 9 wrapped to 4294967292 before the
      // clamp; an entry with no filter-era hits must report zero.
      EXPECT_EQ(e.exact_hits, 0u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(NetServer, TopKClampsUnderflowOverWireAfterRecover) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "asketchd_underflow_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = (dir / "ckpt").string();

  ServerOptions options = SmallServer();
  const item_t bad_key = 424242;
  const std::vector<uint8_t> payload =
      PayloadWithUnderflowedEntry(options.shards, bad_key, /*bad_new=*/7,
                                  /*bad_old=*/11);
  ASSERT_FALSE(payload.empty());
  SnapshotStore store(prefix, options.snapshot_retain);
  ASSERT_EQ(store.Save(kShardSetPayloadType, payload), std::nullopt);

  options.snapshot_prefix = prefix;
  options.recover = true;
  Server server(options);
  ASSERT_EQ(server.Start(), std::nullopt);
  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  std::vector<TopKEntry> top;
  ASSERT_EQ(client.TopK(32, &top), std::nullopt);
  bool found = false;
  for (const TopKEntry& e : top) {
    EXPECT_LE(e.exact_hits, e.estimate) << "key " << e.key;
    if (e.key == bad_key) {
      found = true;
      EXPECT_EQ(e.estimate, 7u);
      EXPECT_EQ(e.exact_hits, 0u);
    }
  }
  EXPECT_TRUE(found);
  // The underflowed entry still answers point queries with its exact
  // filter count.
  uint64_t estimate = 0;
  ASSERT_EQ(client.Query(bad_key, &estimate), std::nullopt);
  EXPECT_EQ(estimate, 7u);
  server.Stop();
  fs::remove_all(dir);
}

TEST(NetServer, QueryBatchMatchesPointQueries) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  const auto tuples = TestStream(20'000);
  ASSERT_EQ(client.Update(tuples), std::nullopt);
  ASSERT_EQ(client.Flush(), std::nullopt);
  // Queries read the *applied* state and UPDATE acks only cover the
  // enqueue; DIGEST drains every shard queue, making the whole stream
  // visible before the comparisons below.
  StateDigest digest;
  ASSERT_EQ(client.Digest(&digest), std::nullopt);

  // Mixed batch: seen keys, unseen keys, and duplicates — the grouped
  // per-shard fanout must answer each position exactly like a point
  // query, in request order.
  std::vector<item_t> keys;
  for (uint32_t i = 0; i < 200; ++i) keys.push_back(tuples[i * 7].key);
  for (uint32_t i = 0; i < 16; ++i) keys.push_back(3'000'000'000u + i);
  keys.push_back(keys.front());
  std::vector<uint64_t> batched;
  ASSERT_EQ(client.QueryBatch(keys, &batched), std::nullopt);
  ASSERT_EQ(batched.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    uint64_t single = 0;
    ASSERT_EQ(client.Query(keys[i], &single), std::nullopt);
    EXPECT_EQ(batched[i], single) << "position " << i;
  }
  // An empty batch is a valid request with an empty answer.
  std::vector<uint64_t> empty;
  ASSERT_EQ(client.QueryBatch({}, &empty), std::nullopt);
  EXPECT_TRUE(empty.empty());
  server.Stop();
}

// The benchmark's sentinel property: a lone UPDATE tuple, with no Flush
// or Digest behind it, shows its full weight to QUERY within one second.
// The server hands every UPDATE frame to the shard queues before it
// reads the next frame, so nothing waits for more traffic.
TEST(NetServer, LoneUpdateBecomesVisibleWithoutBarrier) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  constexpr uint32_t kWeight = 1024;
  for (item_t key = 1000; key < 1020; ++key) {
    uint64_t before = 0;
    ASSERT_EQ(client.Query(key, &before), std::nullopt);
    const Tuple sentinel{key, kWeight};
    ASSERT_EQ(client.Update({&sentinel, 1}), std::nullopt);
    // Read-your-writes: the first query on the writing connection
    // already counts the update.
    uint64_t estimate = 0;
    ASSERT_EQ(client.Query(key, &estimate), std::nullopt);
    EXPECT_GE(estimate, before + kWeight) << "key " << key;
  }
  server.Stop();
}

// With every owner stalled, only the writing connection can apply its
// queued delta: its first QUERY_BATCH after the UPDATE counts the
// weight, while another connection still reads the applied state.
TEST(NetServer, ReadsOwnWritesWhileOwnersAreStalled) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  server.shards().StallWorkersForTesting(true);
  Client writer;
  Client other;
  ASSERT_EQ(writer.Connect({.port = server.port()}), std::nullopt);
  ASSERT_EQ(other.Connect({.port = server.port()}), std::nullopt);
  const obs::Counter& own_applied = obs::MetricsRegistry::Global().GetCounter(
      "asketch_net_own_write_applied_total");
  [[maybe_unused]] const uint64_t own_applied_before = own_applied.Value();

  constexpr item_t kKey = 4242;
  constexpr uint32_t kWeight = 1024;
  const Tuple update{kKey, kWeight};
  ASSERT_EQ(writer.Update({&update, 1}), std::nullopt);
  // The ack of an empty UPDATE orders the write before the other
  // connection's read: the delta is queued, and nobody has applied it.
  ASSERT_EQ(writer.Flush(), std::nullopt);
  uint64_t seen_by_other = 0;
  ASSERT_EQ(other.Query(kKey, &seen_by_other), std::nullopt);
  EXPECT_EQ(seen_by_other, 0u);

  std::vector<uint64_t> estimates;
  ASSERT_EQ(writer.QueryBatch({&kKey, 1}, &estimates), std::nullopt);
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_GE(estimates[0], kWeight);
#ifndef ASKETCH_NO_TELEMETRY
  EXPECT_EQ(own_applied.Value() - own_applied_before, 1u);
#endif
  server.shards().StallWorkersForTesting(false);
  server.Stop();
}

#if defined(__linux__)
size_t MappingCount() {
  std::ifstream maps("/proc/self/maps");
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// A finished connection thread keeps its stack mapped until it is
// joined, so a server that joined only at Stop() grew by two mappings
// per connection ever closed.
TEST(NetServer, ClosedConnectionThreadsAreReaped) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  const auto cycle = [&](int times) {
    for (int i = 0; i < times; ++i) {
      Client client;
      ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
      client.Close();
    }
  };
  // Warm-up: the first connections map thread stacks and allocator
  // arenas that later ones reuse.
  cycle(10);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const size_t before = MappingCount();
  cycle(200);
  // The accept loop reaps at its 100 ms poll granularity.
  size_t after = MappingCount();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (after >= before + 20 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    after = MappingCount();
  }
  EXPECT_LT(after, before + 20) << "mappings before " << before;
  server.Stop();
}
#endif  // __linux__

#endif  // ASKETCH_NET_TESTS

}  // namespace
}  // namespace net
}  // namespace asketch
