// Wire-level fuzzing of the server's frame handling: seeded schedules
// of truncated, oversized, and garbage frames thrown at a live Server
// over raw sockets. The server must never die, must close only the
// offending connection, and must count every rejection — and the same
// seed must produce the same schedule (replayability is what makes a
// fuzz failure debuggable).

#include "src/net/server.h"

#include <vector>

#include "gtest/gtest.h"
#include "src/common/random.h"
#include "src/net/client.h"
#include "src/net/net_metrics.h"

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

ServerOptions SmallServer() {
  ServerOptions options;
  options.shards.num_shards = 2;
  options.shards.shard_config.total_bytes = 32 * 1024;
  return options;
}

/// Raw byte-level connection (the Client class refuses to misbehave).
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
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
      const ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent,
#ifdef MSG_NOSIGNAL
                               MSG_NOSIGNAL
#else
                               0
#endif
      );
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Drains until the server closes the connection (or errors).
  bool WaitClosed() {
    uint8_t buffer[512];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n == 0) return true;
      if (n < 0) return errno != EINTR;
    }
  }

 private:
  int fd_ = -1;
};

/// One seeded adversarial byte blob. Three attack shapes, chosen by the
/// schedule: pure garbage (random bytes, usually an insane length
/// prefix), an oversized frame (honest header, length beyond the 1 MiB
/// cap), and a truncated frame (valid header promising more payload
/// than is ever sent, followed by EOF).
enum class Attack { kGarbage, kOversized, kTruncated };

std::vector<uint8_t> MakeAttackBytes(Attack attack, Rng& rng) {
  std::vector<uint8_t> bytes;
  switch (attack) {
    case Attack::kGarbage: {
      const size_t n = 8 + rng.NextBounded(120);
      for (size_t i = 0; i < n; ++i) {
        bytes.push_back(static_cast<uint8_t>(rng.NextU64()));
      }
      // Pin the length prefix's top bit so the declared length always
      // exceeds the cap: the stream must poison rather than leave the
      // server waiting for random gigabytes that never come.
      bytes[3] |= 0x80;
      break;
    }
    case Attack::kOversized: {
      // Little-endian length prefix beyond kMaxFramePayloadBytes.
      const uint32_t length =
          kMaxFramePayloadBytes + 1 +
          static_cast<uint32_t>(rng.NextBounded(1u << 20));
      for (int i = 0; i < 4; ++i) {
        bytes.push_back(static_cast<uint8_t>(length >> (8 * i)));
      }
      bytes.push_back(0x02);  // opcode
      bytes.push_back(0x00);  // flags
      bytes.push_back(0x00);  // status
      bytes.push_back(0x00);
      break;
    }
    case Attack::kTruncated: {
      const uint32_t promised =
          64 + static_cast<uint32_t>(rng.NextBounded(512));
      for (int i = 0; i < 4; ++i) {
        bytes.push_back(static_cast<uint8_t>(promised >> (8 * i)));
      }
      bytes.push_back(0x02);
      bytes.push_back(0x00);
      bytes.push_back(0x00);
      bytes.push_back(0x00);
      // Deliver only a fraction of the promised payload, then EOF.
      const size_t delivered = rng.NextBounded(promised / 2);
      for (size_t i = 0; i < delivered; ++i) {
        bytes.push_back(static_cast<uint8_t>(rng.NextU64()));
      }
      break;
    }
  }
  return bytes;
}

/// Runs one full seeded schedule of `rounds` attacks against `port`.
/// Returns how many attack connections the server visibly closed.
uint64_t RunSchedule(uint16_t port, uint64_t seed, int rounds) {
  Rng rng(seed);
  uint64_t closed = 0;
  for (int round = 0; round < rounds; ++round) {
    const Attack attack = static_cast<Attack>(rng.NextBounded(3));
    const std::vector<uint8_t> bytes = MakeAttackBytes(attack, rng);
    RawConn conn(port);
    if (!conn.ok()) continue;
    conn.Send(bytes);
    if (attack == Attack::kTruncated) {
      // The server is entitled to wait forever for the promised bytes
      // (that is the idle deadline's job, tested elsewhere); just
      // abandon the connection.
      ++closed;
      continue;
    }
    if (conn.WaitClosed()) ++closed;
  }
  return closed;
}

TEST(NetWireFuzz, ServerSurvivesSeededAttackSchedules) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  NetMetrics& metrics = NetMetrics::Get();

  const uint64_t errors_before = metrics.frame_errors_total.Value();
  const uint64_t corrupt_before = metrics.corrupt_streams.Value();

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunSchedule(server.port(), seed, /*rounds=*/16);
    // After every schedule the server still serves well-behaved
    // clients: only the offending connections died.
    Client client;
    ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt)
        << "server unreachable after fuzz schedule seed=" << seed;
    const std::vector<Tuple> tuples{{1, 2}, {3, 4}};
    ASSERT_EQ(client.Update(tuples), std::nullopt);
    ASSERT_EQ(client.Flush(), std::nullopt);
    EXPECT_EQ(client.last_ack().received_tuples, 2u);
  }

  // Garbage and oversized frames poison their streams; every poisoned
  // stream is a counted rejection.
  if (obs::TelemetryCompiledIn()) {
    EXPECT_GT(metrics.frame_errors_total.Value(), errors_before);
    EXPECT_GT(metrics.corrupt_streams.Value(), corrupt_before);
  }
}

TEST(NetWireFuzz, SameSeedSameSchedule) {
  // Replayability: generating the byte schedule twice from one seed
  // yields identical bytes (this is what lets a fuzz failure be rerun).
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng a(seed);
    Rng b(seed);
    for (int round = 0; round < 32; ++round) {
      const Attack attack_a = static_cast<Attack>(a.NextBounded(3));
      const Attack attack_b = static_cast<Attack>(b.NextBounded(3));
      ASSERT_EQ(attack_a, attack_b);
      EXPECT_EQ(MakeAttackBytes(attack_a, a), MakeAttackBytes(attack_b, b))
          << "seed " << seed << " round " << round;
    }
  }
}

TEST(NetWireFuzz, OffenderClosedOthersUnaffected) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);

  // A healthy session stays open across a poisoned neighbor.
  Client healthy;
  ASSERT_EQ(healthy.Connect({.port = server.port()}), std::nullopt);
  const std::vector<Tuple> first{{10, 5}};
  ASSERT_EQ(healthy.Update(first), std::nullopt);
  ASSERT_EQ(healthy.Flush(), std::nullopt);

  {
    RawConn offender(server.port());
    ASSERT_TRUE(offender.ok());
    Rng rng(99);
    ASSERT_TRUE(offender.Send(MakeAttackBytes(Attack::kGarbage, rng)));
    EXPECT_TRUE(offender.WaitClosed());
  }

  const std::vector<Tuple> second{{11, 6}};
  ASSERT_EQ(healthy.Update(second), std::nullopt);
  ASSERT_EQ(healthy.Flush(), std::nullopt);
  EXPECT_EQ(healthy.last_ack().received_tuples, 2u);
  // A Flush ack means "queued"; DIGEST drains the shard queues, so the
  // query below reads the applied tuple.
  StateDigest digest;
  ASSERT_EQ(healthy.Digest(&digest), std::nullopt);
  uint64_t estimate = 0;
  ASSERT_EQ(healthy.Query(10, &estimate), std::nullopt);
  EXPECT_GE(estimate, 5u);
}

#endif  // ASKETCH_NET_TESTS

}  // namespace
}  // namespace net
}  // namespace asketch
