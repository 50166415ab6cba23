// Deterministic socket-fault tests for the net path: EINTR resumption
// (injected and from a real signal), short reads/writes, connection
// resets with retry and reconnect+replay, client connect/read
// deadlines, on-wire corruption detection, server idle disconnects,
// and the graceful drain on Stop(). Every schedule is armed explicitly
// on a FaultInjectingSocket, so a failure replays exactly.

#include "src/net/socket_io.h"

#include <chrono>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "src/net/client.h"
#include "src/net/net_metrics.h"
#include "src/net/server.h"
#include "src/workload/stream_generator.h"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <pthread.h>
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

std::vector<Tuple> TestStream(uint64_t n, uint64_t seed = 7) {
  StreamSpec spec;
  spec.stream_size = n;
  spec.num_distinct = n / 4 + 16;
  spec.seed = seed;
  return GenerateStream(spec);
}

/// A scriptable single-connection server speaking just enough of the
/// protocol to drive client failure paths the real Server is too
/// well-behaved to exercise (silent hangs, mid-request closes).
class MiniServer {
 public:
  enum class Behavior {
    kAnswerQueries,         ///< HELLO then answer every QUERY with 42
    kSilentAfterHello,      ///< HELLO then never write another byte
    kCloseOnFirstQuery,     ///< connection 0 closes on QUERY;
                            ///< connection 1+ answers normally
    kDelayedQueryResponse,  ///< HELLO, then sleep before each answer
  };

  explicit MiniServer(Behavior behavior, uint32_t delay_ms = 0)
      : behavior_(behavior), delay_ms_(delay_ms) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 8) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  ~MiniServer() {
    stop_.store(true);
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  bool ok() const { return listen_fd_ >= 0; }
  uint16_t port() const { return port_; }

 private:
  void Serve() {
    uint64_t index = 0;
    while (!stop_.load()) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;
      }
      Handle(fd, index++);
      ::close(fd);
    }
  }

  bool SendAll(int fd, const std::vector<uint8_t>& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent,
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

  void Handle(int fd, uint64_t index) {
    FrameDecoder decoder;
    uint8_t buffer[4096];
    uint64_t received = 0;
    for (;;) {
      while (auto frame = decoder.Next()) {
        switch (frame->opcode) {
          case Opcode::kHello:
            if (!SendAll(fd, EncodeHelloResponse(
                                 {kProtocolVersionMax, 1}))) {
              return;
            }
            if (behavior_ == Behavior::kSilentAfterHello) {
              // Hold the connection open but never write again; exit
              // only when the harness tears the listener down.
              while (!stop_.load()) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
              }
              return;
            }
            break;
          case Opcode::kQuery:
            if (behavior_ == Behavior::kCloseOnFirstQuery && index == 0) {
              return;  // abrupt close mid-request
            }
            if (behavior_ == Behavior::kDelayedQueryResponse) {
              std::this_thread::sleep_for(
                  std::chrono::milliseconds(delay_ms_));
            }
            if (!SendAll(fd, EncodeQueryResponse(42))) return;
            break;
          case Opcode::kUpdate: {
            std::vector<Tuple> tuples;
            ParseUpdateRequest(frame->payload, &tuples);
            received += tuples.size();
            if (frame->want_ack() &&
                !SendAll(fd, EncodeUpdateAck({received, 0}))) {
              return;
            }
            break;
          }
          default:
            return;
        }
      }
      if (decoder.corrupt()) return;
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      decoder.Feed(buffer, static_cast<size_t>(n));
    }
  }

  Behavior behavior_;
  uint32_t delay_ms_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --------------------------------------------------------------------
// EINTR resumption (the fails-on-old regression: the old client treated
// any -1 from connect/poll/recv/send as fatal).
// --------------------------------------------------------------------

TEST(NetFault, ClientSurvivesInjectedEintrOnEverySyscall) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);

  FaultInjectingSocket faults;
  // Interrupt the first call of every kind, plus a few extra recvs —
  // wherever the client happens to be blocked, the syscall must resume.
  faults.ArmConnectEintrAt(0);
  faults.ArmPollEintrAt(0);
  faults.ArmSendEintrAt(0);
  faults.ArmRecvEintrAt(0);
  faults.ArmRecvEintrAt(1);
  faults.ArmRecvEintrAt(2);

  ClientOptions options;
  options.port = server.port();
  options.io = faults.Hooks();
  Client client;
  ASSERT_EQ(client.Connect(options), std::nullopt);
  EXPECT_GE(faults.connects_seen(), 1u);
  EXPECT_GE(faults.recvs_seen(), 1u);

  const auto tuples = TestStream(5'000);
  ASSERT_EQ(client.Update(tuples), std::nullopt);
  ASSERT_EQ(client.Flush(), std::nullopt);
  EXPECT_EQ(client.last_ack().received_tuples, tuples.size());
}

namespace {
void IgnoreSignal(int) {}
}  // namespace

// A real signal delivered mid-recv/mid-poll (the state a checkpoint
// SIGUSR1 leaves behind in asketchd deployments). The handler is
// installed without SA_RESTART, so blocking syscalls genuinely return
// EINTR instead of resuming transparently.
TEST(NetFault, ClientSurvivesRealSignalDuringBlockingQuery) {
  MiniServer server(MiniServer::Behavior::kDelayedQueryResponse,
                    /*delay_ms=*/300);
  ASSERT_TRUE(server.ok());

  struct sigaction action {};
  action.sa_handler = IgnoreSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction previous {};
  ASSERT_EQ(sigaction(SIGUSR2, &action, &previous), 0);

  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);

  const pthread_t victim = pthread_self();
  std::atomic<bool> done{false};
  std::thread pounder([&] {
    while (!done.load()) {
      pthread_kill(victim, SIGUSR2);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  uint64_t estimate = 0;
  const auto error = client.Query(1, &estimate);
  done.store(true);
  pounder.join();
  sigaction(SIGUSR2, &previous, nullptr);

  EXPECT_EQ(error, std::nullopt)
      << "a signal mid-request must not kill the connection";
  EXPECT_EQ(estimate, 42u);
}

// --------------------------------------------------------------------
// Short reads and writes: fragmented TCP must reassemble.
// --------------------------------------------------------------------

TEST(NetFault, ClientReassemblesUnderShortReadsAndWrites) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);

  FaultInjectingSocket faults;
  for (uint64_t i = 0; i < 48; ++i) faults.ArmShortRecvAt(i, 3);
  for (uint64_t i = 0; i < 16; ++i) faults.ArmShortSendAt(i, 7);

  ClientOptions options;
  options.port = server.port();
  options.io = faults.Hooks();
  Client client;
  ASSERT_EQ(client.Connect(options), std::nullopt);
  const auto tuples = TestStream(2'000);
  ASSERT_EQ(client.Update(tuples), std::nullopt);
  ASSERT_EQ(client.Flush(), std::nullopt);
  EXPECT_EQ(client.last_ack().received_tuples, tuples.size());
  // A Flush ack means "queued"; DIGEST drains the shard queues, so the
  // query below reads the applied state.
  StateDigest digest;
  ASSERT_EQ(client.Digest(&digest), std::nullopt);
  uint64_t estimate = 0;
  ASSERT_EQ(client.Query(tuples.front().key, &estimate), std::nullopt);
  EXPECT_GE(estimate, tuples.front().value);
}

// --------------------------------------------------------------------
// Retry of idempotent requests across a dropped connection.
// --------------------------------------------------------------------

TEST(NetFault, IdempotentQueryRetriesAcrossServerClose) {
  MiniServer server(MiniServer::Behavior::kCloseOnFirstQuery);
  ASSERT_TRUE(server.ok());

  ClientOptions options;
  options.port = server.port();
  options.max_retries = 2;
  options.retry_backoff_ms = 1;
  Client client;
  ASSERT_EQ(client.Connect(options), std::nullopt);
  uint64_t estimate = 0;
  ASSERT_EQ(client.Query(7, &estimate), std::nullopt)
      << "retry must redial and repeat the request";
  EXPECT_EQ(estimate, 42u);
  EXPECT_GE(client.retries(), 1u);
}

TEST(NetFault, NoRetriesFailsFastOnServerClose) {
  MiniServer server(MiniServer::Behavior::kCloseOnFirstQuery);
  ASSERT_TRUE(server.ok());
  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  uint64_t estimate = 0;
  EXPECT_NE(client.Query(7, &estimate), std::nullopt)
      << "default options must keep fail-fast semantics";
  EXPECT_EQ(client.retries(), 0u);
}

// --------------------------------------------------------------------
// Reconnect + replay: a mid-stream ECONNRESET on send must not lose
// updates, and estimates stay one-sided against an exact counter.
// --------------------------------------------------------------------

TEST(NetFault, SendResetReconnectsReplaysAndStaysOneSided) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);

  FaultInjectingSocket faults;
  // Send index 0 is the HELLO; the reset lands a few UPDATE batches in.
  faults.ArmSendErrorAt(6, ECONNRESET);

  ClientOptions options;
  options.port = server.port();
  options.ack_every = 4;
  options.max_retries = 3;
  options.retry_backoff_ms = 1;
  options.auto_reconnect = true;
  options.io = faults.Hooks();
  Client client;
  ASSERT_EQ(client.Connect(options), std::nullopt);

  const auto tuples = TestStream(20'000);
  for (size_t offset = 0; offset < tuples.size(); offset += 500) {
    const size_t n = std::min<size_t>(500, tuples.size() - offset);
    ASSERT_EQ(client.Update(std::span<const Tuple>(tuples.data() + offset,
                                                   n)),
              std::nullopt);
  }
  ASSERT_EQ(client.Flush(), std::nullopt);
  EXPECT_EQ(client.sent_tuples(), tuples.size());
  EXPECT_GE(client.reconnects(), 1u) << "the armed reset must have bitten";

  // At-least-once delivery: every key's estimate dominates its exact
  // count even though some batches were replayed. The ack only means
  // "enqueued" — the shard workers may still be applying the last
  // batches — so poll until the estimates have caught up before
  // asserting (bounded staleness, OPERATIONS.md "Ingest modes").
  std::unordered_map<item_t, uint64_t> exact;
  for (const Tuple& t : tuples) exact[t.key] += t.value;
  std::vector<item_t> keys;
  for (const auto& [key, count] : exact) {
    keys.push_back(key);
    if (keys.size() == 1024) break;
  }
  std::vector<uint64_t> estimates;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    ASSERT_EQ(client.QueryBatch(keys, &estimates), std::nullopt);
    bool dominated = true;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (estimates[i] < exact[keys[i]]) dominated = false;
    }
    if (dominated || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_GE(estimates[i], exact[keys[i]]) << "key " << keys[i];
  }
}

// --------------------------------------------------------------------
// Deadlines.
// --------------------------------------------------------------------

TEST(NetFault, ReadDeadlineFiresAgainstSilentServer) {
  MiniServer server(MiniServer::Behavior::kSilentAfterHello);
  ASSERT_TRUE(server.ok());

  const uint64_t expired_before =
      NetMetrics::Get().deadline_expired.Value();
  ClientOptions options;
  options.port = server.port();
  options.read_timeout_ms = 200;
  Client client;
  ASSERT_EQ(client.Connect(options), std::nullopt);

  const auto start = std::chrono::steady_clock::now();
  uint64_t estimate = 0;
  const auto error = client.Query(1, &estimate);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("deadline"), std::string::npos) << *error;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  if (obs::TelemetryCompiledIn()) {
    EXPECT_GT(NetMetrics::Get().deadline_expired.Value(), expired_before);
  }
}

TEST(NetFault, ConnectDeadlineFiresAgainstNeverAcceptingListener) {
  // A bound listener that never accepts, its backlog pre-filled so the
  // client's SYN is dropped and the dial genuinely hangs.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);
  std::vector<int> fillers;
  for (int i = 0; i < 16; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    // Nonblocking: we only need the SYNs in flight, not the handshakes.
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    fillers.push_back(fd);
  }

  ClientOptions options;
  options.port = port;
  options.connect_timeout_ms = 300;
  Client client;
  const auto start = std::chrono::steady_clock::now();
  const auto error = client.Connect(options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(error.has_value())
      << "connect against a full backlog must not succeed";
  EXPECT_LT(elapsed, std::chrono::seconds(10));

  for (int fd : fillers) ::close(fd);
  ::close(listen_fd);
}

// --------------------------------------------------------------------
// On-wire corruption: a flipped length-prefix bit must poison the
// stream, not feed garbage to the parser.
// --------------------------------------------------------------------

TEST(NetFault, BitFlippedLengthPrefixDetected) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);

  FaultInjectingSocket faults;
  // Byte 2 of the little-endian length prefix: +8 MiB, beyond the
  // 1 MiB cap, so the decoder poisons instantly. Armed on every early
  // recv index because the indices of EAGAIN probes vary with timing;
  // exactly one recv returns the response bytes and gets flipped.
  for (uint64_t i = 0; i < 8; ++i) faults.ArmRecvBitFlip(i, 2, 7);

  ClientOptions options;
  options.port = server.port();
  options.read_timeout_ms = 2000;  // backstop; corruption fails sooner
  options.io = faults.Hooks();
  Client client;
  const auto error = client.Connect(options);
  ASSERT_TRUE(error.has_value());
  EXPECT_FALSE(client.connected());

  // The server is unharmed: a clean client connects fine.
  Client clean;
  EXPECT_EQ(clean.Connect({.port = server.port()}), std::nullopt);
}

// --------------------------------------------------------------------
// Server hardening: idle disconnect and graceful drain.
// --------------------------------------------------------------------

TEST(NetFault, IdleConnectionDisconnectedAndCounted) {
  ServerOptions options = SmallServer();
  options.idle_timeout_ms = 200;
  Server server(options);
  ASSERT_EQ(server.Start(), std::nullopt);

  const uint64_t idle_before =
      NetMetrics::Get().idle_disconnects.Value();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // Send nothing; the slow-loris deadline must cut us loose with a
  // kShuttingDown notice followed by EOF.
  FrameDecoder decoder;
  uint8_t buffer[512];
  bool got_eof = false;
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start <
         std::chrono::seconds(10)) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      got_eof = true;
      break;
    }
    decoder.Feed(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_TRUE(got_eof);
  const auto notice = decoder.Next();
  ASSERT_TRUE(notice.has_value());
  EXPECT_EQ(notice->status, NetStatus::kShuttingDown);
  if (obs::TelemetryCompiledIn()) {
    EXPECT_GT(NetMetrics::Get().idle_disconnects.Value(), idle_before);
  }
}

// A meaningful idle deadline must not cut off a connection that is
// slowly but steadily making progress.
TEST(NetFault, TricklingConnectionSurvivesIdleDeadline) {
  ServerOptions options = SmallServer();
  options.idle_timeout_ms = 400;
  Server server(options);
  ASSERT_EQ(server.Start(), std::nullopt);
  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  const auto tuples = TestStream(100);
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ASSERT_EQ(client.Update(tuples), std::nullopt) << "round " << round;
    ASSERT_EQ(client.Flush(), std::nullopt) << "round " << round;
  }
  EXPECT_EQ(client.last_ack().received_tuples, 5 * tuples.size());
}

// --------------------------------------------------------------------
// Reconnect-replay accounting: replayed batches are flagged on the
// wire and booked into their own server counter, while the cumulative
// per-connection ack keeps counting them (the client retires its
// replay buffer against that figure — PROTOCOL.md "Ack-based replay").
// --------------------------------------------------------------------

TEST(NetFault, ReplayedBatchesBookedSeparatelyFromFirstTransmissions) {
  // Every check below reads the server's counters.
  if (!obs::TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);

  FaultInjectingSocket faults;
  faults.ArmSendErrorAt(6, ECONNRESET);

  const uint64_t update_before = NetMetrics::Get().update_tuples.Value();
  const uint64_t replayed_before =
      NetMetrics::Get().replayed_tuples.Value();

  ClientOptions options;
  options.port = server.port();
  options.ack_every = 4;
  options.max_retries = 3;
  options.retry_backoff_ms = 1;
  options.auto_reconnect = true;
  options.io = faults.Hooks();
  Client client;
  ASSERT_EQ(client.Connect(options), std::nullopt);

  const auto tuples = TestStream(20'000);
  for (size_t offset = 0; offset < tuples.size(); offset += 500) {
    const size_t n = std::min<size_t>(500, tuples.size() - offset);
    ASSERT_EQ(client.Update(std::span<const Tuple>(tuples.data() + offset,
                                                   n)),
              std::nullopt);
  }
  ASSERT_EQ(client.Flush(), std::nullopt);
  ASSERT_GE(client.reconnects(), 1u) << "the armed reset must have bitten";
  ASSERT_GT(client.replayed_tuples(), 0u);

  const uint64_t update_delta =
      NetMetrics::Get().update_tuples.Value() - update_before;
  const uint64_t replayed_delta =
      NetMetrics::Get().replayed_tuples.Value() - replayed_before;
  // Every replayed tuple lands in the replay counter, none of them in
  // the first-transmission counter. The pre-fix server double-booked
  // replays into update_tuples, so update_delta exceeded the stream
  // size — the <= bound below is the fails-on-old observable.
  EXPECT_EQ(replayed_delta, client.replayed_tuples());
  EXPECT_GT(replayed_delta, 0u);
  EXPECT_LE(update_delta, tuples.size());
  // At-least-once: across both counters the server holds at least one
  // copy of every tuple. (The ack's received_tuples is per-connection
  // — it reset with the reconnect — so totals are checked against the
  // process-wide metrics, not the final ack.)
  EXPECT_GE(update_delta + replayed_delta, tuples.size());
}

TEST(NetFault, StopDrainsBufferedFramesBeforeClosing) {
  ServerOptions options = SmallServer();
  Server server(options);
  ASSERT_EQ(server.Start(), std::nullopt);
  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  const auto tuples = TestStream(30'000);
  ASSERT_EQ(client.Update(tuples), std::nullopt);
  // No Flush: the tail batches may still sit in the server's receive
  // buffer when Stop() lands. The graceful drain must apply them.
  server.Stop();
  const WireStats stats = server.shards().GetStats();
  EXPECT_EQ(stats.ingested, tuples.size());
}

#endif  // ASKETCH_NET_TESTS

}  // namespace
}  // namespace net
}  // namespace asketch
