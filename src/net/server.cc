#include "src/net/server.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "src/net/net_metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#define ASKETCH_NET_SUPPORTED 1
#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define ASKETCH_NET_SUPPORTED 0
#endif

namespace asketch {
namespace net {

Server::Server(ServerOptions options)
    : options_(options), shards_(options.shards) {
  if (!options_.snapshot_prefix.empty()) {
    store_ = std::make_unique<SnapshotStore>(options_.snapshot_prefix,
                                             options_.snapshot_retain);
  }
}

Server::~Server() { Stop(); }

#if ASKETCH_NET_SUPPORTED

struct Server::Connection {
  explicit Connection(ShardSet& shards) : own_writes(shards) {}

  bool hello_done = false;
  /// Tuples received, replays included; the ack reports it.
  uint64_t received = 0;
  /// The reusable UPDATE decode buffer: batches are parsed into it in
  /// place, so steady-state ingest allocates only at a new high-water
  /// batch size.
  std::vector<Tuple> update_scratch;
  /// The deltas this connection has queued and not yet seen applied.
  /// Destroyed with the connection, which applies whatever is left.
  OwnWrites own_writes;
};

namespace {

constexpr int kSendFlags =
#ifdef MSG_NOSIGNAL
    MSG_NOSIGNAL;
#else
    0;
#endif

bool SendAll(const SocketIoHooks& io, int fd,
             const std::vector<uint8_t>& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = SocketSend(io, fd, data.data() + sent,
                                 data.size() - sent, kSendFlags);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      if (SocketPoll(io, &pfd, 1, 100) < 0 && errno != EINTR &&
          errno != EAGAIN) {
        return false;
      }
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace

std::optional<std::string> Server::Start() {
  if (listen_fd_ >= 0) return std::string("server already started");
  if (options_.recover) {
    if (store_ == nullptr) {
      return std::string("--recover requires a snapshot prefix");
    }
    StateDigest digest;
    if (auto error = shards_.RecoverFromStore(*store_, &digest)) {
      return error;
    }
    recovered_ = digest;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::string("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return std::string("bind/listen failed on port ") +
           std::to_string(options_.port);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
      0) {
    ::close(fd);
    return std::string("getsockname failed");
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  stop_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (store_ != nullptr && options_.checkpoint_interval_ms > 0) {
    checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  return std::nullopt;
}

void Server::Stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  for (const auto& connection : connection_threads_) {
    connection->thread.join();
  }
  connection_threads_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  shards_.Drain();
  if (store_ != nullptr) Checkpoint();
}

void Server::ReapConnections() {
  std::erase_if(connection_threads_, [](const auto& connection) {
    if (!connection->done.load(std::memory_order_acquire)) return false;
    connection->thread.join();
    return true;
  });
}

void Server::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    // A finished thread keeps its stack mapped until it is joined.
    ReapConnections();
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    // 100 ms poll timeout bounds Stop() latency (http_exporter idiom).
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    if (open_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      SendAll(options_.io, client,
              EncodeErrorResponse(Opcode::kHello, NetStatus::kShuttingDown,
                                  "connection limit reached"));
      ::close(client);
      continue;
    }
    NetMetrics::Get().connections_total.Add(1);
    NetMetrics::Get().connections.Add(1);
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    auto& connection = connection_threads_.emplace_back(
        std::make_unique<ConnectionThread>());
    connection->thread = std::thread([this, client, c = connection.get()] {
      HandleConnection(client);
      ::close(client);
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
      NetMetrics::Get().connections.Add(-1);
      c->done.store(true, std::memory_order_release);
    });
  }
}

void Server::HandleConnection(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  FrameDecoder decoder;
  Connection connection(shards_);
  std::vector<uint8_t> buffer(64 * 1024);
  auto last_activity = std::chrono::steady_clock::now();

  // Feeds `n` fresh bytes and handles every complete frame now
  // buffered. Returns false when the connection must close.
  const auto consume = [&](size_t n) {
    decoder.Feed(buffer.data(), n);
    while (auto frame = decoder.Next()) {
      if (!HandleFrame(fd, *frame, connection)) {
        return false;
      }
    }
    if (decoder.corrupt()) {
      // A lying length prefix is unrecoverable mid-stream; tell the
      // client why, then drop the connection.
      NetMetrics::Get().frame_errors_total.Add(1);
      NetMetrics::Get().corrupt_streams.Add(1);
      SendAll(options_.io, fd,
              EncodeErrorResponse(Opcode::kHello, NetStatus::kBadFrame,
                                  "corrupt frame stream"));
      return false;
    }
    return true;
  };

  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = SocketPoll(options_.io, &pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return;
    }
    if (ready == 0) {
      if (options_.idle_timeout_ms > 0 &&
          std::chrono::steady_clock::now() - last_activity >
              std::chrono::milliseconds(options_.idle_timeout_ms)) {
        // Slow loris: a peer holding the slot without sending frames.
        NetMetrics::Get().idle_disconnects.Add(1);
        SendAll(options_.io, fd,
                EncodeErrorResponse(Opcode::kHello,
                                    NetStatus::kShuttingDown,
                                    "idle deadline exceeded"));
        return;
      }
      continue;
    }
    const ssize_t n =
        SocketRecv(options_.io, fd, buffer.data(), buffer.size(), 0);
    if (n == 0) return;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return;
    }
    last_activity = std::chrono::steady_clock::now();
    if (!consume(static_cast<size_t>(n))) return;
  }

  // Graceful drain on Stop(): handle whatever complete frames the peer
  // already put on the wire, then end with a clean EOF instead of an
  // abrupt close, so a well-behaved client sees its final responses.
  for (;;) {
    const ssize_t n = SocketRecv(options_.io, fd, buffer.data(),
                                 buffer.size(), MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    if (!consume(static_cast<size_t>(n))) return;
  }
  ::shutdown(fd, SHUT_WR);
}

bool Server::HandleFrame(int fd, const Frame& frame,
                         Connection& connection) {
  NetMetrics& metrics = NetMetrics::Get();
  metrics.frames_total.Add(1);
  const auto fail = [&](NetStatus status, std::string_view message) {
    metrics.frame_errors_total.Add(1);
    SendAll(options_.io, fd, EncodeErrorResponse(frame.opcode, status, message));
    return false;
  };

  if (!connection.hello_done) {
    if (frame.opcode != Opcode::kHello) {
      return fail(NetStatus::kHelloRequired,
                  "HELLO must open every connection");
    }
    HelloRequest hello;
    if (!ParseHelloRequest(frame.payload, &hello)) {
      return fail(NetStatus::kBadFrame, "malformed HELLO");
    }
    const auto version =
        NegotiateVersion(kProtocolVersionMin, kProtocolVersionMax,
                         hello.min_version, hello.max_version);
    if (!version.has_value()) {
      metrics.frame_errors_total.Add(1);
      SendAll(options_.io, fd, EncodeVersionMismatch(kProtocolVersionMin,
                                        kProtocolVersionMax));
      return false;
    }
    connection.hello_done = true;
    return SendAll(options_.io, fd, EncodeHelloResponse(
                           HelloResponse{*version, shards_.num_shards()}));
  }

  switch (frame.opcode) {
    case Opcode::kHello:
      return fail(NetStatus::kBadRequest, "HELLO already negotiated");

    case Opcode::kUpdate: {
      // Decode into the connection's scratch vector: ParseUpdateRequest
      // clears and refills it, so capacity persists across frames and
      // steady-state ingest does no per-frame allocation.
      std::vector<Tuple>& update_scratch = connection.update_scratch;
      if (!ParseUpdateRequest(frame.payload, &update_scratch)) {
        return fail(NetStatus::kBadFrame, "malformed UPDATE");
      }
      // `received` counts replayed tuples too: the client retires its
      // replay buffer against this cumulative figure, so a replayed
      // batch must advance it exactly like a first transmission. Only
      // the global metric split distinguishes the two.
      connection.received += update_scratch.size();
      // Without a caller-held delta state, Ingest flushes every delta
      // it builds: once the frame is handled every tuple sits in a
      // shard queue, so an ack means "queued" and nothing waits on a
      // later frame to become visible. A full queue makes Ingest wait
      // for room, which stops this connection's reads: backpressure
      // reaches the sender through TCP. The queued deltas are booked
      // against the connection for its next read.
      shards_.Ingest(update_scratch, nullptr, &connection.own_writes);
      metrics.update_batches.Add(1);
      if (frame.is_replay()) {
        metrics.replayed_tuples.Add(update_scratch.size());
      } else {
        metrics.update_tuples.Add(update_scratch.size());
      }
      if (frame.want_ack()) {
        return SendAll(options_.io, fd,
                       EncodeUpdateAck(UpdateAck{connection.received, 0}));
      }
      return true;
    }

    case Opcode::kQuery: {
      const auto start = std::chrono::steady_clock::now();
      item_t key = 0;
      if (!ParseQueryRequest(frame.payload, &key)) {
        return fail(NetStatus::kBadFrame, "malformed QUERY");
      }
      metrics.queries.Add(1);
      shards_.AwaitOwnWrites(connection.own_writes);
      const bool ok =
          SendAll(options_.io, fd, EncodeQueryResponse(shards_.Estimate(key)));
      metrics.request_ns.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
      return ok;
    }

    case Opcode::kQueryBatch: {
      const auto start = std::chrono::steady_clock::now();
      std::vector<item_t> keys;
      if (!ParseQueryBatchRequest(frame.payload, &keys)) {
        return fail(NetStatus::kBadFrame, "malformed QUERY_BATCH");
      }
      std::vector<uint64_t> estimates;
      shards_.AwaitOwnWrites(connection.own_writes);
      shards_.EstimateBatch(keys, &estimates);
      metrics.queries.Add(keys.size());
      const bool ok = SendAll(options_.io, fd, EncodeQueryBatchResponse(estimates));
      metrics.request_ns.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
      return ok;
    }

    case Opcode::kTopK: {
      uint32_t k = 0;
      if (!ParseTopKRequest(frame.payload, &k)) {
        return fail(NetStatus::kBadFrame, "malformed TOPK");
      }
      if (k == 0 || k > kMaxTopK) {
        return fail(NetStatus::kBadRequest, "k out of range");
      }
      shards_.AwaitOwnWrites(connection.own_writes);
      return SendAll(options_.io, fd, EncodeTopKResponse(shards_.TopK(k)));
    }

    case Opcode::kStats: {
      shards_.AwaitOwnWrites(connection.own_writes);
      WireStats stats = shards_.GetStats();
      if (store_ != nullptr) {
        stats.snapshot_generation = store_->LatestGeneration();
      }
      return SendAll(options_.io, fd, EncodeStatsResponse(stats));
    }

    case Opcode::kSnapshot: {
      if (store_ == nullptr) {
        return fail(NetStatus::kSnapshotFailed, "persistence disabled");
      }
      StateDigest digest;
      if (auto error = Checkpoint(&digest)) {
        return fail(NetStatus::kSnapshotFailed, *error);
      }
      return SendAll(options_.io, fd,
                     EncodeStateDigestResponse(Opcode::kSnapshot, digest));
    }

    case Opcode::kDigest: {
      StateDigest digest;
      shards_.SerializeState(&digest);
      if (store_ != nullptr) {
        digest.generation = store_->LatestGeneration();
      }
      return SendAll(options_.io, fd,
                     EncodeStateDigestResponse(Opcode::kDigest, digest));
    }
  }
  return fail(NetStatus::kUnknownOpcode, "unknown opcode");
}

#else  // !ASKETCH_NET_SUPPORTED

std::optional<std::string> Server::Start() {
  return std::string("asketchd requires a POSIX socket API");
}

void Server::Stop() {}
void Server::AcceptLoop() {}
void Server::ReapConnections() {}
void Server::HandleConnection(int) {}
bool Server::HandleFrame(int, const Frame&, Connection&) { return false; }

#endif  // ASKETCH_NET_SUPPORTED

std::optional<std::string> Server::Checkpoint(StateDigest* digest) {
  if (store_ == nullptr) {
    return std::string("persistence disabled (no snapshot prefix)");
  }
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  StateDigest local;
  if (auto error = shards_.SaveSnapshot(*store_, &local)) return error;
  if (digest != nullptr) *digest = local;
  return std::nullopt;
}

void Server::CheckpointLoop() {
  auto next = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(options_.checkpoint_interval_ms);
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (std::chrono::steady_clock::now() < next) continue;
    Checkpoint();
    next = std::chrono::steady_clock::now() +
           std::chrono::milliseconds(options_.checkpoint_interval_ms);
  }
}

}  // namespace net
}  // namespace asketch
