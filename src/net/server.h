// asketchd's TCP serving core: accepts loopback/LAN connections, speaks
// the framed protocol of src/net/protocol.h, and applies traffic to a
// ShardSet. One OS thread per connection (bounded by max_connections);
// UPDATE frames are fire-and-forget into the shard queues, so a
// connection thread's steady-state cost is recv + frame decode + the
// per-shard split with its head aggregation — the filter and sketch
// work happens on the shard workers.
//
// Persistence: when snapshot_prefix is set the server owns a
// SnapshotStore. SNAPSHOT requests, the optional background checkpoint
// loop, and the final checkpoint in Stop() all funnel through
// Checkpoint(), which serializes cuts under one mutex. With
// `recover = true`, Start() refuses to serve unless a valid generation
// was adopted: an operator who asked to recover must not get a silently
// empty sketch.
//
// Each connection reads its own writes: QUERY, QUERY_BATCH, TOPK and
// STATS first apply whatever UPDATE deltas the same connection still
// has queued (ShardSet::AwaitOwnWrites). Other connections see them
// once an owner applies them.
//
// Lifecycle: Start() binds (port 0 = ephemeral; read the bound port
// back from port()), Stop() stops accepting, drains connection threads,
// and cuts a final checkpoint. Both are idempotent. While serving, the
// accept loop joins connection threads that have finished.

#ifndef ASKETCH_NET_SERVER_H_
#define ASKETCH_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/snapshot.h"
#include "src/net/protocol.h"
#include "src/net/shard_set.h"
#include "src/net/socket_io.h"

namespace asketch {
namespace net {

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port.
  uint16_t port = 0;
  ShardSetOptions shards;
  /// SnapshotStore prefix; empty disables persistence (SNAPSHOT then
  /// answers kSnapshotFailed).
  std::string snapshot_prefix;
  uint32_t snapshot_retain = 3;
  /// Adopt the newest valid snapshot generation before serving; an
  /// error if none validates.
  bool recover = false;
  /// Cut a checkpoint every this many ms; 0 disables the loop.
  uint32_t checkpoint_interval_ms = 0;
  /// Connections beyond this are accepted and immediately closed with a
  /// kShuttingDown error frame.
  uint32_t max_connections = 64;
  /// Close a connection that has been silent (no bytes received) for
  /// this long — the slow-loris defense. 0 disables the deadline.
  /// Enforced at the connection loop's 100 ms poll granularity.
  uint32_t idle_timeout_ms = 0;
  /// Syscall seam for deterministic fault injection (tests only;
  /// empty hooks dispatch straight to the real syscalls).
  SocketIoHooks io{};
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and starts serving. Returns an error message on failure
  /// (bind failure, unsupported platform, failed --recover).
  std::optional<std::string> Start();

  /// Graceful shutdown: stop accepting, drain each live connection
  /// (already-buffered complete frames are still handled, then the
  /// write side is shut down for a clean EOF), join connection and
  /// checkpoint threads, drain the shards, cut a final checkpoint.
  /// Idempotent.
  void Stop();

  /// Bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// Cuts a checkpoint now (signal handlers in asketchd route here).
  /// Error when persistence is disabled or the save fails.
  std::optional<std::string> Checkpoint(StateDigest* digest = nullptr);

  /// Digest adopted during --recover (nullopt when recover was off).
  const std::optional<StateDigest>& recovered() const { return recovered_; }

  /// Direct shard access for in-process oracles in tests.
  ShardSet& shards() { return shards_; }

 private:
  /// Per-connection state, defined in server.cc.
  struct Connection;

  /// A connection's thread, and whether it has finished.
  struct ConnectionThread {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  /// Joins every connection thread that has finished.
  void ReapConnections();
  void HandleConnection(int fd);
  /// Dispatches one decoded frame; returns false when the connection
  /// must close. The connection thread is the decode thread whose
  /// Ingest call splits each UPDATE frame into per-shard deltas and
  /// queues them all before the next frame.
  bool HandleFrame(int fd, const Frame& frame, Connection& connection);
  void CheckpointLoop();

  ServerOptions options_;
  ShardSet shards_;
  std::unique_ptr<SnapshotStore> store_;
  std::optional<StateDigest> recovered_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{true};
  std::atomic<uint32_t> open_connections_{0};
  std::thread accept_thread_;
  std::thread checkpoint_thread_;
  /// Touched by the accept thread, and by Stop() once that has joined.
  std::vector<std::unique_ptr<ConnectionThread>> connection_threads_;
  std::mutex checkpoint_mu_;  ///< serializes Checkpoint() cuts
};

}  // namespace net
}  // namespace asketch

#endif  // ASKETCH_NET_SERVER_H_
