// Blocking client for the asketchd protocol. Connect() performs the
// HELLO negotiation; afterwards the client exposes one call per opcode.
//
// Update() is pipelined: batches are written fire-and-forget, with a
// want-ack flag every `ack_every` batches, and the sender blocks only
// when more than `max_outstanding_acks` requested acks are unread —
// the windowing that makes 2M+ updates/s over loopback possible while
// still bounding how far the client can run ahead of the server.
// Synchronous calls (Query, Stats, ...) first drain any pending acks
// interleaved ahead of their response.
//
// Fault tolerance (all off by default — the defaults reproduce the
// original block-forever, fail-on-first-error behavior bit for bit):
//
//  * Deadlines. connect/read/write timeouts, enforced with a
//    nonblocking socket + poll. Read/write deadlines are progress
//    deadlines: the clock restarts whenever a syscall moves bytes, so
//    a large frame on a slow link is fine while a hung peer is not.
//    EINTR never kills a connection — interrupted syscalls resume
//    against the same deadline.
//
//  * Retry. Idempotent requests (QUERY, QUERY_BATCH, TOPK, STATS,
//    DIGEST) are retried up to `max_retries` times on transport errors
//    with exponential backoff. SNAPSHOT is deliberately excluded: each
//    attempt cuts a checkpoint server-side.
//
//  * Reconnect + replay. With `auto_reconnect`, a transport failure
//    tears the connection down, redials (+ re-HELLO), and re-sends
//    every UPDATE batch not covered by the last cumulative ack before
//    the interrupted call continues. Replay is at-least-once: a batch
//    the server applied but whose ack was lost is applied twice, which
//    only pushes estimates up — the one-sided bound survives by
//    construction (PROTOCOL.md "Ack-based replay"). The replay buffer
//    is bounded by the ack window (at most ~ack_every ×
//    (max_outstanding_acks + 1) batches are ever unacked).
//
// Not thread-safe: one Client per thread (asketch_loadgen opens one
// connection per worker).

#ifndef ASKETCH_NET_CLIENT_H_
#define ASKETCH_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/net/protocol.h"
#include "src/net/socket_io.h"

namespace asketch {
namespace net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Request an ack every N Update() batches (1 = every batch).
  uint32_t ack_every = 16;
  /// Block once this many requested acks are unread.
  uint32_t max_outstanding_acks = 4;
  /// Deadline for Connect() (TCP dial + HELLO); 0 waits forever.
  uint32_t connect_timeout_ms = 0;
  /// Progress deadline for reads/writes; 0 waits forever.
  uint32_t read_timeout_ms = 0;
  uint32_t write_timeout_ms = 0;
  /// Transport-error retries for idempotent requests (0 = fail fast).
  uint32_t max_retries = 0;
  /// Base backoff before retry r is backoff << r, capped at 1s.
  uint32_t retry_backoff_ms = 10;
  /// Redial + replay unacked UPDATE batches on transport failure.
  bool auto_reconnect = false;
  /// Syscall seam for deterministic fault injection (tests only;
  /// empty hooks dispatch straight to the real syscalls).
  SocketIoHooks io{};
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// TCP connect + HELLO negotiation. On a version mismatch the error
  /// message carries the server's supported range.
  std::optional<std::string> Connect(const ClientOptions& options);
  void Close();
  bool connected() const { return fd_ >= 0; }

  uint32_t negotiated_version() const { return version_; }
  uint32_t server_shards() const { return server_shards_; }

  /// Pipelined batched ingest (see header comment). The returned error,
  /// if any, is a transport failure; the server drops no acked tuple,
  /// it slows the sender down instead (a full shard queue waits).
  std::optional<std::string> Update(std::span<const Tuple> tuples);

  /// Barrier: requests and awaits an ack covering everything sent so
  /// far. The ack's received_tuples equals the client-side send count
  /// on a healthy connection.
  std::optional<std::string> Flush();

  /// Most recent ack received (cumulative totals for the current
  /// connection — a reconnect resets the server-side counter).
  const UpdateAck& last_ack() const { return last_ack_; }
  /// Unique tuples handed to Update() across the client's lifetime
  /// (replayed duplicates are not double-counted here).
  uint64_t sent_tuples() const { return sent_tuples_; }

  /// Lifetime resilience counters (survive reconnects).
  uint64_t reconnects() const { return reconnects_; }
  uint64_t retries() const { return retries_; }
  uint64_t replayed_tuples() const { return replayed_tuples_; }

  std::optional<std::string> Query(item_t key, uint64_t* estimate);
  std::optional<std::string> QueryBatch(std::span<const item_t> keys,
                                        std::vector<uint64_t>* estimates);
  std::optional<std::string> TopK(uint32_t k,
                                  std::vector<TopKEntry>* entries);
  std::optional<std::string> Stats(WireStats* stats);
  std::optional<std::string> Snapshot(StateDigest* digest);
  std::optional<std::string> Digest(StateDigest* digest);

 private:
  /// One UPDATE batch awaiting its covering cumulative ack.
  /// `end_count` is the connection-local cumulative tuple count after
  /// this batch; an ack with received_tuples >= end_count retires it.
  struct PendingBatch {
    std::vector<Tuple> tuples;
    uint64_t end_count;
  };

  /// Dial + HELLO against options_ (fd_ must be -1). Does not touch
  /// the replay buffer or lifetime counters.
  std::optional<std::string> Dial();
  /// Tear down the transport but keep session state (replay buffer,
  /// lifetime counters) so a reconnect can resume.
  void DropConnection();
  /// Redial with backoff (up to max_retries + 1 attempts), each
  /// attempt replaying every pending UPDATE batch.
  std::optional<std::string> Reconnect();
  /// Re-sends replay_ on a fresh connection, recomputing end counts.
  std::optional<std::string> ReplayPending();
  /// Reconnects if the session is open, auto_reconnect is on, and the
  /// transport is down; "not connected" otherwise.
  std::optional<std::string> EnsureConnected();
  /// Exponential backoff before retry `attempt` (capped at 1s).
  void SleepBackoff(uint32_t attempt);
  /// Runs `op` with transport-retry semantics for idempotent requests.
  template <typename Op>
  std::optional<std::string> WithRetry(Op&& op);

  std::optional<std::string> Send(const std::vector<uint8_t>& frame);
  /// Reads until a frame arrives; consumes interleaved UPDATE acks.
  /// `expect` is the opcode whose response the caller awaits.
  std::optional<std::string> ReadResponse(Opcode expect, Frame* out);
  /// Blocks until at most `max_outstanding` requested acks are unread.
  std::optional<std::string> AwaitAcks(uint32_t max_outstanding);
  /// Applies a just-parsed cumulative ack: retires covered batches.
  void ApplyAck();
  /// Poll `fd` for `events` within `timeout_ms` (0 = forever);
  /// retries EINTR. Error string on timeout or poll failure.
  std::optional<std::string> WaitReady(int fd, short events,
                                       uint32_t timeout_ms);

  int fd_ = -1;
  ClientOptions options_;
  uint32_t version_ = 0;
  uint32_t server_shards_ = 0;
  FrameDecoder decoder_;
  uint64_t sent_tuples_ = 0;
  uint64_t batches_since_ack_ = 0;
  uint32_t acks_requested_ = 0;
  uint32_t acks_received_ = 0;
  UpdateAck last_ack_;
  /// Connection-local cumulative count of tuples sent (what the
  /// server's ack counter will reach once it has seen them all).
  uint64_t conn_sent_tuples_ = 0;
  /// Sent-but-unacked batches, oldest first (auto_reconnect only).
  std::deque<PendingBatch> replay_;
  /// True when the last error reported by Send/ReadResponse was a
  /// transport failure (as opposed to a server-reported error).
  bool transport_failed_ = false;
  /// True once Connect() has succeeded; cleared by Close(). Gates
  /// whether EnsureConnected/WithRetry may redial.
  bool session_open_ = false;
  /// Nonzero while the HELLO exchange runs under the connect deadline.
  uint32_t io_timeout_override_ms_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t retries_ = 0;
  uint64_t replayed_tuples_ = 0;
};

}  // namespace net
}  // namespace asketch

#endif  // ASKETCH_NET_CLIENT_H_
