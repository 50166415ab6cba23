// A keyspace-sharded group of ASketch instances with per-shard ingest
// workers — the serving-side analogue of the paper's SPMD evaluation
// (§6, Fig. 13): each shard owns a disjoint key partition, so point
// queries route to exactly one shard and the merged TOPK report is the
// exact union of the per-shard reports (no cross-shard double counting).
//
// Ingest is asynchronous and has one path (docs/ARCHITECTURE.md). The
// decode thread splits a frame by shard into per-shard DeltaBatches
// (src/core/delta_batch.h) with SplitFrame: head-snapshot keys sum into
// exact totals, every other tuple is kept as a miss. The head
// snapshots live in one shared SplitIndex, rebuilt only when a filter's
// key set moves. A delta is one work item on a
// bounded per-shard queue; the shard's owner worker folds it in with
// ASketch::ApplyDelta (head totals re-probed, then the misses through
// UpdateBatch, or as sketch blocks while the head is unchanged). Decode
// threads never touch shard state, so the single-writer seqlock
// invariant holds by construction. A decode thread that finds its
// shard's queue full waits, with no deadline, until the queue has room
// (DESIGN.md §4c); a delta reaches a synopsis only by being popped off
// its queue, so every shard applies its deltas in queue order and every
// acked tuple is applied.
//
// Queries read the *applied* state: tuples still queued are not yet
// visible. SNAPSHOT and DIGEST therefore drain all queues first, making
// them barriers — every tuple enqueued before the call is reflected in
// the cut. A tuple enters a queue when its delta is flushed; the server
// ingests each UPDATE frame without a caller-held state, so every delta
// is flushed before the next frame and nothing is pending between
// frames.
//
// Each connection also reads its own writes (OwnWrites): before a read
// it applies, on its own thread and in queue order, the queue heads up
// to the last delta it queued on each shard, instead of waiting for the
// owner to wake. Every popper takes shard.mu before it pops, so a
// popped delta is never out of sight of a thread holding the lock.
// Other connections still see a delta only once it is applied.
//
// Reads are contention-free: Estimate/EstimateBatch/TopK never take
// shard.mu. Point and top-k lookups run against the filter's
// single-writer seqlock (src/filter/seqlock.h) and fall through to
// relaxed atomic sketch-cell reads, so read latency no longer collapses
// when an ingest worker is mid-batch under the mutex. Answers remain
// one-sided and prefix-consistent per key (DESIGN.md §5c); shard.mu
// still serializes the writers (worker and own-write applies,
// restore).
//
// Persistence: SaveSnapshot serializes all shards into one
// SnapshotStore generation (payload tag "SRD1"), then re-adopts the
// deserialized form, so the live state, the on-disk state, and any
// --recover'd state are bit-identical under serialization — the CRC32C
// digest returned here equals the digest a recovered server reports.

#ifndef ASKETCH_NET_SHARD_SET_H_
#define ASKETCH_NET_SHARD_SET_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "src/common/snapshot.h"
#include "src/common/types.h"
#include "src/core/asketch.h"
#include "src/net/protocol.h"

namespace asketch {

namespace net {

/// The serving synopsis type — the same composition asketch_cli
/// builds, the paper's default (Relaxed-Heap filter over Count-Min).
using ServingSketch = ASketch<RelaxedHeapFilter, CountMin>;

/// The SALSA-backed alternative (asketchd --sketch=salsa): identical
/// filter, self-adjusting Count-Min rows (salsa_count_min.h). Same
/// lock-free read guarantees — EstimateRelaxed validates the sketch's
/// merge epoch instead of relying on cell monotonicity alone.
using ServingSketchSalsa = ASketch<RelaxedHeapFilter, SalsaCountMin>;

/// Which sketch backend each shard's ASketch composes. The wire format,
/// shard header, and filter are identical across backends; snapshots
/// embed the backend's own sketch magic, so restoring a snapshot into a
/// server running the other backend fails cleanly at deserialization.
enum class SketchBackend {
  kCountMin,
  kSalsa,
};

/// One shard's synopsis, whichever backend the options selected. All
/// per-shard operations dispatch through std::visit; the alternatives
/// share every API the shard code touches, so the visitors are generic
/// lambdas and the variant never pays a heap indirection.
using AnyServingSketch = std::variant<ServingSketch, ServingSketchSalsa>;

/// Snapshot payload tag for a serialized ShardSet ("SRD1" — application
/// namespace, top byte outside the library's 0x41 composed tags).
inline constexpr uint32_t kShardSetPayloadType = 0x31445253u;

/// Owning shard of `key`: Knuth multiplicative hash — multiply by the
/// constant 2654435761 mod 2^32 — then modulo the shard count.
/// Deterministic and config-independent, so any client can precompute
/// shard affinity; documented in docs/PROTOCOL.md §Sharding (which
/// states the same constant).
inline uint32_t ShardOf(item_t key, uint32_t num_shards) {
  return (key * 2654435761u) % num_shards;
}

/// ShardOf for a fixed shard count, with the divide replaced by
/// Lemire's fastmod (Lemire, Kaser & Kurz, "Faster remainder by direct
/// computation", 2019): `magic` = ceil(2^64 / n), and the remainder is
/// the high word of (magic · h mod 2^64) · n. Exact for every 32-bit
/// hash h and every n ≥ 1 (n = 1 wraps magic to 0, and every key maps
/// to shard 0), so it equals ShardOf key for key.
class ShardRouter {
 public:
  explicit ShardRouter(uint32_t num_shards)
      : num_shards_(num_shards), magic_(~uint64_t{0} / num_shards + 1) {}

  uint32_t num_shards() const { return num_shards_; }

  uint32_t operator()(item_t key) const {
    const uint64_t low = magic_ * item_t{key * 2654435761u};
    return static_cast<uint32_t>(
        (static_cast<unsigned __int128>(low) * num_shards_) >> 64);
  }

 private:
  uint32_t num_shards_;
  uint64_t magic_;
};

/// Most shards a ShardSet runs; the frame split keeps a shard index in
/// one byte.
inline constexpr uint32_t kMaxShards = 256;

/// Every shard's head snapshot at once, for the frame split: the
/// per-shard HeadIndexes, plus one KeyTable from each head key to a
/// *code*, its shard's base plus its rank, so one probe both finds a
/// head tuple's shard and its total. A head key that does not route to
/// its shard can receive no tuple there; it keeps its rank (and a zero
/// total) but gets no code. Immutable, so decode threads share one.
class SplitIndex {
 public:
  SplitIndex(const ShardRouter& router,
             std::vector<std::shared_ptr<const HeadIndex>> heads);

  uint32_t num_shards() const {
    return static_cast<uint32_t>(heads_.size());
  }
  const std::shared_ptr<const HeadIndex>& head(uint32_t shard) const {
    return heads_[shard];
  }
  /// Shard `shard`'s codes are [base(shard), base(shard + 1)).
  uint32_t base(uint32_t shard) const { return base_[shard]; }
  const KeyTable& codes() const { return codes_; }

 private:
  std::vector<std::shared_ptr<const HeadIndex>> heads_;
  std::vector<uint32_t> base_;
  KeyTable codes_;
};

/// Splits one UPDATE frame into per-shard deltas (the decode step,
/// ALGORITHMS.md §7) and hands `emit(shard, delta)`, in shard order, a
/// delta for each shard that received a tuple, equal to
/// ShardDelta(index.head(shard)) fed that shard's tuples through Add in
/// arrival order: head totals by rank, misses in an exactly sized list.
/// One probe of the code table per tuple sums head weight; only misses
/// are routed (`router` must match the one `index` was built with).
/// Scratch space is per thread and reused, so the calling thread
/// allocates only the deltas.
void SplitFrame(std::span<const Tuple> tuples, const ShardRouter& router,
                const SplitIndex& index,
                const std::function<void(uint32_t, ShardDelta)>& emit);

/// A decode thread's private delta accumulator, one slot per shard.
/// Obtained from ShardSet::MakeDeltaState and passed back to Ingest /
/// FlushDeltas by the same thread; never shared between threads without
/// external synchronization (the whole point is that it needs none).
class DeltaIngestState {
 public:
  DeltaIngestState() = default;

  /// Tuples accumulated but not yet flushed to the shard queues.
  uint64_t PendingTuples() const;

 private:
  friend class ShardSet;

  std::vector<std::optional<ShardDelta>> per_shard_;
};

class ShardSet;

/// One connection's read-your-writes session (Terry et al., "Session
/// Guarantees for Weakly Consistent Replicated Data", PDIS 1994): per
/// shard, the tuples the connection has queued that no apply has retired
/// yet. Ingest counts a delta in when it queues it; whichever thread
/// applies the delta counts it out.
/// ShardSet::AwaitOwnWrites brings the counts to zero. Queued deltas
/// point at the counts, so the destructor does the same. Used by one
/// connection thread at a time.
class OwnWrites {
 public:
  explicit OwnWrites(ShardSet& shards);
  ~OwnWrites();

  OwnWrites(const OwnWrites&) = delete;
  OwnWrites& operator=(const OwnWrites&) = delete;

 private:
  friend class ShardSet;

  ShardSet& shards_;
  std::vector<std::atomic<uint64_t>> pending_;
};

struct ShardSetOptions {
  /// In [1, kMaxShards].
  uint32_t num_shards = 4;
  ASketchConfig shard_config;
  SketchBackend backend = SketchBackend::kCountMin;
  /// Bounded per-shard queue length, in batches. Ingest waits for room
  /// in a full queue.
  size_t max_queue_batches = 64;
  /// Ingest flushes a shard's delta to the owner once it holds this
  /// many tuples; FlushDeltas flushes the rest. (The server flushes after
  /// every UPDATE frame, which is smaller.)
  static constexpr uint32_t delta_flush_tuples = 32768;

  std::optional<std::string> Validate() const;
};

class ShardSet {
 public:
  explicit ShardSet(const ShardSetOptions& options);
  ~ShardSet();

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  uint32_t num_shards() const { return router_.num_shards(); }

  /// Splits `tuples` by shard into deltas and queues them. With a null
  /// `delta_state` (every UPDATE frame the server ingests) SplitFrame
  /// builds one delta per shard the frame touches and every one is
  /// queued before returning. With a caller-held state the tuples join
  /// its per-shard deltas through ShardDelta::Add, and only shards whose
  /// delta reached delta_flush_tuples are flushed. A flush into a full
  /// queue waits until the queue has room. With `own_writes` (null-state
  /// calls only), every delta queued is counted into it, so
  /// AwaitOwnWrites can make it visible. Ingest must not overlap the
  /// destructor: a wait ends only when a pop makes room, and the owners
  /// stop popping there.
  void Ingest(std::span<const Tuple> tuples,
              DeltaIngestState* delta_state = nullptr,
              OwnWrites* own_writes = nullptr);

  /// A delta accumulator sized for this set; see DeltaIngestState.
  DeltaIngestState MakeDeltaState() const;

  /// Flushes every non-empty delta in `state` to its shard queue,
  /// waiting for room like Ingest. After this returns, a Drain()
  /// barrier covers the tuples.
  void FlushDeltas(DeltaIngestState& state);

  /// Blocks until every queued batch has been applied and no popped
  /// batch is still being applied, by an owner or by a reader in
  /// AwaitOwnWrites. Concurrent Ingest calls may refill queues
  /// afterwards.
  void Drain();

  /// Read-your-writes: returns once every delta queued under
  /// `own_writes` has been applied. For each shard where one is still
  /// queued, the calling thread takes shard.mu and applies queue heads,
  /// in queue order, until none is left. With nothing queued it takes
  /// no lock.
  void AwaitOwnWrites(OwnWrites& own_writes);

  /// Point query against the applied state of the owning shard.
  /// Lock-free: never blocks on shard.mu (see file comment).
  count_t Estimate(item_t key) const;

  /// Batched point query: estimates->at(i) answers keys[i]. Keys are
  /// grouped by owning shard once and each group is answered in one
  /// pass, instead of re-resolving the shard per key — QUERY_BATCH's
  /// fanout. Lock-free like Estimate.
  void EstimateBatch(std::span<const item_t> keys,
                     std::vector<uint64_t>* estimates) const;

  /// Merged heavy-hitter report: per-shard filter contents, globally
  /// sorted by descending estimate, truncated to `k`. Exact union —
  /// shards partition the keyspace. Lock-free like Estimate; each
  /// shard's entries come from one validated filter snapshot.
  std::vector<TopKEntry> TopK(uint32_t k) const;

  /// Tuples applied so far by `shard` (owner and own-write applies). Only
  /// advances after a whole sub-batch is applied, so the value is always
  /// a sub-batch boundary — the prefix-cut handle the concurrency tests
  /// bracket their oracle checks with.
  uint64_t AppliedTuples(uint32_t shard) const;

  /// Aggregate counters across shards (snapshot_generation left 0; the
  /// server fills it in from its SnapshotStore).
  WireStats GetStats() const;

  /// Drains, then serializes every shard into one payload. The digest is
  /// CRC32C over that payload.
  std::vector<uint8_t> SerializeState(StateDigest* digest = nullptr);

  /// Replaces all shard state from a SerializeState payload. Returns an
  /// error message on malformed payloads, a shard-count mismatch (the
  /// partition function depends on num_shards, so a snapshot can only be
  /// adopted by a server with the same --shards), or a sketch-shape
  /// mismatch (state is adopted into the live shards' buffers so
  /// lock-free readers never chase freed memory, which requires the
  /// snapshot's filter capacity and sketch geometry to match this
  /// server's configuration).
  std::optional<std::string> RestoreState(std::span<const uint8_t> payload);

  /// Drain + serialize + store.Save + re-adopt. On success fills
  /// `digest` (generation, ingested, CRC32C of the saved payload).
  std::optional<std::string> SaveSnapshot(SnapshotStore& store,
                                          StateDigest* digest);

  /// Recovers from the newest valid generation in `store`. Returns the
  /// recovered digest, or an error message.
  std::optional<std::string> RecoverFromStore(const SnapshotStore& store,
                                              StateDigest* digest);

  /// Test hook: while stalled, workers stop popping batches, so queues
  /// fill deterministically and Ingest's wait for room can be exercised.
  void StallWorkersForTesting(bool stalled);

 private:
  /// A queued delta, the session count it is booked against (or null)
  /// and when it was queued.
  struct QueuedDelta {
    ShardDelta delta;
    std::atomic<uint64_t>* pending;
    std::chrono::steady_clock::time_point queued_at;
  };

  struct Shard {
    /// Serializes the *writers* of sketch + applied_tuples (worker and
    /// own-write applies, restore), and every pop of the queue.
    /// Readers go through the sketch's lock-free query path instead of
    /// taking it.
    mutable std::mutex mu;
    AnyServingSketch sketch;
    /// Tuples applied. Written under mu, bumped only at work-item
    /// boundaries; read without mu by AppliedTuples.
    std::atomic<uint64_t> applied_tuples{0};

    std::mutex queue_mu;
    std::condition_variable cv_push;  ///< signalled when space frees up
    std::condition_variable cv_pop;   ///< signalled when work arrives
    std::condition_variable cv_idle;  ///< signalled when fully drained
    std::deque<QueuedDelta> queue;
    /// A popped batch is being applied (by the worker or a reader);
    /// pops happen under mu, so there is at most one.
    bool busy = false;
    std::thread worker;

    explicit Shard(AnyServingSketch s) : sketch(std::move(s)) {}
  };

  void WorkerLoop(Shard& shard);
  /// Pops the queue head and applies it, the only way a delta reaches
  /// a synopsis; caller holds shard.mu, so no other thread can pop
  /// until the delta is applied. Returns the tuples applied, 0 when the
  /// queue was empty.
  uint64_t ApplyQueueHeadLocked(Shard& shard);
  /// The split index for the shards' current filters: the cached one
  /// while every shard's head still holds its live filter's key set
  /// (checked by content on every call), otherwise one rebuilt from
  /// fresh snapshots of the shards that moved, which replaces the
  /// cache.
  std::shared_ptr<const SplitIndex> CurrentSplitIndex();
  /// Queues `delta`, first waiting for room if the queue is full; the
  /// delta is counted into `pending` when that is non-null.
  void Submit(Shard& shard, ShardDelta delta,
              std::atomic<uint64_t>* pending);
  /// Flushes shard `index`'s delta from `state` if it is non-empty.
  void FlushShardDelta(uint32_t index, DeltaIngestState& state);
  /// Serializes all shards; caller must hold every shard.mu.
  std::vector<uint8_t> SerializeLocked() const;
  /// Deserializes `payload` into the shards; caller must hold every
  /// shard.mu. Returns an error message on failure (state unchanged).
  std::optional<std::string> RestoreLocked(
      std::span<const uint8_t> payload);

  ShardSetOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// The last split index built, shared by every decode thread until a
  /// filter's key set moves (CurrentSplitIndex).
  std::mutex split_index_mu_;
  std::shared_ptr<const SplitIndex> split_index_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stalled_{false};
  std::vector<uint64_t> gauge_ids_;
};

}  // namespace net
}  // namespace asketch

#endif  // ASKETCH_NET_SHARD_SET_H_
