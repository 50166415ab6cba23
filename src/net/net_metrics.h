// Pre-resolved metric handles for the network serving layer, following
// the core_metrics.h pattern: one registry lookup per process, then each
// instrumentation site is a cache-local counter add.
//
// Per-shard queue depth is per-instance state, so it is not here: each
// ShardSet registers callback gauges `asketch_net_shard_queue_depth`
// labelled shard="N" (plus the shard="none" placeholder below keeping
// the family present while no server is running).
//
// Metric naming (DESIGN.md §5): asketch_net_<what>[_total|_ns].

#ifndef ASKETCH_NET_NET_METRICS_H_
#define ASKETCH_NET_NET_METRICS_H_

#include "src/obs/metrics.h"

namespace asketch {
namespace net {

struct NetMetrics {
  obs::Counter& connections_total;   ///< connections ever accepted
  obs::Counter& frames_total;        ///< request frames decoded
  obs::Counter& frame_errors_total;  ///< malformed/rejected frames
  obs::Counter& update_batches;      ///< UPDATE frames applied
  obs::Counter& update_tuples;       ///< tuples carried by UPDATE frames
  obs::Counter& queries;             ///< QUERY + QUERY_BATCH keys answered
  obs::Counter& shed_weight;         ///< weight dropped under overload
  obs::Counter& inline_applied;      ///< tuples applied on the caller thread
  obs::Counter& enqueue_waits;       ///< bounded waits on a full shard queue
  obs::Counter& lockless_reads;      ///< queries answered without shard.mu
  obs::Counter& seqlock_retries;     ///< filter snapshot reads re-run after
                                     ///< colliding with a writer section
  obs::Counter& corrupt_streams;     ///< connections dropped for an
                                     ///< undecodable frame stream
  obs::Counter& idle_disconnects;    ///< connections closed by the server's
                                     ///< per-connection idle deadline
  obs::Counter& client_reconnects;   ///< successful client redial+replay
  obs::Counter& client_retries;      ///< idempotent requests retried after
                                     ///< a transport failure
  obs::Counter& client_replayed_tuples;  ///< tuples re-sent from the
                                         ///< unacked replay buffer
  obs::Counter& deadline_expired;    ///< client I/O waits that hit their
                                     ///< connect/read/write deadline
  obs::Counter& delta_merges;        ///< DeltaBatches folded in by shard
                                     ///< owners (ASketch::ApplyDelta calls)
  obs::Counter& delta_flushed_tuples;  ///< tuples handed to the owners
                                       ///< inside flushed DeltaBatches
  obs::Counter& replayed_tuples;     ///< tuples received in UPDATE frames
                                     ///< flagged as reconnect replays
  obs::Counter& own_write_applied;   ///< queued tuples a reading connection
                                     ///< applied itself (read-your-writes)
  obs::Gauge& connections;           ///< currently open connections
  obs::Gauge& degraded;              ///< 1 while any shard queue overflowed
  obs::Histogram& request_ns;        ///< wall time of one non-UPDATE request
  obs::Histogram& delta_merge_ns;    ///< wall time of one ApplyDelta
  obs::Histogram& queue_residency_ns;  ///< one delta's time in its shard
                                       ///< queue, enqueue to apply start
  obs::Gauge& queue_depth_idle;      ///< constant-0 shard="none" placeholder

  static NetMetrics& Get() {
    static NetMetrics* metrics = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return new NetMetrics{
          r.GetCounter("asketch_net_connections_total"),
          r.GetCounter("asketch_net_frames_total"),
          r.GetCounter("asketch_net_frame_errors_total"),
          r.GetCounter("asketch_net_update_batches_total"),
          r.GetCounter("asketch_net_update_tuples_total"),
          r.GetCounter("asketch_net_queries_total"),
          r.GetCounter("asketch_net_shed_weight_total"),
          r.GetCounter("asketch_net_inline_applied_total"),
          r.GetCounter("asketch_net_enqueue_waits_total"),
          r.GetCounter("asketch_net_lockless_reads_total"),
          r.GetCounter("asketch_net_seqlock_retries_total"),
          r.GetCounter("asketch_net_corrupt_streams_total"),
          r.GetCounter("asketch_net_idle_disconnects_total"),
          r.GetCounter("asketch_net_client_reconnects_total"),
          r.GetCounter("asketch_net_client_retries_total"),
          r.GetCounter("asketch_net_client_replayed_tuples_total"),
          r.GetCounter("asketch_net_deadline_expired_total"),
          r.GetCounter("asketch_net_delta_merges_total"),
          r.GetCounter("asketch_net_delta_flushed_tuples_total"),
          r.GetCounter("asketch_net_replayed_tuples_total"),
          r.GetCounter("asketch_net_own_write_applied_total"),
          r.GetGauge("asketch_net_connections"),
          r.GetGauge("asketch_net_degraded"),
          r.GetHistogram("asketch_net_request_ns"),
          r.GetHistogram("asketch_net_delta_merge_ns"),
          r.GetHistogram("asketch_net_queue_residency_ns"),
          r.GetGauge("asketch_net_shard_queue_depth", "shard=\"none\"")};
    }();
    return *metrics;
  }
};

}  // namespace net
}  // namespace asketch

#endif  // ASKETCH_NET_NET_METRICS_H_
