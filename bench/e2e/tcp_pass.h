// The loopback part of a run: for each sub-run a freshly started
// asketchd, set-up timing, an untimed warm-up pass over the input buffer,
// the timed part (bulk senders, query generator, sentinel generator), and
// the correctness gates checked against exact counts at the end.

#ifndef ASKETCH_BENCH_E2E_TCP_PASS_H_
#define ASKETCH_BENCH_E2E_TCP_PASS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/e2e/e2e_common.h"
#include "src/common/types.h"
#include "src/net/protocol.h"

namespace asketch {
namespace e2e {

/// Everything generated from --seed before any daemon starts.
struct Inputs {
  /// Bulk senders split this buffer into kBulkConnections equal slices
  /// and cycle their own slice.
  std::vector<Tuple> buffer;
  /// Frequency-proportional keys for the live QUERY_BATCH stream.
  std::vector<item_t> query_pool;
  /// Frequency-proportional keys for the final observed-error check.
  std::vector<item_t> accuracy_keys;
  /// First sentinel key of this seed (all sentinels are >= 2^31).
  item_t sentinel_base = kSentinelKeyBase;
};

Inputs MakeInputs(const Workload& workload, const RunConfig& config);

struct LoopbackResult {
  /// The end-to-end metrics (BENCHMARK.json "end_to_end").
  MetricList metrics;
  /// STATS counts, loadgen lateness, client-call spans and the tracing
  /// overhead (per-layer metrics measured over the wire).
  MetricList layer;
  /// The last sub-run's final STATS.
  net::WireStats stats;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Human-readable description of every gate that failed.
  std::vector<std::string> gate_failures;
  /// Spans of every generator thread (traced runs).
  std::vector<SpanLog> span_logs;
};

/// Runs the RunConfig::sub_runs loopback sub-runs of `workload`.
LoopbackResult RunLoopback(const Workload& workload, const RunConfig& config,
                           const Inputs& inputs);

}  // namespace e2e
}  // namespace asketch

#endif  // ASKETCH_BENCH_E2E_TCP_PASS_H_
