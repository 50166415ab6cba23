// In-process timings of the layers a tuple crosses inside asketchd, each
// fed the workload's own input buffer: protocol encode/decode, an
// in-process ShardSet with default options, one shard's standalone
// synopsis, and its filter and sketch on their own (the paper's t_f and
// t_s, Table 2).

#ifndef ASKETCH_BENCH_E2E_LAYERS_H_
#define ASKETCH_BENCH_E2E_LAYERS_H_

#include <cstdint>

#include "bench/e2e/e2e_common.h"
#include "bench/e2e/tcp_pass.h"

namespace asketch {
namespace e2e {

/// Appends every in-process per-layer metric to `out`. `num_shards`
/// comes from the loopback pass's STATS: the standalone synopsis is fed
/// a shard-sized part of the buffer, the heaviest of that many. Spans of
/// each phase go to `log`.
void MeasureLayers(const RunConfig& config, const Inputs& inputs,
                   uint32_t num_shards, SpanLog* log, MetricList* out);

}  // namespace e2e
}  // namespace asketch

#endif  // ASKETCH_BENCH_E2E_LAYERS_H_
