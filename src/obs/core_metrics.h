// Pre-resolved metric handles for the library's instrumentation sites.
//
// Hot paths must not pay the registry's name lookup (a map find under a
// mutex) per event, so each instrumented subsystem declares a struct of
// Counter/Gauge/Histogram references resolved once, on first use, against
// MetricsRegistry::Global(). After that an increment is the counter's
// cache-local cell add and nothing else.
//
// The same structs exist under -DASKETCH_NO_TELEMETRY via the stub
// registry (whose getters return shared no-ops), but instrumentation
// sites wrap their calls in ASKETCH_TELEMETRY_ONLY anyway, so the structs
// are only actually referenced in telemetry builds.
//
// Metric naming (DESIGN.md §5): asketch_<subsystem>_<what>[_total|_ns].

#ifndef ASKETCH_OBS_CORE_METRICS_H_
#define ASKETCH_OBS_CORE_METRICS_H_

#include "src/obs/metrics.h"

namespace asketch {
namespace obs {

/// ASketch::Update / UpdateBatch — the ingest path. The two weight
/// counters are the live equivalents of ASketchStats::filtered_weight /
/// sketch_weight; `asketch_filter_selectivity` is derived from them at
/// collection time by a callback gauge registered on first use.
struct IngestMetrics {
  Counter& filtered_weight;      ///< weight absorbed by the filter (N1)
  Counter& sketch_weight;        ///< weight forwarded to the sketch (N2)
  Counter& exchanges;            ///< filter<->sketch exchanges
  Counter& exchange_writebacks;  ///< evictions with nonzero exact delta
  Counter& sketch_updates;       ///< sketch insertions incl. writebacks
  Counter& block_updates;        ///< of those, known-miss block inserts
  Counter& deletions;            ///< negative-delta updates
  Histogram& update_batch_ns;    ///< wall time of one UpdateBatch call

  static IngestMetrics& Get() {
    static IngestMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      auto* m = new IngestMetrics{
          r.GetCounter("asketch_filter_hit_weight_total"),
          r.GetCounter("asketch_sketch_weight_total"),
          r.GetCounter("asketch_exchanges_total"),
          r.GetCounter("asketch_exchange_writebacks_total"),
          r.GetCounter("asketch_sketch_updates_total"),
          r.GetCounter("asketch_block_updates_total"),
          r.GetCounter("asketch_deletions_total"),
          r.GetHistogram("asketch_update_batch_ns")};
      // N2 / (N1 + N2), the paper's filter selectivity, always current.
      r.RegisterCallbackGauge(
          "asketch_filter_selectivity", "", [m]() -> double {
            const double n2 = static_cast<double>(m->sketch_weight.Value());
            const double total =
                n2 + static_cast<double>(m->filtered_weight.Value());
            return total == 0 ? 0.0 : n2 / total;
          });
      return m;
    }();
    return *metrics;
  }
};

/// SalsaCountMin — counter-merge events (salsa_count_min.h). Merges are
/// rare (bounded by 3/4 of the buckets per sketch lifetime), so the
/// merge path adds straight to the registry counters instead of banking
/// deltas. `counters_lost` accumulates logical counters removed by
/// merging (1 per pair merge, parts−1 per quad merge): the aggregate
/// effective width across all live salsa sketches is their initial
/// bucket count minus this total.
struct SalsaMetrics {
  Counter& pair_merges;    ///< 8-bit pairs widened to one 16-bit counter
  Counter& quad_merges;    ///< aligned quads widened to one 32-bit counter
  Counter& counters_lost;  ///< logical counters removed by merges

  static SalsaMetrics& Get() {
    static SalsaMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new SalsaMetrics{
          r.GetCounter("asketch_salsa_pair_merges_total"),
          r.GetCounter("asketch_salsa_quad_merges_total"),
          r.GetCounter("asketch_salsa_counters_lost_total")};
    }();
    return *metrics;
  }
};

/// SnapshotStore — checkpoint durability path.
struct SnapshotMetrics {
  Counter& saves;
  Counter& save_failures;
  Counter& loads;
  Counter& load_failures;
  Counter& corrupt_skipped;  ///< generations skipped during fallback
  Histogram& save_ns;
  Histogram& load_ns;

  static SnapshotMetrics& Get() {
    static SnapshotMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new SnapshotMetrics{
          r.GetCounter("asketch_snapshot_saves_total"),
          r.GetCounter("asketch_snapshot_save_failures_total"),
          r.GetCounter("asketch_snapshot_loads_total"),
          r.GetCounter("asketch_snapshot_load_failures_total"),
          r.GetCounter("asketch_snapshot_corrupt_skipped_total"),
          r.GetHistogram("asketch_snapshot_save_ns"),
          r.GetHistogram("asketch_snapshot_load_ns")};
    }();
    return *metrics;
  }
};

}  // namespace obs
}  // namespace asketch

#endif  // ASKETCH_OBS_CORE_METRICS_H_
