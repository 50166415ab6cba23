// Exposition formats for MetricsSnapshot: Prometheus text format and a
// JSON dump with derived percentiles.
//
// Both renderers are pure functions of a snapshot, so the bytes
// `asketchd --metrics-port` serves are the bytes tests can pin. Output
// is deterministic: metric sections are sorted by (name, labels) by
// Collect(), and numbers render with a fixed format — the Prometheus
// golden test diffs against tests/golden/exposition.prom byte-for-byte.

#ifndef ASKETCH_OBS_EXPORT_H_
#define ASKETCH_OBS_EXPORT_H_

#include <string>

#include "src/obs/metrics.h"

namespace asketch {
namespace obs {

/// Prometheus text exposition (version 0.0.4): one `# TYPE` line per
/// metric, counters/gauges as single samples, histograms as cumulative
/// `_bucket{le="..."}` series plus `_sum` and `_count`. Zero-count
/// histogram buckets below the first occupied one are still emitted (the
/// format requires the full cumulative series), but the bucket list is
/// truncated after the last finite bucket with data; `le="+Inf"` always
/// closes the series.
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

/// JSON object {"counters":[...],"gauges":[...],"histograms":[...]};
/// histograms carry count/sum/max plus p50/p90/p99 and the non-empty
/// buckets as {"le":bound,"count":n} pairs ("le":"+Inf" renders as
/// le = null). Parses under any strict JSON parser.
std::string RenderMetricsJson(const MetricsSnapshot& snapshot);

}  // namespace obs
}  // namespace asketch

#endif  // ASKETCH_OBS_EXPORT_H_
