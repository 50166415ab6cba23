// Figure 12: stream-processing throughput of pipeline-parallel ASketch
// (filter core + sketch core) and pipeline-parallel Holistic UDAFs vs the
// sequential ASketch baseline, across skews.
//
// NOTE: the paper ran this on an 8-core Xeon; this container exposes one
// core, so the pipeline cannot show a speedup here — the bench still
// exercises the real two-thread deployment and reports honest numbers
// (see EXPERIMENTS.md for the discussion).

#include <cstdio>
#include <thread>

#include "bench/common/bench_util.h"
#include "src/core/asketch.h"
#include "src/core/pipeline_asketch.h"
#include "src/core/pipeline_holistic_udaf.h"
#include "src/sketch/holistic_udaf.h"

namespace asketch {
namespace bench {
namespace {

constexpr size_t kBudget = 128 * 1024;

/// Items/ms of the two-thread pipeline; `stats` receives its counters.
double PipelineThroughput(const Workload& workload,
                          const ASketchConfig& config,
                          PipelineStats* stats) {
  PipelineASketch pipeline(config);
  Stopwatch timer;
  for (const Tuple& t : workload.stream) {
    pipeline.Update(t.key, t.value);
  }
  pipeline.Flush();
  const double throughput = static_cast<double>(workload.stream.size()) /
                            timer.ElapsedMillis();
  *stats = pipeline.stats();
  return throughput;
}

double PipelineUdafThroughput(const Workload& workload) {
  PipelineHolisticUdaf pipeline(HolisticUdafConfig::FromSpaceBudget(
      kBudget, 8, 32, 42));
  Stopwatch timer;
  for (const Tuple& t : workload.stream) {
    pipeline.Update(t.key, t.value);
  }
  pipeline.Flush();
  return static_cast<double>(workload.stream.size()) /
         timer.ElapsedMillis();
}

void Main() {
  const double scale = ScaleFromEnv();
  PrintBanner(
      "Figure 12",
      "Pipeline-parallel ASketch and pipeline-parallel Holistic UDAFs vs "
      "sequential ASketch. Hardware note: this host reports "
      + std::to_string(std::thread::hardware_concurrency()) +
      " hardware thread(s); the paper used 8 cores.",
      SyntheticSpec(0, scale).ToString());
  // `forwarded` counts the tuples the filter stage sent to the sketch
  // stage and `full_spins` its waits on a full forward queue.
  std::printf("%-8s %20s %20s %20s %12s %12s\n", "skew",
              "ASketch (items/ms)", "Parallel ASketch", "Parallel H-UDAF",
              "forwarded", "full_spins");
  for (const double skew : SkewGrid()) {
    const Workload workload(SyntheticSpec(skew, scale));
    ASketchConfig config;
    config.total_bytes = kBudget;
    config.width = 8;
    config.filter_items = 32;
    auto sequential = MakeASketchCountMin<RelaxedHeapFilter>(config);
    const double seq = UpdateThroughput(sequential, workload.stream);
    PipelineStats stats;
    const double par = PipelineThroughput(workload, config, &stats);
    const double udaf_thpt = PipelineUdafThroughput(workload);
    std::printf("%-8.2f %20.0f %20.0f %20.0f %12llu %12llu\n", skew, seq,
                par, udaf_thpt,
                static_cast<unsigned long long>(stats.forwarded),
                static_cast<unsigned long long>(stats.forward_full_spins));
  }
}

}  // namespace
}  // namespace bench
}  // namespace asketch

int main() {
  asketch::bench::Main();
  return 0;
}
