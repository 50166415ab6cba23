// Ablation: ASketch generality over sketch backends. Runs the same
// 128 KB budget with Count-Min, SALSA, FCM, and Count Sketch backends,
// with and without the filter, at Zipf 1.5.
// Validates the paper's claim that the filter's improvement is orthogonal
// to the underlying sketch (§7.2.1, Fig. 8) — and extends it to two
// backends the paper did not measure.

#include <cstdio>

#include "bench/common/bench_util.h"
#include "src/core/asketch.h"

namespace asketch {
namespace bench {
namespace {

constexpr size_t kBudget = 128 * 1024;
constexpr uint32_t kWidth = 8;
constexpr uint32_t kFilterItems = 32;
constexpr uint64_t kSeed = 42;

template <typename T>
void Run(const char* name, T estimator, const Workload& workload) {
  const double update = UpdateThroughput(estimator, workload.stream);
  const double error = ObservedErrorPercent(estimator, workload);
  std::printf("%-34s %14.0f %18.4g\n", name, update, error);
}

void Main() {
  const double scale = ScaleFromEnv();
  const Workload workload(SyntheticSpec(1.5, scale));
  PrintBanner("Ablation: sketch backends",
              "Plain backend vs the same backend behind the filter; the "
              "filter's win must be backend-independent.",
              workload.spec.ToString());
  std::printf("%-34s %14s %18s\n", "configuration", "updates/ms",
              "observed err (%)");

  ASketchConfig config;
  config.total_bytes = kBudget;
  config.width = kWidth;
  config.filter_items = kFilterItems;
  config.seed = kSeed;

  Run("CountMin",
      CountMin(CountMinConfig::FromSpaceBudget(kBudget, kWidth, kSeed)),
      workload);
  Run("ASketch<CountMin>",
      MakeASketchCountMin<RelaxedHeapFilter>(config), workload);

  Run("SalsaCountMin",
      SalsaCountMin(SalsaConfig::FromSpaceBudget(kBudget, kWidth, kSeed)),
      workload);
  Run("ASketch<SalsaCountMin>",
      MakeASketchSalsa<RelaxedHeapFilter>(config), workload);

  FcmConfig fcm_config =
      FcmConfig::FromSpaceBudget(kBudget, kWidth, kFilterItems, kSeed);
  Run("FCM", Fcm(fcm_config), workload);
  Run("ASketch<FCM>", MakeASketchFcm<RelaxedHeapFilter>(config), workload);

  Run("CountSketch",
      CountSketch(CountSketchConfig::FromSpaceBudget(kBudget, kWidth,
                                                     kSeed)),
      workload);
  Run("ASketch<CountSketch>",
      MakeASketchCountSketch<RelaxedHeapFilter>(config), workload);
}

}  // namespace
}  // namespace bench
}  // namespace asketch

int main() {
  asketch::bench::Main();
  return 0;
}
