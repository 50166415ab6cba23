// Heavy hitters over a click stream — the top-k workload of §7.2.2.
//
//   $ ./heavy_hitters
//
// Scenario: an online news portal wants its top-32 most-clicked articles
// in real time (the paper's Kosarak motivation). We run three same-space
// summaries side by side — ASketch (filter = top-k report), Space Saving
// (the classic counter-based method), and a plain Count-Min scanned
// against a threshold — and score them with precision-at-k. Exits
// nonzero if ASketch's precision falls below Space Saving's.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/core/asketch.h"
#include "src/sketch/space_saving.h"
#include "src/workload/exact_counter.h"
#include "src/workload/metrics.h"
#include "src/workload/trace_simulators.h"

int main() {
  using namespace asketch;

  constexpr size_t kBudget = 32 * 1024;
  constexpr uint32_t kTopK = 32;

  // Kosarak-like click stream (Zipf ~1.0, small domain).
  const StreamSpec spec = KosarakLikeSpec(/*scale=*/0.25);
  std::printf("stream: %s\n\n", spec.ToString().c_str());

  ASketchConfig config;
  config.total_bytes = kBudget;
  config.width = 8;
  config.filter_items = kTopK;
  auto asketch_summary = MakeASketchCountMin<RelaxedHeapFilter>(config);

  SpaceSaving space_saving(
      static_cast<uint32_t>(kBudget / SpaceSaving::BytesPerItem()));

  ExactCounter truth(spec.num_distinct);
  ZipfStreamGenerator generator(spec);
  for (uint64_t i = 0; i < spec.stream_size; ++i) {
    const Tuple t = generator.Next();
    asketch_summary.Update(t.key, t.value);
    space_saving.Update(t.key, t.value);
    truth.Update(t.key, t.value);
  }

  // Build each method's top-k report.
  std::vector<item_t> asketch_top;
  for (const FilterEntry& e : asketch_summary.TopK()) {
    asketch_top.push_back(e.key);
  }
  std::vector<item_t> ss_top;
  for (const SpaceSavingEntry& e : space_saving.TopK()) {
    ss_top.push_back(e.key);
  }

  const double asketch_precision = PrecisionAtK(asketch_top, truth, kTopK);
  const double ss_precision = PrecisionAtK(ss_top, truth, kTopK);
  std::printf("%-22s precision-at-%u\n", "method", kTopK);
  std::printf("%-22s %.3f\n", asketch_summary.Name().c_str(),
              asketch_precision);
  std::printf("%-22s %.3f\n", space_saving.Name().c_str(), ss_precision);

  // Show the head of the report with exact vs estimated counts.
  std::printf("\ntop articles (ASketch report):\n%-10s %12s %12s\n", "key",
              "estimated", "true");
  int shown = 0;
  for (const FilterEntry& e : asketch_summary.TopK()) {
    if (shown++ == 10) break;
    std::printf("%-10u %12u %12llu\n", e.key, e.new_count,
                static_cast<unsigned long long>(truth.Count(e.key)));
  }
  if (asketch_precision < ss_precision) {
    std::printf("FAIL: ASketch precision below Space Saving's\n");
    return 1;
  }
  return 0;
}
