// Quickstart: build an ASketch, feed it a stream, query frequencies.
//
//   $ ./quickstart
//
// Demonstrates the three-line happy path — configure a space budget,
// update with (key, weight) tuples, query point frequencies — and shows
// the accuracy difference against a plain Count-Min of the same size.
// Exits nonzero unless ASketch is exact on the top ranks and its total
// error over the printed ranks is no larger than Count-Min's.

#include <cstdio>

#include "src/core/asketch.h"
#include "src/workload/exact_counter.h"
#include "src/workload/stream_generator.h"

int main() {
  using namespace asketch;

  // 1. Configure: 128 KB total, 8 hash rows, a 32-item filter. The filter
  //    is paid for by shrinking the sketch, so the whole synopsis is
  //    exactly as big as a plain 128 KB Count-Min.
  ASketchConfig config;
  config.total_bytes = 128 * 1024;
  config.width = 8;
  config.filter_items = 32;
  auto sketch = MakeASketchCountMin<RelaxedHeapFilter>(config);

  // 2. Update with a synthetic skewed stream (2M tuples, 500K distinct
  //    keys, Zipf 1.5 — a typical real-world skew).
  StreamSpec spec;
  spec.stream_size = 2'000'000;
  spec.num_distinct = 500'000;
  spec.skew = 1.5;
  ExactCounter truth(spec.num_distinct);
  ZipfStreamGenerator generator(spec);
  for (uint64_t i = 0; i < spec.stream_size; ++i) {
    const Tuple t = generator.Next();
    sketch.Update(t.key, t.value);
    truth.Update(t.key, t.value);
  }

  // 3. Query: the hottest keys are answered exactly from the filter.
  CountMin baseline(CountMinConfig::FromSpaceBudget(config.total_bytes,
                                                    config.width));
  // (re-run the same stream through the baseline for a fair comparison)
  ZipfStreamGenerator replay(spec);
  for (uint64_t i = 0; i < spec.stream_size; ++i) {
    const Tuple t = replay.Next();
    baseline.Update(t.key, t.value);
  }

  std::printf("%-6s %12s %12s %12s\n", "rank", "true", "ASketch",
              "Count-Min");
  constexpr uint64_t kExactRanks = 10;  // well inside the 32-item filter
  bool top_exact = true;
  // Both estimates are one-sided, so each error is estimate - truth.
  wide_count_t asketch_error = 0;
  wide_count_t baseline_error = 0;
  for (uint64_t rank : {1, 2, 3, 5, 10, 100, 10000}) {
    const item_t key = generator.RankToKey(rank);
    const wide_count_t exact = truth.Count(key);
    const wide_count_t ours = sketch.Estimate(key);
    const wide_count_t theirs = baseline.Estimate(key);
    std::printf("%-6llu %12llu %12llu %12llu\n",
                static_cast<unsigned long long>(rank),
                static_cast<unsigned long long>(exact),
                static_cast<unsigned long long>(ours),
                static_cast<unsigned long long>(theirs));
    if (rank <= kExactRanks && ours != exact) top_exact = false;
    asketch_error += ours - exact;
    baseline_error += theirs - exact;
  }
  std::printf("%-6s %12s %12llu %12llu\n", "error", "",
              static_cast<unsigned long long>(asketch_error),
              static_cast<unsigned long long>(baseline_error));

  std::printf(
      "\nfilter absorbed %.1f%% of all counts; %llu exchanges; "
      "synopsis size %zu bytes\n",
      100.0 * (1.0 - sketch.stats().FilterSelectivity()),
      static_cast<unsigned long long>(sketch.stats().exchanges),
      sketch.MemoryUsageBytes());
  if (!top_exact) {
    std::printf("FAIL: ASketch is not exact on the top %llu ranks\n",
                static_cast<unsigned long long>(kExactRanks));
    return 1;
  }
  if (asketch_error > baseline_error) {
    std::printf("FAIL: ASketch total error exceeds Count-Min's\n");
    return 1;
  }
  return 0;
}
