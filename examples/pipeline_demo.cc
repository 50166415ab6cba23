// Pipeline parallelism demo — the two-core deployment of §6.2.
//
//   $ ./pipeline_demo
//
// Runs the same skewed stream through the sequential ASketch and the
// pipeline-parallel one (filter on the caller's core, Count-Min on a
// worker core, SPSC message queues in between), then cross-checks the
// estimates. Exits nonzero if any pipeline estimate falls below the
// key's exact count; the two deployments need not agree exactly, because
// the pipeline's exchanges depend on thread timing. On a multi-core
// machine the pipeline roughly doubles update throughput in the
// real-world skew range (Fig. 12); on a single-core machine it
// demonstrates the protocol's correctness rather than speed.

#include <cstdio>

#include "src/common/stopwatch.h"
#include "src/core/asketch.h"
#include "src/core/pipeline_asketch.h"
#include "src/workload/exact_counter.h"
#include "src/workload/stream_generator.h"

int main() {
  using namespace asketch;

  ASketchConfig config;
  config.total_bytes = 128 * 1024;
  config.width = 8;
  config.filter_items = 32;

  StreamSpec spec;
  spec.stream_size = 2'000'000;
  spec.num_distinct = 500'000;
  spec.skew = 1.5;
  const std::vector<Tuple> stream = GenerateStream(spec);
  ExactCounter truth(spec.num_distinct);
  for (const Tuple& t : stream) truth.Update(t.key, t.value);

  auto sequential = MakeASketchCountMin<RelaxedHeapFilter>(config);
  Stopwatch sequential_timer;
  for (const Tuple& t : stream) sequential.Update(t.key, t.value);
  const double sequential_ms = sequential_timer.ElapsedMillis();

  PipelineASketch pipeline(config);
  Stopwatch pipeline_timer;
  for (const Tuple& t : stream) pipeline.Update(t.key, t.value);
  pipeline.Flush();
  const double pipeline_ms = pipeline_timer.ElapsedMillis();

  std::printf("%-22s %14s %16s\n", "variant", "items/ms", "exchanges");
  std::printf("%-22s %14.0f %16llu\n", "sequential ASketch",
              stream.size() / sequential_ms,
              static_cast<unsigned long long>(
                  sequential.stats().exchanges));
  std::printf("%-22s %14.0f %16llu\n", "pipeline ASketch",
              stream.size() / pipeline_ms,
              static_cast<unsigned long long>(
                  pipeline.stats().exchanges));

  // Cross-check a few estimates between the two deployments.
  ZipfStreamGenerator generator(spec);
  std::printf("\n%-8s %14s %14s %14s\n", "rank", "true", "sequential",
              "pipeline");
  for (uint64_t rank : {1, 2, 4, 8, 1000}) {
    const item_t key = generator.RankToKey(rank);
    std::printf("%-8llu %14llu %14u %14u\n",
                static_cast<unsigned long long>(rank),
                static_cast<unsigned long long>(truth.Count(key)),
                sequential.Estimate(key), pipeline.Estimate(key));
  }
  uint64_t undercounts = 0;
  for (item_t key = 0; key < spec.num_distinct; ++key) {
    if (pipeline.Estimate(key) < truth.Count(key)) ++undercounts;
  }
  std::printf("\none-sided check: %llu pipeline under-estimates across "
              "%llu keys (must be 0)\n",
              static_cast<unsigned long long>(undercounts),
              static_cast<unsigned long long>(spec.num_distinct));
  std::printf("\npipeline stats: forwarded=%llu fixups=%llu (dropped "
              "%llu)\n",
              static_cast<unsigned long long>(pipeline.stats().forwarded),
              static_cast<unsigned long long>(
                  pipeline.stats().fixups_applied),
              static_cast<unsigned long long>(
                  pipeline.stats().fixups_dropped));
  return undercounts == 0 ? 0 : 1;
}
