// Micro-benchmarks (google-benchmark): sketch update and estimate costs
// for the backends (Count-Min, FCM, Count Sketch) and the end-to-end
// ASketch update at two skews.

#include <benchmark/benchmark.h>

#include <vector>

#include "src/core/asketch.h"
#include "src/workload/stream_generator.h"

namespace asketch {
namespace {

constexpr size_t kBudget = 128 * 1024;

std::vector<Tuple> SkewedStream(double skew) {
  StreamSpec spec;
  spec.stream_size = 1 << 20;
  spec.num_distinct = 1 << 18;
  spec.skew = skew;
  spec.seed = 3;
  return GenerateStream(spec);
}

template <typename T>
void RunUpdates(benchmark::State& state, T& estimator,
                const std::vector<Tuple>& stream) {
  size_t i = 0;
  const size_t mask = stream.size() - 1;  // stream size is a power of two
  for (auto _ : state) {
    const Tuple& t = stream[i++ & mask];
    estimator.Update(t.key, t.value);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CountMinUpdate(benchmark::State& state) {
  CountMin sketch(CountMinConfig::FromSpaceBudget(kBudget, 8));
  const auto stream = SkewedStream(1.5);
  RunUpdates(state, sketch, stream);
}
BENCHMARK(BM_CountMinUpdate);

void BM_FcmUpdate(benchmark::State& state) {
  Fcm sketch(FcmConfig::FromSpaceBudget(kBudget, 8, 32));
  const auto stream = SkewedStream(1.5);
  RunUpdates(state, sketch, stream);
}
BENCHMARK(BM_FcmUpdate);

void BM_CountSketchUpdate(benchmark::State& state) {
  CountSketch sketch(CountSketchConfig::FromSpaceBudget(kBudget, 8));
  const auto stream = SkewedStream(1.5);
  RunUpdates(state, sketch, stream);
}
BENCHMARK(BM_CountSketchUpdate);

void BM_ASketchUpdate(benchmark::State& state) {
  ASketchConfig config;
  config.total_bytes = kBudget;
  config.width = 8;
  config.filter_items = 32;
  auto sketch = MakeASketchCountMin<RelaxedHeapFilter>(config);
  const auto stream = SkewedStream(state.range(0) / 10.0);
  RunUpdates(state, sketch, stream);
}
BENCHMARK(BM_ASketchUpdate)->Arg(0)->Arg(10)->Arg(15)->Arg(25);

void BM_CountMinEstimate(benchmark::State& state) {
  CountMin sketch(CountMinConfig::FromSpaceBudget(kBudget, 8));
  const auto stream = SkewedStream(1.5);
  for (const Tuple& t : stream) sketch.Update(t.key, t.value);
  size_t i = 0;
  const size_t mask = stream.size() - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Estimate(stream[i++ & mask].key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinEstimate);

void BM_ASketchEstimate(benchmark::State& state) {
  ASketchConfig config;
  config.total_bytes = kBudget;
  config.width = 8;
  config.filter_items = 32;
  auto sketch = MakeASketchCountMin<RelaxedHeapFilter>(config);
  const auto stream = SkewedStream(1.5);
  for (const Tuple& t : stream) sketch.Update(t.key, t.value);
  size_t i = 0;
  const size_t mask = stream.size() - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Estimate(stream[i++ & mask].key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ASketchEstimate);

}  // namespace
}  // namespace asketch

BENCHMARK_MAIN();
