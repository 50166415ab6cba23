// Micro-benchmarks (google-benchmark): the filter primitives.
//   * FindKey: SIMD (SSE2/AVX2) vs scalar linear scan, across sizes —
//     quantifies Algorithm 3's contribution.
//   * MinIndex: vector vs scalar min scan.
//   * Filter hit / miss paths for all four filter designs.

#include <benchmark/benchmark.h>

#include <vector>

#include "src/common/bit_util.h"
#include "src/common/random.h"
#include "src/common/simd_scan.h"
#include "src/filter/heap_filter.h"
#include "src/filter/stream_summary_filter.h"
#include "src/filter/vector_filter.h"

namespace asketch {
namespace {

std::vector<uint32_t> MakeIds(size_t n) {
  std::vector<uint32_t> ids(RoundUp(n, kSimdBlockElements));
  Rng rng(n);
  for (size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<uint32_t>(rng.NextU64());
  }
  return ids;
}

void BM_FindKeyScalar(benchmark::State& state) {
  const size_t n = state.range(0);
  const auto ids = MakeIds(n);
  uint32_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindKeyScalar(ids.data(), n, probe++));
  }
}
BENCHMARK(BM_FindKeyScalar)->Arg(16)->Arg(32)->Arg(128)->Arg(1024);

#if defined(__SSE2__)
void BM_FindKeySse2(benchmark::State& state) {
  const size_t n = state.range(0);
  const auto ids = MakeIds(n);
  uint32_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FindKeySse2(ids.data(), ids.size(), n, probe++));
  }
}
BENCHMARK(BM_FindKeySse2)->Arg(16)->Arg(32)->Arg(128)->Arg(1024);
#endif

#if defined(__AVX2__)
void BM_FindKeyAvx2(benchmark::State& state) {
  const size_t n = state.range(0);
  const auto ids = MakeIds(n);
  uint32_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FindKeyAvx2(ids.data(), ids.size(), n, probe++));
  }
}
BENCHMARK(BM_FindKeyAvx2)->Arg(16)->Arg(32)->Arg(128)->Arg(1024);
#endif

void BM_MinIndexScalar(benchmark::State& state) {
  const size_t n = state.range(0);
  auto counts = MakeIds(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinIndexScalar(counts.data(), n));
  }
}
BENCHMARK(BM_MinIndexScalar)->Arg(32)->Arg(128)->Arg(1024);

void BM_MinIndexVector(benchmark::State& state) {
  const size_t n = state.range(0);
  auto counts = MakeIds(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinIndex(counts.data(), counts.size(), n));
  }
}
BENCHMARK(BM_MinIndexVector)->Arg(32)->Arg(128)->Arg(1024);

template <typename FilterT>
void BM_FilterHit(benchmark::State& state) {
  const uint32_t capacity = static_cast<uint32_t>(state.range(0));
  FilterT filter(capacity);
  for (uint32_t key = 0; key < capacity; ++key) {
    filter.Insert(key * 977 + 13, key + 1, 0);
  }
  Rng rng(7);
  std::vector<item_t> probes(1024);
  for (auto& p : probes) {
    p = static_cast<item_t>(rng.NextBounded(capacity)) * 977 + 13;
  }
  size_t i = 0;
  for (auto _ : state) {
    const int32_t slot = filter.Find(probes[i++ & 1023]);
    benchmark::DoNotOptimize(slot);
    if (slot >= 0) filter.AddToNewCount(slot, 1);
  }
}
BENCHMARK_TEMPLATE(BM_FilterHit, VectorFilter)->Arg(32)->Arg(128);
BENCHMARK_TEMPLATE(BM_FilterHit, StrictHeapFilter)->Arg(32)->Arg(128);
BENCHMARK_TEMPLATE(BM_FilterHit, RelaxedHeapFilter)->Arg(32)->Arg(128);
BENCHMARK_TEMPLATE(BM_FilterHit, StreamSummaryFilter)->Arg(32)->Arg(128);

template <typename FilterT>
void BM_FilterMissAndMin(benchmark::State& state) {
  // The miss path of Algorithm 1: a failed lookup plus a MinNewCount().
  const uint32_t capacity = static_cast<uint32_t>(state.range(0));
  FilterT filter(capacity);
  for (uint32_t key = 0; key < capacity; ++key) {
    filter.Insert(key * 977 + 13, key + 1, 0);
  }
  item_t probe = 1;  // never inserted (all inserted keys are odd*977+13)
  for (auto _ : state) {
    const int32_t slot = filter.Find(probe);
    benchmark::DoNotOptimize(slot);
    benchmark::DoNotOptimize(filter.MinNewCount());
    probe += 2;
  }
}
BENCHMARK_TEMPLATE(BM_FilterMissAndMin, VectorFilter)->Arg(32)->Arg(128);
BENCHMARK_TEMPLATE(BM_FilterMissAndMin, StrictHeapFilter)
    ->Arg(32)
    ->Arg(128);
BENCHMARK_TEMPLATE(BM_FilterMissAndMin, RelaxedHeapFilter)
    ->Arg(32)
    ->Arg(128);
BENCHMARK_TEMPLATE(BM_FilterMissAndMin, StreamSummaryFilter)
    ->Arg(32)
    ->Arg(128);

}  // namespace
}  // namespace asketch

BENCHMARK_MAIN();
