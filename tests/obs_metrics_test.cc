// Tests for the telemetry registry: counter exactness (single- and
// multi-threaded), gauge semantics, callback gauges, histogram bucket
// boundaries / overflow / percentiles / merging, and Collect() ordering.

#include "src/obs/metrics.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/asketch.h"
#include "src/obs/core_metrics.h"

namespace asketch {
namespace obs {
namespace {

// Private registries keep tests independent of the process-global metric
// state (library instrumentation writes to Global()).

TEST(HistogramBucketTest, IndexMatchesBitWidth) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  EXPECT_EQ(HistogramBucketIndex(0), 0u);
  EXPECT_EQ(HistogramBucketIndex(1), 1u);
  EXPECT_EQ(HistogramBucketIndex(2), 2u);
  EXPECT_EQ(HistogramBucketIndex(3), 2u);
  EXPECT_EQ(HistogramBucketIndex(4), 3u);
  EXPECT_EQ(HistogramBucketIndex(7), 3u);
  EXPECT_EQ(HistogramBucketIndex(8), 4u);
  // The last finite bucket holds [2^38, 2^39 - 1]; everything at or
  // beyond 2^39 overflows.
  const uint64_t last_finite = (uint64_t{1} << (kHistogramBuckets - 1)) - 1;
  EXPECT_EQ(HistogramBucketIndex(last_finite), kHistogramBuckets - 1);
  EXPECT_EQ(HistogramBucketIndex(last_finite + 1), kHistogramBuckets);
  EXPECT_EQ(HistogramBucketIndex(~uint64_t{0}), kHistogramBuckets);
}

TEST(HistogramBucketTest, UpperBoundsAreInclusive) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  for (uint32_t i = 1; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketUpperBound(i)), i);
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketUpperBound(i) + 1), i + 1);
  }
}

TEST(HistogramTest, RecordsCountSumMaxAndBuckets) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("h");
  histogram.Record(0);
  histogram.Record(1);
  histogram.Record(100);
  histogram.Record(100);
  const HistogramSample sample = histogram.Sample();
  EXPECT_EQ(sample.count, 4u);
  EXPECT_EQ(sample.sum, 201u);
  EXPECT_EQ(sample.max, 100u);
  EXPECT_EQ(sample.buckets[0], 1u);                          // the zero
  EXPECT_EQ(sample.buckets[1], 1u);                          // the one
  EXPECT_EQ(sample.buckets[HistogramBucketIndex(100)], 2u);  // the 100s
}

TEST(HistogramTest, OverflowBucketAndPercentiles) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("h");
  const uint64_t huge = uint64_t{1} << (kHistogramBuckets + 3);
  histogram.Record(huge);
  const HistogramSample sample = histogram.Sample();
  EXPECT_EQ(sample.buckets[kHistogramBuckets], 1u);
  EXPECT_EQ(sample.max, huge);
  // A quantile landing in the overflow bucket reports the observed max.
  EXPECT_EQ(sample.p99, static_cast<double>(huge));
}

TEST(HistogramTest, PercentilesFollowCumulativeCounts) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("h");
  // 90 small values in bucket [1], 10 large values in bucket of 1000.
  for (int i = 0; i < 90; ++i) histogram.Record(1);
  for (int i = 0; i < 10; ++i) histogram.Record(1000);
  const HistogramSample sample = histogram.Sample();
  EXPECT_EQ(sample.count, 100u);
  EXPECT_EQ(sample.p50, 1.0);
  // p99 lands among the 1000s: reported as that bucket's upper bound
  // capped at the observed max.
  EXPECT_EQ(sample.p99, 1000.0);
  // p90 rank is the boundary: the 91st value, i.e. the first 1000.
  EXPECT_EQ(sample.p90, 1000.0);
}

TEST(HistogramTest, PercentileCappedAtObservedMax) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("h");
  histogram.Record(513);  // bucket [512, 1023], upper bound 1023
  const HistogramSample sample = histogram.Sample();
  EXPECT_EQ(sample.p50, 513.0);
  EXPECT_EQ(sample.p99, 513.0);
}

TEST(CounterTest, SingleThreadedExactness) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("c");
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(CounterTest, GetCounterReturnsSameInstanceByNameAndLabels) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("c", "x=\"1\"");
  Counter& b = registry.GetCounter("c", "x=\"1\"");
  Counter& other = registry.GetCounter("c", "x=\"2\"");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.Add(7);
  EXPECT_EQ(b.Value(), 7u);
  EXPECT_EQ(other.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("c");
  Counter& weighted = registry.GetCounter("w");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &weighted] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        weighted.Add(3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Per-thread cells have a single writer each, so no increment can be
  // lost: totals are exact, not approximate.
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(weighted.Value(),
            static_cast<uint64_t>(kThreads) * kPerThread * 3);
}

TEST(CounterTest, ValueVisibleWhileWritersRun) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("c");
  std::atomic<bool> stop{false};
  std::thread writer([&counter, &stop] {
    while (!stop.load(std::memory_order_relaxed)) counter.Increment();
  });
  uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const uint64_t now = counter.Value();
    EXPECT_GE(now, last);  // reader sees monotonic progress
    last = now;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(counter.Value(), counter.Value());
}

TEST(GaugeTest, SetAddAndNegativeValues) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  MetricsRegistry registry;
  Gauge& gauge = registry.GetGauge("g");
  gauge.Set(10);
  gauge.Add(-12);
  EXPECT_EQ(gauge.Value(), -2);
}

TEST(CallbackGaugeTest, EvaluatedAtCollectTime) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  MetricsRegistry registry;
  double live_value = 1.5;
  const uint64_t id = registry.RegisterCallbackGauge(
      "cb", "", [&live_value] { return live_value; });
  MetricsSnapshot snapshot = registry.Collect();
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].name, "cb");
  EXPECT_EQ(snapshot.gauges[0].value, 1.5);
  live_value = 2.5;
  snapshot = registry.Collect();
  EXPECT_EQ(snapshot.gauges[0].value, 2.5);
  registry.UnregisterCallbackGauge(id);
  EXPECT_TRUE(registry.Collect().gauges.empty());
}

TEST(CallbackGaugeTest, CallbackMayReadCounters) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  // The documented pattern: a derived gauge computed from counters. This
  // exercises the callback-invokes-registry-lock path (no deadlock).
  MetricsRegistry registry;
  Counter& hits = registry.GetCounter("hits");
  Counter& misses = registry.GetCounter("misses");
  registry.RegisterCallbackGauge("ratio", "", [&hits, &misses] {
    const double total =
        static_cast<double>(hits.Value() + misses.Value());
    return total == 0 ? 0.0 : static_cast<double>(misses.Value()) / total;
  });
  hits.Add(3);
  misses.Add(1);
  const MetricsSnapshot snapshot = registry.Collect();
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].value, 0.25);
}

TEST(RegistryTest, CollectSortsByNameThenLabels) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  MetricsRegistry registry;
  registry.GetCounter("b");
  registry.GetCounter("a", "z=\"2\"");
  registry.GetCounter("a", "z=\"1\"");
  registry.GetGauge("g");
  registry.GetHistogram("h");
  const MetricsSnapshot snapshot = registry.Collect();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].name, "a");
  EXPECT_EQ(snapshot.counters[0].labels, "z=\"1\"");
  EXPECT_EQ(snapshot.counters[1].labels, "z=\"2\"");
  EXPECT_EQ(snapshot.counters[2].name, "b");
  EXPECT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(registry.MetricCount(), 5u);
}

TEST(IngestMetricsTest, RegistryMirrorsASketchStats) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  // Satellite contract of the stats unification: the per-instance
  // ASketchStats view and the global registry counters describe the same
  // events. The registry is cumulative across instances, so compare
  // before/after deltas.
  IngestMetrics& metrics = IngestMetrics::Get();
  const uint64_t filtered0 = metrics.filtered_weight.Value();
  const uint64_t sketch0 = metrics.sketch_weight.Value();
  const uint64_t updates0 = metrics.sketch_updates.Value();
  const uint64_t exchanges0 = metrics.exchanges.Value();
  const uint64_t writebacks0 = metrics.exchange_writebacks.Value();

  ASketchConfig config;
  config.total_bytes = 32 * 1024;
  config.filter_items = 8;
  auto sketch = MakeASketchCountMin<RelaxedHeapFilter>(config);
  std::vector<Tuple> tuples;
  for (uint32_t i = 0; i < 5000; ++i) {
    tuples.push_back({i % 100, 1 + (i % 3)});
  }
  // Half through the batch path (flushes itself), half through scalar
  // Update (flushed by the explicit publish below).
  sketch.UpdateBatch(std::span<const Tuple>(tuples.data(), 2500));
  for (size_t i = 2500; i < tuples.size(); ++i) {
    sketch.Update(tuples[i].key, static_cast<delta_t>(tuples[i].value));
  }
  sketch.PublishTelemetry();

  const ASketchStats& stats = sketch.stats();
  EXPECT_EQ(metrics.filtered_weight.Value() - filtered0,
            stats.filtered_weight);
  EXPECT_EQ(metrics.sketch_weight.Value() - sketch0, stats.sketch_weight);
  EXPECT_EQ(metrics.sketch_updates.Value() - updates0,
            stats.sketch_updates);
  EXPECT_EQ(metrics.exchanges.Value() - exchanges0, stats.exchanges);
  EXPECT_EQ(metrics.exchange_writebacks.Value() - writebacks0,
            stats.exchange_writebacks);
  EXPECT_GT(stats.filtered_weight + stats.sketch_weight, 0u);
}

TEST(RegistryTest, ThreadChurnReusesBlocksAndKeepsTotals) {
  if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  // Counters written by short-lived threads must survive those threads.
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter =
      registry.GetCounter("asketch_test_thread_churn_total");
  const uint64_t before = counter.Value();
  for (int round = 0; round < 32; ++round) {
    std::thread t([&counter] { counter.Add(10); });
    t.join();
  }
  EXPECT_EQ(counter.Value(), before + 320u);
}

}  // namespace
}  // namespace obs
}  // namespace asketch
