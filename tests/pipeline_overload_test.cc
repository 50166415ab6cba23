// Pipeline graceful degradation: bounded waits under a slow consumer,
// worker-death detection and takeover. Every scenario here must
// TERMINATE — an unbounded producer spin is the failure mode under test.
// Runs under TSan in CI alongside the other pipeline tests.

#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pipeline_asketch.h"
#include "src/workload/stream_generator.h"

namespace asketch {
namespace {

ASketchConfig SmallConfig() {
  ASketchConfig config;
  config.total_bytes = 16 * 1024;
  config.width = 4;
  config.filter_items = 16;
  config.seed = 5;
  return config;
}

std::vector<Tuple> SkewedStream(uint64_t n) {
  StreamSpec spec;
  spec.stream_size = n;
  spec.num_distinct = 3000;
  spec.skew = 1.1;
  spec.seed = 99;
  return GenerateStream(spec);
}

using TruthMap = std::unordered_map<item_t, uint64_t>;

/// Every key estimate must cover the true count minus what the pipeline
/// itself reports as shed (zero under kInlineApply).
void ExpectOneSidedModuloShed(const PipelineASketch& pipeline,
                              const TruthMap& truth) {
  const uint64_t shed = pipeline.stats().shed_tuples;
  for (const auto& [key, count] : truth) {
    EXPECT_GE(static_cast<uint64_t>(pipeline.Estimate(key)) + shed, count)
        << "key " << key;
  }
}

TEST(PipelineOverloadTest, StalledWorkerInlineApplyKeepsGuarantee) {
  // Tiny queue + stalled worker forces the bounded wait to trip on
  // nearly every forwarded tuple.
  PipelineOverloadOptions overload;
  overload.policy = OverloadPolicy::kInlineApply;
  overload.max_push_spins = 8;
  PipelineASketch pipeline(SmallConfig(), /*queue_capacity=*/16, overload);
  TruthMap exact;

  pipeline.StallWorkerForTesting(true);
  for (const Tuple& t : SkewedStream(20000)) {
    pipeline.Update(t.key);  // must return despite the stall
    ++exact[t.key];
  }
  EXPECT_TRUE(pipeline.stats().degraded);
  EXPECT_GT(pipeline.stats().forward_full_spins, 0u);
  EXPECT_GT(pipeline.stats().inline_applied, 0u);
  EXPECT_EQ(pipeline.stats().shed_tuples, 0u);

  pipeline.StallWorkerForTesting(false);
  pipeline.Flush();
  ExpectOneSidedModuloShed(pipeline, exact);
}

TEST(PipelineOverloadTest, StalledWorkerShedPolicyTerminatesAndAccounts) {
  PipelineOverloadOptions overload;
  overload.policy = OverloadPolicy::kShed;
  overload.max_push_spins = 8;
  PipelineASketch pipeline(SmallConfig(), /*queue_capacity=*/16, overload);
  TruthMap exact;

  pipeline.StallWorkerForTesting(true);
  for (const Tuple& t : SkewedStream(20000)) {
    pipeline.Update(t.key);
    ++exact[t.key];
  }
  EXPECT_TRUE(pipeline.stats().degraded);
  EXPECT_GT(pipeline.stats().shed_tuples, 0u);
  EXPECT_EQ(pipeline.stats().inline_applied, 0u);

  pipeline.StallWorkerForTesting(false);
  pipeline.Flush();
  // The guarantee weakens to one-sided modulo the reported shed weight.
  ExpectOneSidedModuloShed(pipeline, exact);
}

TEST(PipelineOverloadTest, TransientStallRecoversWithoutDegrading) {
  // A stall shorter than the spin budget must leave no trace: the
  // pipeline just waits it out.
  PipelineOverloadOptions overload;
  overload.max_push_spins = 1u << 30;  // effectively unbounded
  PipelineASketch pipeline(SmallConfig(), /*queue_capacity=*/1024,
                           overload);
  TruthMap exact;
  const auto stream = SkewedStream(20000);
  // The producer stalls the worker at tuple 5000; a second thread lifts
  // the stall once the producer reaches tuple 6000 or stops making
  // progress, i.e. is spinning on a full forward queue. Lifting it from
  // the producer itself would deadlock in that case.
  std::atomic<size_t> progress{0};
  std::atomic<bool> stalled{false};
  std::thread unstaller([&] {
    while (!stalled.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    size_t seen = progress.load(std::memory_order_acquire);
    while (seen < 6000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const size_t now = progress.load(std::memory_order_acquire);
      if (now == seen) break;  // blocked on the stalled worker
      seen = now;
    }
    pipeline.StallWorkerForTesting(false);
  });
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i == 5000) {
      pipeline.StallWorkerForTesting(true);
      stalled.store(true, std::memory_order_release);
    }
    pipeline.Update(stream[i].key);
    ++exact[stream[i].key];
    progress.store(i + 1, std::memory_order_release);
  }
  unstaller.join();
  pipeline.Flush();
  EXPECT_FALSE(pipeline.stats().degraded);
  EXPECT_EQ(pipeline.stats().inline_applied, 0u);
  EXPECT_EQ(pipeline.stats().shed_tuples, 0u);
  ExpectOneSidedModuloShed(pipeline, exact);
  // Normal-path accounting still balances.
  EXPECT_EQ(pipeline.stats().filter_hits + pipeline.stats().forwarded,
            stream.size());
}

TEST(PipelineOverloadTest, KilledWorkerFallsBackToSingleThreaded) {
  PipelineASketch pipeline(SmallConfig(), /*queue_capacity=*/64);
  TruthMap exact;
  const auto stream = SkewedStream(30000);
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i == 10000) pipeline.KillWorkerForTesting();
    pipeline.Update(stream[i].key);  // must terminate before and after
    ++exact[stream[i].key];
  }
  pipeline.Flush();  // must terminate with a dead worker
  EXPECT_TRUE(pipeline.worker_dead());
  EXPECT_TRUE(pipeline.stats().worker_dead);
  EXPECT_TRUE(pipeline.stats().degraded);
  EXPECT_GT(pipeline.stats().inline_applied, 0u);
  // The worker died at a message boundary, so no queued weight was lost
  // and the one-sided guarantee survives the takeover.
  ExpectOneSidedModuloShed(pipeline, exact);
}

TEST(PipelineOverloadTest, KilledWorkerBeforeAnyUpdateStillWorks) {
  PipelineASketch pipeline(SmallConfig(), /*queue_capacity=*/64);
  pipeline.KillWorkerForTesting();
  TruthMap exact;
  for (const Tuple& t : SkewedStream(10000)) {
    pipeline.Update(t.key);
    ++exact[t.key];
  }
  pipeline.Flush();
  EXPECT_TRUE(pipeline.worker_dead());
  ExpectOneSidedModuloShed(pipeline, exact);
}

TEST(PipelineOverloadTest, DestructorJoinsStalledWorker) {
  // Destroying a pipeline whose worker is parked must not hang.
  PipelineASketch pipeline(SmallConfig(), /*queue_capacity=*/16);
  pipeline.StallWorkerForTesting(true);
  for (item_t key = 0; key < 1000; ++key) pipeline.Update(key);
  // Destructor runs with the worker still stalled.
}

TEST(PipelineOverloadTest, DestructorJoinsDeadWorker) {
  PipelineASketch pipeline(SmallConfig(), /*queue_capacity=*/16);
  pipeline.KillWorkerForTesting();
  for (item_t key = 0; key < 1000; ++key) pipeline.Update(key);
}

}  // namespace
}  // namespace asketch
