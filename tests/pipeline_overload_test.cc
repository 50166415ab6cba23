// Pipeline liveness: a slow or stalled sketch stage makes Update() wait,
// never bypass the pipeline, and tiny queues still finish. Every
// scenario here must TERMINATE — a deadlock between the two queues is the
// failure mode under test. Runs under TSan in CI alongside the other
// pipeline tests.

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

void ExpectOneSided(const PipelineASketch& pipeline, const TruthMap& truth) {
  for (const auto& [key, count] : truth) {
    EXPECT_GE(static_cast<uint64_t>(pipeline.Estimate(key)), count)
        << "key " << key;
  }
}

TEST(PipelineOverloadTest, StalledWorkerBlocksUpdateUntilUnstalled) {
  PipelineASketch pipeline(SmallConfig(), /*queue_capacity=*/16);
  const auto stream = SkewedStream(20000);
  TruthMap exact;
  for (const Tuple& t : stream) ++exact[t.key];

  pipeline.StallWorkerForTesting(true);
  std::atomic<size_t> progress{0};
  std::thread producer([&] {
    for (const Tuple& t : stream) {
      pipeline.Update(t.key);
      progress.fetch_add(1, std::memory_order_release);
    }
  });
  // With the sketch stage parked, the producer must stop inside an
  // Update once the forward queue fills, not finish the stream. Wait
  // until it has made progress and then none for five 20 ms looks, so a
  // late-starting producer is not taken for a blocked one.
  size_t seen = 0;
  for (int quiet = 0; quiet < 5;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const size_t now = progress.load(std::memory_order_acquire);
    quiet = (now == seen && now > 0) ? quiet + 1 : 0;
    seen = now;
  }
  EXPECT_LT(seen, stream.size()) << "Update did not wait for the stall";

  pipeline.StallWorkerForTesting(false);
  producer.join();
  pipeline.Flush();
  const PipelineStats& stats = pipeline.stats();
  EXPECT_GT(stats.forward_full_spins, 0u);
  // No tuple bypasses the pipeline: each one is a filter hit or went
  // through the sketch stage.
  EXPECT_EQ(stats.filter_hits + stats.forwarded, stream.size());
  ExpectOneSided(pipeline, exact);
}

TEST(PipelineOverloadTest, TinyQueuesFinishOneSided) {
  // Capacity 1 cannot carry a mark and a write-back together, so every
  // exchange with a nonzero victim is rejected; 2 and 3 round up to a
  // 3-slot ring. All must finish with the guarantee intact.
  const auto stream = SkewedStream(20000);
  TruthMap exact;
  for (const Tuple& t : stream) ++exact[t.key];
  for (const size_t capacity : {1u, 2u, 3u}) {
    SCOPED_TRACE(capacity);
    PipelineASketch pipeline(SmallConfig(), capacity);
    for (const Tuple& t : stream) pipeline.Update(t.key);
    pipeline.Flush();
    const PipelineStats& stats = pipeline.stats();
    EXPECT_EQ(stats.filter_hits + stats.forwarded, stream.size());
    EXPECT_EQ(stats.fixups_applied + stats.fixups_dropped, stats.exchanges);
    ExpectOneSided(pipeline, exact);
  }
}

TEST(PipelineOverloadTest, DestructorJoinsStalledWorker) {
  // Destroying a pipeline whose worker is parked with queued work must
  // not hang.
  PipelineASketch pipeline(SmallConfig(), /*queue_capacity=*/1024);
  pipeline.StallWorkerForTesting(true);
  for (item_t key = 0; key < 1000; ++key) pipeline.Update(key);
  // Destructor runs with the worker still stalled.
}

}  // namespace
}  // namespace asketch
