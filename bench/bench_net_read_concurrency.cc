// Read-path contention under ingest-saturated shards: the experiment
// behind the lock-free serving read path (DESIGN.md §5c).
//
// A ShardSet with 4 shards is kept saturated by a feeder thread pushing
// large UPDATE batches, so each shard worker spends most of its time
// inside shard.mu applying tuples. Beside it runs MutexBaseline, the
// pre-seqlock design rebuilt here: 4 synopses behind one mutex each,
// with one writer thread per shard applying sub-batches under that
// mutex. Against that background load the bench issues 256-key query
// batches three ways:
//
//   mutex/key   the pre-seqlock read path: take the shard mutex per key
//               (MutexBaseline::Estimate — the old QUERY_BATCH inner
//               loop)
//   lockfree/key  the seqlock read path, still resolving the shard per
//               key (ShardSet::Estimate)
//   lockfree/batch  the shipped QUERY_BATCH fanout: group keys by shard
//               once, answer shard-by-shard (ShardSet::EstimateBatch)
//
// Reported: per-batch latency p50/p95 and sustained queries/s. The
// lock-free rows must not degrade when workers are mid-batch; the mutex
// row inherits the workers' lock hold times. EXPERIMENTS.md records the
// numbers this bench produced for the PR that introduced it.
//
// ASKETCH_BENCH_SCALE scales both the background stream and the number
// of measured batches.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/common/bench_util.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/shard_set.h"

namespace asketch {
namespace bench {
namespace {

using net::ShardSet;
using net::ShardSetOptions;

struct ReadStats {
  double p50_us = 0;
  double p95_us = 0;
  double kqps = 0;
};

double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

/// One measured read mode: a name, a way to answer a 256-key batch,
/// and the latency samples collected so far.
struct Mode {
  const char* name;
  std::function<void(const std::vector<item_t>&)> answer_batch;
  std::vector<double> latencies_us;

  ReadStats Stats(uint32_t batch_keys) {
    ReadStats stats;
    double in_call_us = 0;
    for (const double us : latencies_us) in_call_us += us;
    stats.p50_us = Percentile(latencies_us, 0.50);
    stats.p95_us = Percentile(latencies_us, 0.95);
    stats.kqps = static_cast<double>(latencies_us.size()) * batch_keys /
                 (in_call_us / 1e6) / 1e3;
    return stats;
  }
};

/// Runs `iterations` rounds, each timing one query batch per mode with
/// the modes interleaved round-robin and ~200us of pacing between
/// calls. Two scheduling artifacts are being defused here. The pacing
/// gap hands the core back to the ingest workers, so every measured
/// batch faces a fresh mid-batch worker state instead of whatever state
/// the reader's scheduler quantum happened to freeze (back-to-back
/// calls within one quantum all see the same — usually lock-free —
/// snapshot of the writers). The interleaving makes the modes sample
/// the *same* background phases: sequential per-mode phases can hand
/// one mode a minutes-long low-contention scheduler phase and another a
/// pathological one, which dominates any real difference. Throughput is
/// computed from in-call service time, so the pacing does not dilute
/// it.
void MeasureReads(const std::vector<std::vector<item_t>>& batches,
                  uint32_t iterations, std::vector<Mode>& modes) {
  for (Mode& mode : modes) mode.latencies_us.reserve(iterations);
  for (uint32_t i = 0; i < iterations; ++i) {
    const std::vector<item_t>& keys = batches[i % batches.size()];
    for (Mode& mode : modes) {
      const auto start = std::chrono::steady_clock::now();
      mode.answer_batch(keys);
      const auto end = std::chrono::steady_clock::now();
      mode.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(end - start).count());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

/// The pre-seqlock serving design: per-shard synopses behind a mutex
/// each, a writer per shard that holds the mutex while it applies a
/// sub-batch (the old shard worker), and point reads that take the same
/// mutex (the old read path).
class MutexBaseline {
 public:
  MutexBaseline(const ShardSetOptions& options,
                const std::vector<Tuple>& stream) {
    for (uint32_t i = 0; i < options.num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(
          MakeASketchCountMin<RelaxedHeapFilter>(options.shard_config)));
    }
    for (const Tuple& t : stream) {
      shards_[net::ShardOf(t.key, options.num_shards)]->stream.push_back(t);
    }
  }

  ~MutexBaseline() { StopWriters(); }

  /// Starts one writer per shard, replaying its part of the stream in
  /// kSubBatch slices until destruction.
  void StartWriters() {
    for (auto& shard : shards_) {
      writers_.emplace_back([this, s = shard.get()] {
        constexpr size_t kSubBatch = 32768;
        size_t at = 0;
        while (!stop_.load(std::memory_order_acquire) &&
               !s->stream.empty()) {
          const size_t count = std::min(kSubBatch, s->stream.size() - at);
          {
            std::lock_guard<std::mutex> guard(s->mu);
            s->sketch.UpdateBatch({s->stream.data() + at, count});
          }
          at += count;
          if (at >= s->stream.size()) at = 0;
        }
      });
    }
  }

  void StopWriters() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& writer : writers_) writer.join();
    writers_.clear();
  }

  count_t Estimate(item_t key) const {
    const Shard& shard =
        *shards_[net::ShardOf(key, static_cast<uint32_t>(shards_.size()))];
    std::lock_guard<std::mutex> guard(shard.mu);
    return shard.sketch.Estimate(key);
  }

 private:
  struct Shard {
    explicit Shard(net::ServingSketch s) : sketch(std::move(s)) {}
    mutable std::mutex mu;
    net::ServingSketch sketch;
    std::vector<Tuple> stream;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> writers_;
  std::atomic<bool> stop_{false};
};

int Run() {
  const double scale = ScaleFromEnv();
  ShardSetOptions options;
  options.num_shards = 4;
  options.shard_config.total_bytes = 128 * 1024;
  options.max_queue_batches = 64;

  const StreamSpec spec = SyntheticSpec(/*skew=*/1.0, scale);
  std::vector<Tuple> stream = GenerateStream(spec);
  const std::vector<item_t> queries = GenerateQueries(
      stream, spec.num_distinct, /*num_queries=*/1u << 16,
      QuerySampling::kFrequencyProportional, spec.seed ^ 0x51);

  constexpr uint32_t kBatchKeys = 256;
  std::vector<std::vector<item_t>> batches;
  for (size_t at = 0; at + kBatchKeys <= queries.size();
       at += kBatchKeys) {
    batches.emplace_back(queries.begin() + static_cast<long>(at),
                         queries.begin() + static_cast<long>(at) +
                             kBatchKeys);
  }
  const uint32_t iterations =
      static_cast<uint32_t>(1000 * scale) < 200
          ? 200
          : static_cast<uint32_t>(1000 * scale);

  PrintBanner("bench_net_read_concurrency",
              "QUERY_BATCH read latency against ingest-saturated shards: "
              "per-key mutex baseline vs lock-free seqlock reads",
              spec.ToString());

  ShardSet set(options);
  MutexBaseline baseline(options, stream);
  baseline.StartWriters();
  std::atomic<bool> stop{false};
  // Feeder: replays the stream in 128K-tuple UPDATE batches forever;
  // the bounded queues (kInlineApply overload) keep every worker
  // saturated, which is exactly the regime the mutex baseline
  // collapses in.
  std::thread feeder([&] {
    constexpr size_t kIngestBatch = 131072;
    size_t at = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const size_t count = std::min(kIngestBatch, stream.size() - at);
      set.Ingest(std::span<const Tuple>(stream.data() + at, count));
      at += count;
      if (at >= stream.size()) at = 0;
    }
  });
  // Let the queues build a deep backlog before measuring: with tens of
  // ~32K-tuple sub-batches queued per shard, a worker that gets CPU
  // time is almost always inside shard.mu applying one — the regime
  // the baseline's writers hold their mutexes in.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  std::vector<uint64_t> scratch;
  std::vector<Mode> modes;
  modes.push_back({"mutex/key",
                   [&](const std::vector<item_t>& keys) {
                     uint64_t sum = 0;
                     for (const item_t key : keys) {
                       sum += baseline.Estimate(key);
                     }
                     static volatile uint64_t sink;
                     sink = sum;
                     (void)sink;
                   },
                   {}});
  modes.push_back({"lockfree/key",
                   [&](const std::vector<item_t>& keys) {
                     uint64_t sum = 0;
                     for (const item_t key : keys) {
                       sum += set.Estimate(key);
                     }
                     static volatile uint64_t sink;
                     sink = sum;
                     (void)sink;
                   },
                   {}});
  modes.push_back({"lockfree/batch",
                   [&](const std::vector<item_t>& keys) {
                     set.EstimateBatch(keys, &scratch);
                   },
                   {}});
  MeasureReads(batches, iterations, modes);
  stop.store(true, std::memory_order_release);
  feeder.join();
  baseline.StopWriters();

  std::printf("%-16s %12s %12s %14s\n", "read path", "p50 (us)",
              "p95 (us)", "kqueries/s");
  std::vector<ReadStats> stats;
  for (Mode& mode : modes) {
    stats.push_back(mode.Stats(kBatchKeys));
    std::printf("%-16s %12.1f %12.1f %14.0f\n", mode.name,
                stats.back().p50_us, stats.back().p95_us,
                stats.back().kqps);
  }
  const double speedup_p50 =
      stats[2].p50_us > 0 ? stats[0].p50_us / stats[2].p50_us : 0;
  const double speedup_qps =
      stats[0].kqps > 0 ? stats[2].kqps / stats[0].kqps : 0;
  std::printf("\nbatched lock-free vs per-key mutex: p50 %.1fx, "
              "queries/s %.1fx\n",
              speedup_p50, speedup_qps);

  // Faults-off loopback ingest: pins the no-fault overhead of the
  // client/server fault-tolerance machinery (SocketIoHooks dispatch,
  // deadline plumbing, replay accounting — all off by default). The
  // row is tracked across PRs; the fault-tolerance PR's budget was a
  // ≤2% regression versus the pre-hooks baseline.
  {
    net::ServerOptions server_options;
    server_options.shards = options;
    net::Server server(server_options);
    if (auto error = server.Start()) {
      std::printf("\nloopback ingest: skipped (%s)\n", error->c_str());
      return 0;
    }
    net::Client client;
    if (auto error = client.Connect({.port = server.port()})) {
      std::printf("\nloopback ingest: skipped (%s)\n", error->c_str());
      return 0;
    }
    constexpr size_t kNetBatch = 1024;
    const auto start = std::chrono::steady_clock::now();
    for (size_t at = 0; at < stream.size(); at += kNetBatch) {
      const size_t count = std::min(kNetBatch, stream.size() - at);
      if (client.Update(
              std::span<const Tuple>(stream.data() + at, count))) {
        break;
      }
    }
    (void)client.Flush();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::printf("\nloopback ingest (faults off, default deadlines): "
                "%.2f Mupdates/s (%zu tuples)\n",
                seconds > 0
                    ? static_cast<double>(stream.size()) / seconds / 1e6
                    : 0,
                stream.size());
    server.Stop();
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace asketch

int main() { return asketch::bench::Run(); }
