// Sampled ingest: NitroSketch-style geometric skip counters on the
// shard owners' tail path (ASketch::MissPositive) of the 4-shard
// in-process ShardSet, sweeping the sampling rate over {1.0, 0.5, 0.25,
// 0.1, 0.05} on the paper-default zipf-1.1 synthetic workload. Rate 1.0
// is the unsampled baseline.
//
// Two curves per rate: sustained updates/s (best of three timed
// passes, decode threads feeding UPDATE-frame-sized batches, each
// flushed like a server frame) and
// the tail ARE measured on a fresh single-pass instance (head keys —
// the merged top-k the filters hold — are excluded, because the head
// is exact at every rate; only the sampled sketch tail pays error).
// The frontier ships to EXPERIMENTS.md; the acceptance bar (ISSUE 10)
// is >= 1.5x updates/s over the unsampled baseline at some rate whose
// tail ARE stays within 2x of unsampled — reported as
// speedup_within_2x_are.
//
// ASKETCH_BENCH_SCALE scales the stream. Flags:
//   --threads N   decode threads (default 4, asketchd's topology)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/common/bench_util.h"
#include "src/common/stopwatch.h"
#include "src/net/shard_set.h"

namespace asketch {
namespace bench {
namespace {

using net::DeltaIngestState;
using net::ShardSet;
using net::ShardSetOptions;

constexpr size_t kIngestBatch = 8192;  // one UPDATE frame's worth
constexpr uint32_t kRatesPermille[] = {1000, 500, 250, 100, 50};

ShardSetOptions LoopbackOptions(uint32_t permille) {
  ShardSetOptions options;  // 4 shards — asketchd's default topology
  options.sample_rate = permille / 1000.0;
  return options;
}

void IngestPass(ShardSet& shards, uint32_t threads,
                const std::vector<Tuple>& stream) {
  const size_t per_thread = stream.size() / threads;
  std::vector<std::thread> decoders;
  decoders.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    const size_t begin = t * per_thread;
    const size_t end =
        t + 1 == threads ? stream.size() : begin + per_thread;
    decoders.emplace_back([&shards, &stream, begin, end] {
      DeltaIngestState state = shards.MakeDeltaState();
      for (size_t at = begin; at < end; at += kIngestBatch) {
        const size_t count = std::min(kIngestBatch, end - at);
        shards.Ingest(std::span<const Tuple>(stream.data() + at, count),
                      &state);
        shards.FlushDeltas(state);
      }
    });
  }
  for (std::thread& t : decoders) t.join();
  shards.Drain();
}

double Throughput(uint32_t permille, uint32_t threads,
                  const std::vector<Tuple>& stream) {
  ShardSet shards(LoopbackOptions(permille));
  IngestPass(shards, threads, stream);  // warm-up, untimed
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    IngestPass(shards, threads, stream);
    best = std::max(best, static_cast<double>(stream.size()) /
                              watch.ElapsedSeconds());
  }
  return best;
}

/// Single-pass tail ARE on a fresh instance: mean |est - exact|/exact
/// over keys with nonzero exact count that ended outside the merged
/// filter heads. Under sampling the tail is unbiased but two-sided, so
/// the absolute value is the honest error measure.
double TailAre(uint32_t permille, uint32_t threads,
               const Workload& workload) {
  ShardSet shards(LoopbackOptions(permille));
  IngestPass(shards, threads, workload.stream);
  std::unordered_set<item_t> head;
  for (const auto& entry : shards.TopK(4 * 32)) head.insert(entry.key);
  double sum = 0;
  uint64_t keys = 0;
  for (item_t key = 0; key < workload.spec.num_distinct; ++key) {
    const wide_count_t exact = workload.truth.Count(key);
    if (exact == 0 || head.count(key) != 0) continue;
    const double est = static_cast<double>(shards.Estimate(key));
    sum += std::abs(est - static_cast<double>(exact)) /
           static_cast<double>(exact);
    ++keys;
  }
  return keys == 0 ? 0.0 : sum / static_cast<double>(keys);
}

int Main(int argc, char** argv) {
  uint32_t threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: bench_sampled_ingest [--threads N]\n");
      return 2;
    }
  }
  const double scale = ScaleFromEnv();
  const StreamSpec spec = SyntheticSpec(/*skew=*/1.1, scale);
  std::printf("# bench_sampled_ingest: %s, 4 shards, %u decode threads\n",
              spec.ToString().c_str(), threads);
  const Workload workload(spec);

  double base_rate = 0;
  double base_are = 0;
  double best_qualified_speedup = 0;
  std::printf("%-8s %14s %10s %10s %10s\n", "rate", "updates/s", "ARE",
              "speedup", "are_ratio");
  for (const uint32_t permille : kRatesPermille) {
    const double rate = Throughput(permille, threads, workload.stream);
    const double are = TailAre(permille, threads, workload);
    if (permille == 1000) {
      base_rate = rate;
      base_are = are;
    }
    const double speedup = base_rate > 0 ? rate / base_rate : 0;
    const double are_ratio = base_are > 0 ? are / base_are : 0;
    std::printf("%-8.3f %14.0f %10.4f %10.2f %10.2f\n", permille / 1000.0,
                rate, are, speedup, are_ratio);
    std::printf("updates_per_s_r%u=%.0f\n", permille, rate);
    std::printf("tail_are_r%u=%.4f\n", permille, are);
    if (permille != 1000 && are_ratio <= 2.0) {
      best_qualified_speedup = std::max(best_qualified_speedup, speedup);
    }
    std::fflush(stdout);
  }
  // The acceptance frontier: best throughput gain among rates whose
  // tail ARE stayed within 2x of the unsampled baseline.
  std::printf("speedup_within_2x_are=%.2f\n", best_qualified_speedup);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace asketch

int main(int argc, char** argv) { return asketch::bench::Main(argc, argv); }
