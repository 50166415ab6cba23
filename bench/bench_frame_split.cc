// The decode step in process: what one ShardSet::Ingest(frame) call
// costs the calling thread, as asketchd's connection threads call it
// for every UPDATE frame (null delta state). Four shards with default
// options, warmed on the stream first so the filters hold its hot set;
// then the stream again in frames, timed with the calling thread's CPU
// clock while the shard owners are stalled, so only the frame split and
// the hand-off are counted. Owners run, untimed, between chunks of 256
// frames, which keeps the queued deltas few.
//
// Rows: Zipf 1.5 over 2^20 keys, 0.8 over 2^23 and 1.1 over 2^20 (the
// bench/e2e workloads), at 8192-tuple frames (the loadgen's batch; ns
// per tuple) and 1-tuple frames (ns per frame). Each cell is the median
// of --reps runs. The program uses only the public ShardSet API, so the
// same file builds against an older checkout for a before/after pair:
//
//   g++ -O3 -march=native -std=c++20 -I<checkout>
//       bench/bench_frame_split.cc <checkout-build>/src/libasketch.a
//       -lpthread -o bench_frame_split      (one command line)
//
// Flags: --reps N (default 5), --tuples N (default 2^22),
//        --one-tuple-frames N (default 50000).

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "src/net/shard_set.h"
#include "src/workload/stream_generator.h"

namespace asketch {
namespace {

int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

/// Decode-thread CPU ns per frame of `frame` tuples over `stream`.
double NsPerFrame(const std::vector<Tuple>& stream, size_t frame,
                  size_t frames) {
  net::ShardSetOptions options;
  options.num_shards = 4;
  options.max_queue_batches = size_t{1} << 20;
  net::ShardSet shards(options);
  for (size_t at = 0; at < stream.size(); at += 8192) {
    const size_t count = std::min<size_t>(8192, stream.size() - at);
    shards.Ingest({stream.data() + at, count});
  }
  shards.Drain();
  int64_t busy = 0;
  size_t done = 0;
  size_t at = 0;
  while (done < frames) {
    shards.StallWorkersForTesting(true);
    const int64_t start = ThreadCpuNs();
    for (int k = 0; k < 256 && done < frames; ++k, ++done) {
      if (at + frame > stream.size()) at = 0;
      shards.Ingest({stream.data() + at, frame});
      at += frame;
    }
    busy += ThreadCpuNs() - start;
    shards.StallWorkersForTesting(false);
    shards.Drain();
  }
  return static_cast<double>(busy) / static_cast<double>(frames);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace
}  // namespace asketch

int main(int argc, char** argv) {
  using namespace asketch;
  int reps = 5;
  size_t tuples = size_t{1} << 22;
  size_t one_tuple_frames = 50000;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--reps") == 0) {
      reps = std::max(1, std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--tuples") == 0) {
      tuples = std::max<size_t>(8192, std::strtoull(argv[i + 1], nullptr, 10));
    } else if (std::strcmp(argv[i], "--one-tuple-frames") == 0) {
      one_tuple_frames =
          std::max<size_t>(1, std::strtoull(argv[i + 1], nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  struct Workload {
    double skew;
    uint32_t keys;
  };
  const Workload workloads[] = {{1.5, 1u << 20}, {0.8, 1u << 23},
                                {1.1, 1u << 20}};
  std::printf("%-6s %-10s %22s %22s\n", "zipf", "keys",
              "8192-tuple ns/tuple", "1-tuple ns/frame");
  for (const Workload& w : workloads) {
    StreamSpec spec;
    spec.stream_size = tuples;
    spec.num_distinct = w.keys;
    spec.skew = w.skew;
    spec.seed = 11;
    const std::vector<Tuple> stream = GenerateStream(spec);
    std::vector<double> bulk, single;
    for (int r = 0; r < reps; ++r) {
      bulk.push_back(NsPerFrame(stream, 8192, tuples / 8192) / 8192.0);
      single.push_back(NsPerFrame(stream, 1, one_tuple_frames));
    }
    std::printf("%-6.1f %-10u %22.2f %22.1f\n", w.skew, w.keys, Median(bulk),
                Median(single));
  }
  return 0;
}
