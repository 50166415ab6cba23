// asketch_loadgen — closed/open-loop benchmark and ops probe for
// asketchd (docs/OPERATIONS.md, EXPERIMENTS.md serving section).
//
//   asketch_loadgen --port P [--host H] [--connections C] [--tuples N]
//                   [--keys M] [--skew Z] [--seed S] [--batch B]
//                   [--ack-every A] [--window W] [--mode closed|open]
//                   [--rate R] [--verify] [--connect-timeout-ms T]
//                   [--io-timeout-ms T] [--retries R] [--backoff-ms B]
//                   [--reconnect] [--deadline-s D]
//       Drive UPDATE traffic and report aggregate updates/s. Closed
//       loop (default) sends as fast as the ack window allows; open
//       loop paces batches to --rate updates/s total across all
//       connections and reports the achieved rate. --verify issues a
//       QUERY_BATCH sample afterwards and checks every estimate >= the
//       exact sent count (the one-sided guarantee, over the wire).
//
//       Resilience (all off by default): --connect-timeout-ms /
//       --io-timeout-ms arm the client deadlines, --retries/--backoff-ms
//       the idempotent-request retry policy, and --reconnect the
//       redial + replay-from-last-ack path (at-least-once delivery; the
//       one-sided bound tolerates the duplicates). --deadline-s bounds
//       the whole load phase by wall clock — with the I/O deadlines
//       armed no call can block forever, so a hung server fails the run
//       instead of wedging it (CI smokes rely on this).
//
//   asketch_loadgen --port P --snapshot
//       Request a checkpoint; print its generation/ingested/digest.
//
//   asketch_loadgen --port P --probe
//       Print the server's current state digest and STATS counters.
//
// The workload is the paper's default: Zipf keys (skew 1.5 unless
// overridden), unit weights, pre-generated in memory so generation cost
// never pollutes the throughput measurement. Tuples are split evenly
// across connections; each connection runs one thread with one
// pipelined Client.
//
// Exit codes: 2 usage error, 1 runtime/verification failure.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/client.h"
#include "src/workload/stream_generator.h"

namespace {

using namespace asketch;

int Usage() {
  std::fprintf(
      stderr,
      "usage: asketch_loadgen --port P [--host H] [--connections C]\n"
      "                       [--tuples N] [--keys M] [--skew Z]\n"
      "                       [--seed S] [--batch B] [--ack-every A]\n"
      "                       [--window W] [--mode closed|open]\n"
      "                       [--rate R] [--verify]\n"
      "                       [--connect-timeout-ms T] [--io-timeout-ms T]\n"
      "                       [--retries R] [--backoff-ms B] [--reconnect]\n"
      "                       [--deadline-s D]\n"
      "       asketch_loadgen --port P --snapshot\n"
      "       asketch_loadgen --port P --probe\n");
  return 2;
}

/// Strict decimal parse; false on empty/trailing-garbage/overflow input.
bool ParseU64(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseDouble(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

struct LoadgenConfig {
  net::ClientOptions client;
  uint64_t connections = 1;
  uint64_t tuples = 4u << 20;  // paper-scale/8; ~2s at the target rate
  uint64_t keys = 1u << 20;
  double skew = 1.5;
  uint64_t seed = 7;
  uint64_t batch = 8192;
  bool open_loop = false;
  uint64_t rate = 0;  ///< open loop: target updates/s across connections
  bool verify = false;
  uint64_t deadline_s = 0;  ///< wall-clock bound on the load phase
};

struct WorkerResult {
  uint64_t sent = 0;
  uint64_t shed = 0;
  uint64_t reconnects = 0;
  uint64_t retries = 0;
  uint64_t replayed = 0;
  std::string error;
};

void RunWorker(const LoadgenConfig& config,
               const std::vector<Tuple>& tuples, size_t begin, size_t end,
               WorkerResult* result) {
  const auto wall_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::seconds(config.deadline_s);
  net::Client client;
  if (auto error = client.Connect(config.client)) {
    result->error = *error;
    return;
  }
  // Open-loop pacing: each connection owes (rate / connections)
  // updates/s, i.e. one batch every batch/(per-conn rate) seconds.
  const double per_conn_rate =
      config.rate > 0
          ? static_cast<double>(config.rate) /
                static_cast<double>(config.connections)
          : 0.0;
  const auto start = std::chrono::steady_clock::now();
  uint64_t sent = 0;
  for (size_t offset = begin; offset < end;
       offset += config.batch) {
    if (config.deadline_s > 0 &&
        std::chrono::steady_clock::now() > wall_deadline) {
      result->error = "wall-clock deadline exceeded (--deadline-s)";
      return;
    }
    const size_t n = std::min<size_t>(config.batch, end - offset);
    if (auto error = client.Update(
            std::span<const Tuple>(tuples.data() + offset, n))) {
      result->error = *error;
      return;
    }
    sent += n;
    if (config.open_loop && per_conn_rate > 0) {
      const auto due =
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(sent) / per_conn_rate));
      std::this_thread::sleep_until(due);
    }
  }
  if (auto error = client.Flush()) {
    result->error = *error;
    return;
  }
  result->sent = sent;
  result->shed = client.last_ack().shed_weight;
  result->reconnects = client.reconnects();
  result->retries = client.retries();
  result->replayed = client.replayed_tuples();
}

int RunSnapshotOp(const net::ClientOptions& options) {
  net::Client client;
  if (auto error = client.Connect(options)) {
    std::fprintf(stderr, "loadgen: %s\n", error->c_str());
    return 1;
  }
  net::StateDigest digest;
  if (auto error = client.Snapshot(&digest)) {
    std::fprintf(stderr, "loadgen: %s\n", error->c_str());
    return 1;
  }
  std::printf("snapshot generation=%llu ingested=%llu digest=0x%08x\n",
              static_cast<unsigned long long>(digest.generation),
              static_cast<unsigned long long>(digest.ingested),
              digest.digest);
  return 0;
}

int RunProbeOp(const net::ClientOptions& options) {
  net::Client client;
  if (auto error = client.Connect(options)) {
    std::fprintf(stderr, "loadgen: %s\n", error->c_str());
    return 1;
  }
  net::StateDigest digest;
  if (auto error = client.Digest(&digest)) {
    std::fprintf(stderr, "loadgen: %s\n", error->c_str());
    return 1;
  }
  net::WireStats stats;
  if (auto error = client.Stats(&stats)) {
    std::fprintf(stderr, "loadgen: %s\n", error->c_str());
    return 1;
  }
  std::printf("digest generation=%llu ingested=%llu digest=0x%08x\n",
              static_cast<unsigned long long>(digest.generation),
              static_cast<unsigned long long>(digest.ingested),
              digest.digest);
  std::printf(
      "stats shards=%u ingested=%llu shed=%llu inline=%llu "
      "filtered=%llu sketch=%llu exchanges=%llu memory=%llu\n",
      stats.num_shards, static_cast<unsigned long long>(stats.ingested),
      static_cast<unsigned long long>(stats.shed_weight),
      static_cast<unsigned long long>(stats.inline_applied),
      static_cast<unsigned long long>(stats.filtered_weight),
      static_cast<unsigned long long>(stats.sketch_weight),
      static_cast<unsigned long long>(stats.exchanges),
      static_cast<unsigned long long>(stats.memory_bytes));
  return 0;
}

/// One-sided check over the wire: every sampled estimate must be >= the
/// exact count the loadgen itself sent for that key.
int VerifyOneSided(const net::ClientOptions& options,
                   const std::vector<Tuple>& tuples) {
  std::unordered_map<item_t, uint64_t> exact;
  for (const Tuple& t : tuples) exact[t.key] += t.value;
  std::vector<item_t> sample;
  for (const auto& [key, count] : exact) {
    sample.push_back(key);
    if (sample.size() >= 4096) break;
  }
  net::Client client;
  if (auto error = client.Connect(options)) {
    std::fprintf(stderr, "loadgen: %s\n", error->c_str());
    return 1;
  }
  // DIGEST drains the shard queues, so the estimates below reflect
  // every tuple the workers' Flush() acks covered.
  net::StateDigest barrier;
  if (auto error = client.Digest(&barrier)) {
    std::fprintf(stderr, "loadgen: %s\n", error->c_str());
    return 1;
  }
  std::vector<uint64_t> estimates;
  if (auto error = client.QueryBatch(sample, &estimates)) {
    std::fprintf(stderr, "loadgen: %s\n", error->c_str());
    return 1;
  }
  uint64_t violations = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    if (estimates[i] < exact[sample[i]]) ++violations;
  }
  std::printf("verify sampled=%zu one_sided_violations=%llu\n",
              sample.size(), static_cast<unsigned long long>(violations));
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenConfig config;
  bool snapshot_op = false;
  bool probe_op = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    uint64_t n = 0;
    if (arg == "--snapshot") {
      snapshot_op = true;
    } else if (arg == "--probe") {
      probe_op = true;
    } else if (arg == "--verify") {
      config.verify = true;
    } else if (arg == "--host") {
      const char* v = value();
      if (v == nullptr) return Usage();
      config.client.host = v;
    } else if (arg == "--port") {
      if (!ParseU64(value(), &n) || n == 0 || n > 65535) return Usage();
      config.client.port = static_cast<uint16_t>(n);
    } else if (arg == "--connections") {
      if (!ParseU64(value(), &config.connections) ||
          config.connections < 1 || config.connections > 64) {
        return Usage();
      }
    } else if (arg == "--tuples") {
      if (!ParseU64(value(), &config.tuples) || config.tuples < 1) {
        return Usage();
      }
    } else if (arg == "--keys") {
      if (!ParseU64(value(), &config.keys) || config.keys < 1) {
        return Usage();
      }
    } else if (arg == "--skew") {
      if (!ParseDouble(value(), &config.skew) || config.skew < 0) {
        return Usage();
      }
    } else if (arg == "--seed") {
      if (!ParseU64(value(), &config.seed)) return Usage();
    } else if (arg == "--batch") {
      if (!ParseU64(value(), &config.batch) || config.batch < 1 ||
          config.batch > net::kMaxBatchTuples) {
        return Usage();
      }
    } else if (arg == "--ack-every") {
      if (!ParseU64(value(), &n) || n < 1 || n > UINT32_MAX) return Usage();
      config.client.ack_every = static_cast<uint32_t>(n);
    } else if (arg == "--window") {
      if (!ParseU64(value(), &n) || n > UINT32_MAX) return Usage();
      config.client.max_outstanding_acks = static_cast<uint32_t>(n);
    } else if (arg == "--mode") {
      const char* v = value();
      if (v == nullptr) return Usage();
      if (std::strcmp(v, "closed") == 0) {
        config.open_loop = false;
      } else if (std::strcmp(v, "open") == 0) {
        config.open_loop = true;
      } else {
        return Usage();
      }
    } else if (arg == "--rate") {
      if (!ParseU64(value(), &config.rate)) return Usage();
    } else if (arg == "--connect-timeout-ms") {
      if (!ParseU64(value(), &n) || n > UINT32_MAX) return Usage();
      config.client.connect_timeout_ms = static_cast<uint32_t>(n);
    } else if (arg == "--io-timeout-ms") {
      if (!ParseU64(value(), &n) || n > UINT32_MAX) return Usage();
      config.client.read_timeout_ms = static_cast<uint32_t>(n);
      config.client.write_timeout_ms = static_cast<uint32_t>(n);
    } else if (arg == "--retries") {
      if (!ParseU64(value(), &n) || n > UINT32_MAX) return Usage();
      config.client.max_retries = static_cast<uint32_t>(n);
    } else if (arg == "--backoff-ms") {
      if (!ParseU64(value(), &n) || n > UINT32_MAX) return Usage();
      config.client.retry_backoff_ms = static_cast<uint32_t>(n);
    } else if (arg == "--reconnect") {
      config.client.auto_reconnect = true;
    } else if (arg == "--deadline-s") {
      if (!ParseU64(value(), &config.deadline_s) ||
          config.deadline_s < 1) {
        return Usage();
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (config.client.port == 0) return Usage();
  if (snapshot_op) return RunSnapshotOp(config.client);
  if (probe_op) return RunProbeOp(config.client);
  if (config.open_loop && config.rate == 0) {
    std::fprintf(stderr, "open loop requires --rate\n");
    return Usage();
  }

  // Pre-generate so the hot loop measures the serving path only.
  StreamSpec spec;
  spec.stream_size = config.tuples;
  spec.num_distinct = config.keys;
  spec.skew = config.skew;
  spec.seed = config.seed;
  if (const auto error = spec.Validate()) {
    std::fprintf(stderr, "invalid stream: %s\n", error->c_str());
    return Usage();
  }
  const std::vector<Tuple> tuples = GenerateStream(spec);

  std::vector<WorkerResult> results(config.connections);
  std::vector<std::thread> workers;
  const size_t per_conn =
      (tuples.size() + config.connections - 1) / config.connections;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t c = 0; c < config.connections; ++c) {
    const size_t begin = std::min<size_t>(c * per_conn, tuples.size());
    const size_t end =
        std::min<size_t>(begin + per_conn, tuples.size());
    workers.emplace_back(RunWorker, std::cref(config), std::cref(tuples),
                         begin, end, &results[c]);
  }
  for (std::thread& t : workers) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();

  uint64_t sent = 0;
  uint64_t shed = 0;
  uint64_t reconnects = 0;
  uint64_t retries = 0;
  uint64_t replayed = 0;
  for (const WorkerResult& r : results) {
    if (!r.error.empty()) {
      std::fprintf(stderr, "loadgen: %s\n", r.error.c_str());
      return 1;
    }
    sent += r.sent;
    shed += r.shed;
    reconnects += r.reconnects;
    retries += r.retries;
    replayed += r.replayed;
  }
  const double rate = elapsed > 0 ? static_cast<double>(sent) / elapsed : 0;
  std::printf(
      "loadgen mode=%s connections=%llu tuples=%llu keys=%llu "
      "skew=%.2f batch=%llu\n",
      config.open_loop ? "open" : "closed",
      static_cast<unsigned long long>(config.connections),
      static_cast<unsigned long long>(config.tuples),
      static_cast<unsigned long long>(config.keys), config.skew,
      static_cast<unsigned long long>(config.batch));
  std::printf("elapsed_s=%.3f updates_per_s=%.0f sent=%llu shed=%llu\n",
              elapsed, rate, static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(shed));
  if (config.client.auto_reconnect || config.client.max_retries > 0) {
    std::printf("resilience reconnects=%llu retries=%llu replayed=%llu\n",
                static_cast<unsigned long long>(reconnects),
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(replayed));
  }

  net::Client stats_client;
  if (stats_client.Connect(config.client) == std::nullopt) {
    net::WireStats stats;
    if (stats_client.Stats(&stats) == std::nullopt) {
      std::printf(
          "server shards=%u ingested=%llu shed=%llu inline=%llu "
          "exchanges=%llu memory=%llu\n",
          stats.num_shards,
          static_cast<unsigned long long>(stats.ingested),
          static_cast<unsigned long long>(stats.shed_weight),
          static_cast<unsigned long long>(stats.inline_applied),
          static_cast<unsigned long long>(stats.exchanges),
          static_cast<unsigned long long>(stats.memory_bytes));
    }
  }
  std::fflush(stdout);

  if (config.verify && shed == 0) {
    return VerifyOneSided(config.client, tuples);
  }
  return 0;
}
