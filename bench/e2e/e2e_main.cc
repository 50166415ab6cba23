// asketch_e2e — the end-to-end benchmark of asketchd (README.md here).
//
//   asketch_e2e --daemon PATH --workload NAME [--seed N] [--seconds S]
//               [--trace 0|1] [--smoke] [--out DIR]
//               [--git-sha SHA] [--git-dirty 0|1]
//
// Generates the workload's inputs from --seed, starts `PATH --port 0`
// (several times, for the set-up figure), warms it up, drives it for
// --seconds over loopback, and checks every answer against exact counts.
// With --trace 1 the loopback pass alternates traced and untraced
// stretches, the in-process layer timings follow, and the per-layer
// metrics are reported.
//
// Prints `workload metric value unit` per metric, writes
// DIR/<workload>.results.json (host fingerprint, run configuration,
// metrics) and, when traced, DIR/<workload>.trace.json (Chrome trace
// format). The last stdout line is one JSON object: {"correct",
// "attempted", "failed", "metrics"}.
//
// Exit codes: 0 all gates passed, 1 a gate or the run failed, 2 usage.

#include <sys/prctl.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/e2e/e2e_common.h"
#include "bench/e2e/layers.h"
#include "bench/e2e/tcp_pass.h"

namespace asketch {
namespace e2e {
namespace {

// Why each workload exists (README.md has the long form):
//  ingest_skewed — ~93% of the mass dies in the filter, so wire, decode,
//    shard split and head-table work dominate; sketch kernels should not
//    move it.
//  ingest_tail — ~92% of the mass walks the sketch; sketch kernels show
//    here, head-table tricks do not.
//  serve_mixed — reads and a low-rate producer beside writes below
//    saturation; longer write sections or bigger epochs show up as read
//    latency or visibility lag.
constexpr Workload kWorkloads[] = {
    {"ingest_skewed", 1.5, 1u << 20, false, 0, uint64_t{1} << 31},
    {"ingest_tail", 0.8, 1u << 23, false, 0, uint64_t{1} << 30},
    {"serve_mixed", 1.1, 1u << 20, true, 20e6, UINT64_MAX},
};

int Usage() {
  std::fprintf(stderr,
               "usage: asketch_e2e --daemon PATH --workload NAME [--seed N] "
               "[--seconds S]\n"
               "                   [--trace 0|1] [--smoke] [--out DIR] "
               "[--git-sha SHA] [--git-dirty 0|1]\n"
               "workloads: ingest_skewed ingest_tail serve_mixed\n");
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A number with all its digits; JSON has no NaN, so null.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMetrics(const MetricList& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics.all()) {
    if (out.size() > 1) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string CpuInfoField(const std::string& field) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string HostJson(const std::string& git_sha, const std::string& dirty) {
  utsname uts{};
  ::uname(&uts);
  const std::string flags = " " + CpuInfoField("flags") + " ";
#ifdef __clang__
  const std::string compiler = "clang " __clang_version__;
#else
  const std::string compiler = "gcc " __VERSION__;
#endif
  return "{\"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu_model\": " + JsonString(CpuInfoField("model name")) +
         ", \"avx512f\": " +
         (flags.find(" avx512f ") != std::string::npos ? "true" : "false") +
         ", \"compiler\": " + JsonString(compiler) +
         ", \"build_type\": " + JsonString(ASKETCH_E2E_BUILD_TYPE) +
         ", \"git_sha\": " + JsonString(git_sha) +
         ", \"git_dirty\": " + (dirty.empty() ? "null" : dirty) +
         ", \"kernel\": " +
         JsonString(std::string(uts.sysname) + " " + uts.release) + "}";
}

std::string WorkloadJson(const Workload& w) {
  return "{\"skew\": " + JsonNumber(w.skew) +
         ", \"keys\": " + std::to_string(w.keys) +
         ", \"loop\": " + JsonString(w.open_loop ? "open" : "closed") +
         ", \"offered_tuples_per_s\": " + JsonNumber(w.offered_rate) +
         ", \"max_timed_tuples\": " +
         (w.open_loop ? "null" : std::to_string(w.max_timed_tuples)) + "}";
}

std::string RunJson(const RunConfig& c, bool smoke) {
  return "{\"seed\": " + std::to_string(c.seed) +
         ", \"seconds\": " + JsonNumber(c.seconds) +
         ", \"trace\": " + (c.trace ? "true" : "false") +
         ", \"smoke\": " + (smoke ? "true" : "false") +
         ", \"daemon_argv\": [\"asketchd\", \"--port\", \"0\"]" +
         ", \"buffer_tuples\": " + std::to_string(c.buffer_tuples) +
         ", \"sub_runs\": " + std::to_string(c.sub_runs) +
         ", \"starts_per_sub_run\": " + std::to_string(c.starts_per_sub_run) +
         ", \"probe_seconds\": " + JsonNumber(c.probe_seconds) +
         ", \"bulk_connections\": " + std::to_string(kBulkConnections) +
         ", \"batch_tuples\": " + std::to_string(kBatchTuples) +
         ", \"query_batches_per_s\": " + JsonNumber(kQueryRate) +
         ", \"query_keys_per_batch\": " + std::to_string(kQueryKeysPerBatch) +
         ", \"topk_every_batches\": " + std::to_string(kTopKEvery) +
         ", \"topk_k\": " + std::to_string(kTopK) +
         ", \"sentinels_per_s\": " + JsonNumber(kSentinelRate) +
         ", \"probe_sentinels_per_s\": " + JsonNumber(kProbeSentinelRate) +
         ", \"sentinel_weight\": " + std::to_string(kSentinelWeight) +
         ", \"accuracy_keys\": " + std::to_string(kAccuracyKeys) +
         ", \"layer_seconds\": " + JsonNumber(c.layer_seconds) + "}";
}

/// Self time per span name, in ms: a span's duration minus the part its
/// direct children cover.
std::map<std::string, double> SelfTimesMs(const std::vector<SpanLog>& logs) {
  std::map<uint32_t, int64_t> child_ns;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      self[s.name] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[s.id]) / 1e6;
    }
  }
  return self;
}

bool WriteTrace(const std::string& path, const std::vector<SpanLog>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                   "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": "
                   "{\"id\": %u, \"parent\": %u, \"batch\": %llu}}",
                   first ? "" : ",\n", s.name,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   log.tid(), s.id, s.parent,
                   static_cast<unsigned long long>(s.batch));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

struct WorkloadOutcome {
  MetricList end_to_end;
  MetricList per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  std::map<std::string, double> self_ms;
  net::WireStats stats;
};

WorkloadOutcome RunWorkload(const Workload& w, const RunConfig& config,
                            const std::string& out_dir) {
  WorkloadOutcome outcome;
  const Inputs inputs = MakeInputs(w, config);
  LoopbackResult loopback = RunLoopback(w, config, inputs);
  outcome.end_to_end = loopback.metrics;
  outcome.attempted = loopback.attempted;
  outcome.failed = loopback.failed;
  outcome.gate_failures = loopback.gate_failures;
  outcome.stats = loopback.stats;
  if (!config.trace || !outcome.gate_failures.empty()) return outcome;

  MetricList& layer = outcome.per_layer;
  layer = loopback.layer;
  std::vector<SpanLog>& logs = loopback.span_logs;
  logs.emplace_back(/*tid=*/255);  // the in-process layer phases
  MeasureLayers(config, inputs, loopback.stats.num_shards, &logs.back(),
                &layer);

  const MetricList& e2e = loopback.metrics;
  layer.Set("shard_set.wire_gap",
            layer.Value("shard_set.tuples_per_s") /
                e2e.Value("ingest_tuples_per_s"),
            "ratio");
  layer.Set("server.unattributed_ns_per_tuple",
            e2e.Value("server_cpu_ns_per_tuple") -
                layer.Value("protocol.decode_ns_per_tuple") -
                layer.Value("shard_set.cpu_ns_per_tuple"),
            "ns");
  outcome.self_ms = SelfTimesMs(logs);
  const std::string trace_path = out_dir + "/" + w.name + ".trace.json";
  if (!WriteTrace(trace_path, logs)) {
    outcome.gate_failures.push_back("cannot write " + trace_path);
  }
  return outcome;
}

void PrintMetrics(const char* workload, const MetricList& metrics) {
  for (const Metric& m : metrics.all()) {
    std::printf("%s %s %.6g %s\n", workload, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string workload_arg;
  std::string out_dir = "bench/out/e2e";
  std::string git_sha = "none";
  std::string git_dirty;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    char* end = nullptr;
    if (arg == "--daemon") {
      config.daemon_path = value;
    } else if (arg == "--workload") {
      workload_arg = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage();
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0) || config.seconds > 600) {
        return Usage();
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      config.trace = value[0] == '1';
    } else if (arg == "--out") {
      out_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--git-dirty") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      git_dirty = value[0] == '1' ? "true" : "false";
    } else {
      return Usage();
    }
  }
  if (config.daemon_path.empty()) return Usage();
  // Open-loop generators sleep until each request is due; the default
  // 50 us timer slack would show up as generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  if (smoke) {
    config.buffer_tuples = uint64_t{1} << 20;
    config.sub_runs = 2;
    config.probe_seconds = 0.3;
    config.layer_seconds = 0.05;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload_arg == candidate.name) w = &candidate;
  }
  if (w == nullptr) return Usage();

  const WorkloadOutcome o = RunWorkload(*w, config, out_dir);
  PrintMetrics(w->name, o.end_to_end);
  PrintMetrics(w->name, o.per_layer);
  for (const auto& [name, ms] : o.self_ms) {
    std::printf("%s self_ms %s %.3f\n", w->name, name.c_str(), ms);
  }
  for (const std::string& g : o.gate_failures) {
    std::fprintf(stderr, "%s: gate failed: %s\n", w->name, g.c_str());
  }
  bool correct = o.gate_failures.empty();
  std::string gates = "[";
  for (const std::string& g : o.gate_failures) {
    gates += (gates.size() > 1 ? ", " : "") + JsonString(g);
  }
  std::string self = "{";
  for (const auto& [name, ms] : o.self_ms) {
    self += (self.size() > 1 ? ", " : "") + JsonString(name) + ": " +
            JsonNumber(ms);
  }
  const net::WireStats& s = o.stats;
  const std::string results_path =
      out_dir + "/" + w->name + ".results.json";
  std::ofstream results(results_path);
  results << "{\"host\": " << HostJson(git_sha, git_dirty)
          << ",\n  \"run\": " << RunJson(config, smoke)
          << ",\n  \"workloads\": {" << JsonString(w->name)
          << ": {\"params\": " << WorkloadJson(*w)
          << ", \"correct\": " << (correct ? "true" : "false")
          << ", \"attempted\": " << o.attempted
          << ", \"failed\": " << o.failed
          << ", \"gate_failures\": " << gates << "]"
          << ", \"metrics\": " << JsonMetrics(o.end_to_end)
          << ", \"per_layer\": " << JsonMetrics(o.per_layer)
          << ", \"trace_self_ms\": " << self << "}"
          << ", \"stats\": {\"ingested\": " << s.ingested
          << ", \"shed_weight\": " << s.shed_weight
          << ", \"inline_applied\": " << s.inline_applied
          << ", \"filtered_weight\": " << s.filtered_weight
          << ", \"sketch_weight\": " << s.sketch_weight
          << ", \"exchanges\": " << s.exchanges << "}}}}\n";
  results.close();
  if (!results) {
    std::fprintf(stderr, "cannot write %s\n", results_path.c_str());
    correct = false;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(o.attempted),
      static_cast<unsigned long long>(o.failed),
      JsonMetrics(config.trace ? o.per_layer : o.end_to_end).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace asketch

int main(int argc, char** argv) { return asketch::e2e::Main(argc, argv); }
