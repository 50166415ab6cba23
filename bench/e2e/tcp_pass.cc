#include "bench/e2e/tcp_pass.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/net/client.h"
#include "src/workload/exact_counter.h"
#include "src/workload/metrics.h"
#include "src/workload/query_generator.h"
#include "src/workload/stream_generator.h"

namespace asketch {
namespace e2e {
namespace {

/// asketchd started as `<path> --port 0` and nothing else, so the
/// benchmark measures the defaults. The destructor kills and reaps a
/// daemon that was not stopped, and the child asks the kernel to kill
/// it if the benchmark dies first, so no exit path leaves it running.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Forks and execs the daemon, then waits (up to 10 s) for the line
  /// that announces its ephemeral port.
  std::optional<std::string> Start(const std::string& path) {
    int fds[2];
    if (::pipe(fds) != 0) return std::string("pipe() failed");
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return std::string("fork() failed");
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      const char* argv[] = {path.c_str(), "--port", "0", nullptr};
      ::execv(path.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(fds[1]);
    pid_ = pid;
    stdout_fd_ = fds[0];
    std::string text;
    const int64_t deadline = NowNs() + 10'000'000'000;
    for (;;) {
      const size_t at = text.find("listening on 127.0.0.1:");
      if (at != std::string::npos &&
          text.find('\n', at) != std::string::npos) {
        port_ = static_cast<uint16_t>(
            std::strtoul(text.c_str() + at + 23, nullptr, 10));
        if (port_ == 0) return std::string("bad port line: " + text);
        return std::nullopt;
      }
      const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
      if (left_ms <= 0) return std::string("asketchd did not announce a port");
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left_ms)) < 0 && errno != EINTR) {
        return std::string("poll() failed");
      }
      char chunk[256];
      const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
      if (n == 0) return std::string("asketchd exited during start-up");
      if (n > 0) text.append(chunk, static_cast<size_t>(n));
    }
  }

  /// SIGTERM (graceful drain), then SIGKILL after 10 s. A daemon that
  /// served traffic must exit with status 0. asketchd installs its
  /// SIGTERM handler just after announcing its port, so a set-up probe
  /// (`startup_probe`) stopped right after its HELLO may also end by the
  /// signal's default action.
  std::optional<std::string> Stop(bool startup_probe) {
    if (pid_ <= 0) return std::nullopt;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const int64_t deadline = NowNs() + 10'000'000'000;
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
      if (NowNs() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return std::string("asketchd ignored SIGTERM for 10 s");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    const bool clean =
        WIFEXITED(status) ? WEXITSTATUS(status) == 0
                          : startup_probe && WIFSIGNALED(status) &&
                                WTERMSIG(status) == SIGTERM;
    if (!clean) {
      return "asketchd exited with status " + std::to_string(status);
    }
    return std::nullopt;
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// utime + stime of every thread of `pid`, in ns.
std::optional<int64_t> ProcessCpuNs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  const size_t paren = line.rfind(')');
  if (paren == std::string::npos) return std::nullopt;
  std::istringstream fields(line.substr(paren + 2));
  std::string field;
  uint64_t utime = 0;
  uint64_t stime = 0;
  // Fields 3.. follow the command name; utime and stime are 14 and 15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) stime = std::stoull(field);
  }
  const int64_t ticks_per_s = ::sysconf(_SC_CLK_TCK);
  return static_cast<int64_t>((utime + stime) * 1'000'000'000ull /
                              static_cast<uint64_t>(ticks_per_s));
}

/// Peak resident set (VmHWM) of `pid`, in MiB.
double PeakRssMiB(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::nan("");
}

net::ClientOptions ClientOptionsFor(uint16_t port) {
  net::ClientOptions options;  // default ack window
  options.port = port;
  // Deadlines only: a hung daemon fails the run instead of wedging it.
  options.connect_timeout_ms = 10'000;
  options.read_timeout_ms = 30'000;
  options.write_timeout_ms = 30'000;
  return options;
}

void SleepUntilNs(int64_t due_ns) {
  const int64_t wait = due_ns - NowNs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

/// One stretch of a sub-run's timed part. Untraced runs have one untraced
/// stretch. Traced runs split the timed part into untraced, traced,
/// traced and untraced stretches on the same daemon, so the tracing
/// overhead compares rates from one daemon, and drift that is linear in
/// time cancels out.
struct Stretch {
  bool traced;
  int64_t start_ns;
  int64_t end_ns;
};

/// Time between stretches for the closing Flush and Digest (a few ms).
inline constexpr int64_t kStretchGapNs = 100'000'000;

std::vector<Stretch> PlanStretches(bool trace, int64_t start_ns,
                                   int64_t timed_ns) {
  if (!trace) return {Stretch{false, start_ns, start_ns + timed_ns}};
  std::vector<Stretch> stretches;
  const int64_t len = timed_ns / 4;
  for (const bool traced : {false, true, true, false}) {
    stretches.push_back(Stretch{traced, start_ns, start_ns + len});
    start_ns += len + kStretchGapNs;
  }
  return stretches;
}

struct SenderResult {
  uint64_t warm_tuples = 0;
  uint64_t timed_tuples = 0;
  uint64_t frames = 0;
  uint64_t shed = 0;
  /// Per stretch: tuples sent, and when its closing Digest returned.
  std::vector<uint64_t> stretch_tuples;
  std::vector<int64_t> visible_ns;
  std::vector<double> lateness_ms;
  std::string error;
};

/// Sends the slice once, untimed, then makes it visible.
void WarmUp(net::Client& client, std::span<const Tuple> slice,
            SenderResult* result) {
  for (size_t at = 0; at < slice.size(); at += kBatchTuples) {
    const size_t n = std::min(kBatchTuples, slice.size() - at);
    if (auto error = client.Update(slice.subspan(at, n))) {
      result->error = *error;
      return;
    }
    result->warm_tuples += n;
    ++result->frames;
  }
  net::StateDigest digest;
  if (auto error = client.Flush()) {
    result->error = *error;
  } else if (auto error = client.Digest(&digest)) {
    result->error = *error;
  }
}

/// The timed part of one bulk sender. Each stretch starts at its start
/// time, cycles the slice (closed loop, or paced to `per_conn_rate`) and
/// ends with Flush + Digest, which makes every tuple it sent visible to
/// queries. Spans go to `trace_log` in traced stretches only.
void TimedSend(net::Client& client, std::span<const Tuple> slice,
               bool open_loop, double per_conn_rate, uint64_t max_tuples,
               const std::vector<Stretch>& stretches, SpanLog* trace_log,
               SenderResult* result) {
  size_t at = result->warm_tuples % slice.size();
  for (const Stretch& stretch : stretches) {
    SpanLog* log = stretch.traced ? trace_log : nullptr;
    SleepUntilNs(stretch.start_ns);
    uint64_t sent = 0;
    {
      ScopedSpan pass(log, "sender.timed");
      for (;;) {
        if (open_loop) {
          const int64_t due =
              stretch.start_ns +
              static_cast<int64_t>(static_cast<double>(sent) /
                                   per_conn_rate * 1e9);
          if (due >= stretch.end_ns ||
              NowNs() >= stretch.end_ns + kOverrunNs) {
            break;
          }
          SleepUntilNs(due);
          result->lateness_ms.push_back(static_cast<double>(NowNs() - due) /
                                        1e6);
        } else if (NowNs() >= stretch.end_ns ||
                   result->timed_tuples + sent >= max_tuples) {
          break;
        }
        const size_t n = std::min(kBatchTuples, slice.size() - at);
        std::optional<std::string> error;
        {
          ScopedSpan span(log, "client.update", result->frames);
          error = client.Update(slice.subspan(at, n));
        }
        if (error) {
          result->error = *error;
          return;
        }
        sent += n;
        ++result->frames;
        at = (at + n) % slice.size();
      }
    }
    result->timed_tuples += sent;
    result->stretch_tuples.push_back(sent);
    ScopedSpan final_span(log, "sender.final");
    {
      ScopedSpan span(log, "client.flush", result->frames);
      if (auto error = client.Flush()) {
        result->error = *error;
        return;
      }
    }
    result->shed = client.last_ack().shed_weight;  // connection total
    net::StateDigest digest;
    {
      ScopedSpan span(log, "client.digest", result->frames);
      if (auto error = client.Digest(&digest)) {
        result->error = *error;
        return;
      }
    }
    result->visible_ns.push_back(NowNs());
  }
}

struct QueryResult {
  std::vector<TimedSample> latency_us;  ///< from due time
  std::vector<double> lateness_ms;
  uint64_t requests = 0;
  uint64_t errors = 0;
};

/// The open-loop read stream: kQueryRate QUERY_BATCH/s of 64 keys, plus
/// a TOPK every kTopKEvery batches. Latency counts from the due time, so
/// a stall also delays every request scheduled behind it.
void QueryLoop(net::Client& client, const std::vector<item_t>& pool,
               int64_t start_ns, int64_t end_ns, SpanLog* log,
               QueryResult* result) {
  ScopedSpan loop(log, "query.loop");
  std::vector<uint64_t> estimates;
  std::vector<net::TopKEntry> top;
  const size_t batches = pool.size() / kQueryKeysPerBatch;
  for (uint64_t i = 0;; ++i) {
    const int64_t due =
        start_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                        kQueryRate);
    if (due >= end_ns || NowNs() >= end_ns + kOverrunNs) break;
    SleepUntilNs(due);
    result->lateness_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
    const std::span<const item_t> keys(
        pool.data() + (i % batches) * kQueryKeysPerBatch, kQueryKeysPerBatch);
    std::optional<std::string> error;
    {
      ScopedSpan span(log, "client.query_batch", i);
      error = client.QueryBatch(keys, &estimates);
    }
    ++result->requests;
    if (error) {
      ++result->errors;
      if (!client.connected()) return;
      continue;
    }
    result->latency_us.push_back(
        TimedSample{due, static_cast<double>(NowNs() - due) / 1e3});
    if ((i + 1) % kTopKEvery == 0) {
      ScopedSpan span(log, "client.topk", i);
      ++result->requests;
      if (client.TopK(kTopK, &top)) ++result->errors;
    }
  }
}

struct SentinelResult {
  std::vector<double> lag_ms;  ///< censored sentinels count as 1000 ms
  std::vector<double> lateness_ms;
  uint64_t sent = 0;
  uint64_t censored = 0;
  uint64_t requests = 0;
  std::string error;
};

/// The low-rate producer: one fresh key of weight kSentinelWeight every
/// 1/rate s. Its visibility lag runs from the UPDATE send to the first
/// QUERY_BATCH answer that includes the weight (estimate >= e0 + weight,
/// e0 read just before the send); it is censored at 1 s. Ends with Flush
/// and Digest like every other sender.
void SentinelLoop(net::Client& client, item_t base, double rate,
                  int64_t start_ns, int64_t end_ns, SpanLog* log,
                  SentinelResult* result) {
  ScopedSpan loop(log, "sentinel.loop");
  std::vector<uint64_t> estimates;
  const int64_t period = static_cast<int64_t>(1e9 / rate);
  for (uint64_t j = 0;; ++j) {
    const int64_t due =
        start_ns + period / 2 + static_cast<int64_t>(j) * period;
    if (due >= end_ns || NowNs() >= end_ns + kOverrunNs) break;
    SleepUntilNs(due);
    result->lateness_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
    const item_t key = base + static_cast<item_t>(j);
    ScopedSpan probe(log, "sentinel.probe", key);
    ++result->requests;
    if (auto error = client.QueryBatch({&key, 1}, &estimates)) {
      result->error = *error;
      return;
    }
    const uint64_t e0 = estimates[0];
    const Tuple sentinel{key, kSentinelWeight};
    const int64_t sent_ns = NowNs();
    {
      ScopedSpan span(log, "client.update", key);
      ++result->requests;
      if (auto error = client.Update({&sentinel, 1})) {
        result->error = *error;
        return;
      }
    }
    ++result->sent;
    for (;;) {
      ++result->requests;
      if (auto error = client.QueryBatch({&key, 1}, &estimates)) {
        result->error = *error;
        return;
      }
      const int64_t lag = NowNs() - sent_ns;
      if (estimates[0] >= e0 + kSentinelWeight) {
        result->lag_ms.push_back(static_cast<double>(lag) / 1e6);
        break;
      }
      if (lag >= kVisibilityCensorNs) {
        ++result->censored;
        result->lag_ms.push_back(1000.0);
        break;
      }
    }
  }
  net::StateDigest digest;
  result->requests += 2;
  if (auto error = client.Flush()) {
    result->error = *error;
  } else if (auto error = client.Digest(&digest)) {
    result->error = *error;
  }
}

/// Exact count per key in [0, keys): every sender sent its slice
/// `total / slice` whole times plus a prefix of `total % slice` tuples.
ExactCounter ExactCounts(const Inputs& inputs, uint32_t keys,
                         const std::vector<SenderResult>& senders) {
  ExactCounter truth(keys);
  const size_t slice = inputs.buffer.size() / kBulkConnections;
  for (size_t s = 0; s < senders.size(); ++s) {
    const Tuple* base = inputs.buffer.data() + s * slice;
    const uint64_t total = senders[s].warm_tuples + senders[s].timed_tuples;
    const uint64_t passes = total / slice;
    const size_t prefix = static_cast<size_t>(total % slice);
    for (size_t i = 0; i < slice; ++i) {
      truth.Update(base[i].key, static_cast<delta_t>(
                                    (passes + (i < prefix)) * base[i].value));
    }
  }
  return truth;
}

/// What one daemon's lifetime measured.
struct SubRun {
  std::vector<double> setup_s;
  /// Over the untraced stretches, and over the traced ones (traced runs).
  double tuples_per_s = std::nan("");
  double traced_tuples_per_s = std::nan("");
  double cpu_ns_per_tuple = std::nan("");
  double rss_mib = std::nan("");
  double observed_error_pct = std::nan("");
  double topk_precision = std::nan("");
  QueryResult queries;
  SentinelResult sentinels;
  std::vector<double> bulk_lateness_ms;
  net::WireStats stats;
  std::vector<SpanLog> logs;  ///< senders, sentinel, queries (traced only)
};

/// Timed bulk tuples per second over the stretches whose `traced` flag
/// matches: their tuples over the time from each stretch's start to the
/// last Digest return that closed it. NaN if there is no such stretch.
double StretchRate(const std::vector<Stretch>& stretches,
                   const std::vector<SenderResult>& senders, bool traced) {
  uint64_t tuples = 0;
  int64_t busy_ns = 0;
  for (size_t k = 0; k < stretches.size(); ++k) {
    if (stretches[k].traced != traced) continue;
    int64_t visible_ns = stretches[k].start_ns;
    for (const SenderResult& s : senders) {
      tuples += s.stretch_tuples[k];
      visible_ns = std::max(visible_ns, s.visible_ns[k]);
    }
    busy_ns += visible_ns - stretches[k].start_ns;
  }
  if (busy_ns == 0) return std::nan("");
  return static_cast<double>(tuples) / (static_cast<double>(busy_ns) / 1e9);
}

/// Gates on the final state, read after every sender made its tuples
/// visible: every sentinel at full weight, one-sided sampled and TOPK
/// estimates. Also fills the accuracy metrics.
void CheckAccuracy(net::Client& client, const Inputs& inputs,
                   const ExactCounter& truth, SubRun* run,
                   LoopbackResult* out) {
  std::vector<std::string>& gates = out->gate_failures;
  std::vector<uint64_t> estimates;
  std::vector<item_t> sentinel_keys(run->sentinels.sent);
  for (uint64_t j = 0; j < run->sentinels.sent; ++j) {
    sentinel_keys[j] = inputs.sentinel_base + static_cast<item_t>(j);
  }
  const auto query = [&](std::span<const item_t> keys,
                         const auto& visit) -> bool {
    for (size_t at = 0; at < keys.size(); at += 4096) {
      const size_t n = std::min<size_t>(4096, keys.size() - at);
      ++out->attempted;
      if (auto error = client.QueryBatch(keys.subspan(at, n), &estimates)) {
        gates.push_back("final QUERY_BATCH failed: " + *error);
        return false;
      }
      for (size_t i = 0; i < n; ++i) visit(keys[at + i], estimates[i]);
    }
    return true;
  };
  uint64_t light = 0;
  if (!query(sentinel_keys,
             [&](item_t, uint64_t e) { light += e < kSentinelWeight; })) {
    return;
  }
  if (light != 0) {
    gates.push_back(std::to_string(light) + " of " +
                    std::to_string(run->sentinels.sent) +
                    " sentinels read below their weight");
  }
  std::unordered_map<item_t, count_t> served;
  uint64_t under = 0;
  if (!query(inputs.accuracy_keys, [&](item_t key, uint64_t e) {
        under += e < truth.Count(key);
        served[key] = static_cast<count_t>(e);
      })) {
    return;
  }
  if (under != 0) {
    gates.push_back(std::to_string(under) +
                    " sampled estimates below the exact count");
  }
  run->observed_error_pct =
      100.0 * ObservedError(
                  inputs.accuracy_keys,
                  [&](item_t key) { return served.at(key); }, truth);

  std::vector<net::TopKEntry> top;
  ++out->attempted;
  if (auto error = client.TopK(kTopK, &top)) {
    gates.push_back("final TOPK failed: " + *error);
    return;
  }
  // A sentinel in the report (only possible on tiny runs) is one-sided
  // against its own weight and counts as a miss for precision.
  std::vector<item_t> reported;
  uint64_t top_under = 0;
  for (const net::TopKEntry& e : top) {
    const bool stream_key = e.key < truth.domain_size();
    top_under +=
        e.estimate < (stream_key ? truth.Count(e.key) : kSentinelWeight);
    if (stream_key) reported.push_back(e.key);
  }
  if (top_under != 0) {
    gates.push_back(std::to_string(top_under) +
                    " TOPK estimates below the exact count");
  }
  run->topk_precision = PrecisionAtK(reported, truth, kTopK);
}

/// One sub-run against a fresh daemon. Returns nullopt (with a gate
/// failure recorded in `out`) when the run could not be completed.
std::optional<SubRun> RunSubRun(const Workload& workload,
                                const RunConfig& config, const Inputs& inputs,
                                uint32_t index, LoopbackResult* out) {
  SubRun run;
  const auto fail = [&](const std::string& what) -> std::optional<SubRun> {
    out->gate_failures.push_back(what);
    ++out->failed;
    return std::nullopt;
  };

  // Set-up: exec of asketchd to the first successful HELLO; the last
  // daemon started serves the sub-run.
  std::unique_ptr<Daemon> daemon;
  net::Client query_client;
  for (uint32_t i = 0; i < config.starts_per_sub_run; ++i) {
    if (daemon != nullptr) {
      query_client.Close();
      if (auto error = daemon->Stop(/*startup_probe=*/true)) {
        return fail(*error);
      }
    }
    daemon = std::make_unique<Daemon>();
    const int64_t t0 = NowNs();
    if (auto error = daemon->Start(config.daemon_path)) return fail(*error);
    if (auto error = query_client.Connect(ClientOptionsFor(daemon->port()))) {
      return fail("HELLO failed: " + *error);
    }
    run.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    ++out->attempted;
  }
  const net::ClientOptions options = ClientOptionsFor(daemon->port());
  std::vector<net::Client> senders(kBulkConnections);
  net::Client sentinel_client;
  for (net::Client& c : senders) {
    if (auto error = c.Connect(options)) return fail(*error);
  }
  if (auto error = sentinel_client.Connect(options)) return fail(*error);

  const size_t slice_len = inputs.buffer.size() / kBulkConnections;
  const auto slice = [&](uint32_t s) {
    return std::span<const Tuple>(inputs.buffer.data() + s * slice_len,
                                  slice_len);
  };
  std::vector<SenderResult> sent(kBulkConnections);
  {
    std::vector<std::thread> threads;
    for (uint32_t s = 0; s < kBulkConnections; ++s) {
      threads.emplace_back(WarmUp, std::ref(senders[s]), slice(s), &sent[s]);
    }
    for (std::thread& t : threads) t.join();
  }
  for (const SenderResult& s : sent) {
    if (!s.error.empty()) return fail("warm-up: " + s.error);
  }

  // Four generator threads at most: the bulk senders and the sentinel
  // producer on their own threads, the query generator on this one.
  if (config.trace) {
    for (uint32_t k = 1; k <= kBulkConnections + 2; ++k) {
      run.logs.emplace_back(index * (kBulkConnections + 2) + k);
    }
  }
  const auto log_of = [&](uint32_t k) -> SpanLog* {
    return config.trace ? &run.logs[k] : nullptr;
  };
  const auto run_reads = [&](double sentinel_rate, int64_t start_ns,
                             int64_t end_ns) {
    std::thread sentinel(SentinelLoop, std::ref(sentinel_client),
                         inputs.sentinel_base, sentinel_rate, start_ns,
                         end_ns, log_of(kBulkConnections), &run.sentinels);
    QueryLoop(query_client, inputs.query_pool, start_ns, end_ns,
              log_of(kBulkConnections + 1), &run.queries);
    sentinel.join();
  };

  const std::optional<int64_t> cpu_start = ProcessCpuNs(daemon->pid());
  const std::vector<Stretch> stretches = PlanStretches(
      config.trace, NowNs() + 1'000'000,
      static_cast<int64_t>(config.seconds / config.sub_runs * 1e9));
  {
    std::vector<std::thread> threads;
    for (uint32_t s = 0; s < kBulkConnections; ++s) {
      threads.emplace_back(
          TimedSend, std::ref(senders[s]), slice(s), workload.open_loop,
          workload.offered_rate / kBulkConnections,
          workload.max_timed_tuples / kBulkConnections, std::cref(stretches),
          log_of(s), &sent[s]);
    }
    if (workload.open_loop) {
      run_reads(kSentinelRate, stretches.front().start_ns,
                stretches.back().end_ns);
    }
    for (std::thread& t : threads) t.join();
  }
  const std::optional<int64_t> cpu_end = ProcessCpuNs(daemon->pid());
  if (!workload.open_loop) {
    const int64_t probe_ns = NowNs() + 1'000'000;
    run_reads(kProbeSentinelRate, probe_ns,
              probe_ns + static_cast<int64_t>(config.probe_seconds * 1e9));
  }

  uint64_t timed_tuples = 0;
  uint64_t total_tuples = run.sentinels.sent;
  uint64_t shed = 0;
  for (const SenderResult& s : sent) {
    if (!s.error.empty()) return fail("bulk sender: " + s.error);
    timed_tuples += s.timed_tuples;
    total_tuples += s.warm_tuples + s.timed_tuples;
    shed += s.shed;
    run.bulk_lateness_ms.insert(run.bulk_lateness_ms.end(),
                                s.lateness_ms.begin(), s.lateness_ms.end());
    // Frames, plus the Flush and Digest that close each stretch.
    out->attempted += s.frames + 2 * stretches.size();
  }
  if (!run.sentinels.error.empty()) {
    return fail("sentinel: " + run.sentinels.error);
  }
  out->attempted += run.queries.requests + run.sentinels.requests;
  out->failed += run.queries.errors + run.sentinels.censored +
                 (shed + kBatchTuples - 1) / kBatchTuples;
  if (run.queries.errors != 0) {
    out->gate_failures.push_back(std::to_string(run.queries.errors) +
                                 " query errors");
  }
  if (run.sentinels.censored != 0) {
    out->gate_failures.push_back(std::to_string(run.sentinels.censored) +
                                 " sentinels not visible within 1 s");
  }
  run.tuples_per_s = StretchRate(stretches, sent, /*traced=*/false);
  run.traced_tuples_per_s = StretchRate(stretches, sent, /*traced=*/true);
  if (cpu_start && cpu_end) {
    run.cpu_ns_per_tuple = static_cast<double>(*cpu_end - *cpu_start) /
                           static_cast<double>(timed_tuples);
  }

  // True-mass conservation: everything sent was applied or shed.
  ++out->attempted;
  if (auto error = query_client.Stats(&run.stats)) {
    return fail("STATS failed: " + *error);
  }
  if (run.stats.ingested + run.stats.shed_weight != total_tuples) {
    out->gate_failures.push_back(
        "STATS ingested + shed_weight = " +
        std::to_string(run.stats.ingested + run.stats.shed_weight) + " but " +
        std::to_string(total_tuples) + " tuples were sent");
  }
  CheckAccuracy(query_client, inputs, ExactCounts(inputs, workload.keys, sent),
                &run, out);
  run.rss_mib = PeakRssMiB(daemon->pid());

  for (net::Client& c : senders) c.Close();
  sentinel_client.Close();
  query_client.Close();
  if (auto error = daemon->Stop(/*startup_probe=*/false)) {
    out->gate_failures.push_back(*error);
  }
  return run;
}

/// Median of `field` over the sub-runs.
template <typename Field>
double MedianOf(const std::vector<SubRun>& runs, Field field) {
  std::vector<double> values;
  for (const SubRun& r : runs) values.push_back(field(r));
  return Median(values);
}

}  // namespace

Inputs MakeInputs(const Workload& workload, const RunConfig& config) {
  Inputs inputs;
  StreamSpec spec;
  spec.stream_size = config.buffer_tuples;
  spec.num_distinct = workload.keys;
  spec.skew = workload.skew;
  spec.seed = config.seed;
  inputs.buffer = GenerateStream(spec);
  inputs.query_pool = GenerateQueries(
      inputs.buffer, workload.keys, 1024 * kQueryKeysPerBatch,
      QuerySampling::kFrequencyProportional, config.seed ^ 0x51);
  inputs.accuracy_keys = GenerateQueries(
      inputs.buffer, workload.keys, kAccuracyKeys,
      QuerySampling::kFrequencyProportional, config.seed ^ 0xacc);
  // Spread runs with different seeds over the upper half of the key
  // space; 2^20 keys of headroom is far more than a sub-run sends.
  inputs.sentinel_base =
      kSentinelKeyBase +
      static_cast<item_t>((config.seed * 0x9e3779b97f4a7c15ull) >> 35);
  return inputs;
}

LoopbackResult RunLoopback(const Workload& workload, const RunConfig& config,
                           const Inputs& inputs) {
  LoopbackResult out;
  std::vector<SubRun> runs;
  for (uint32_t i = 0; i < config.sub_runs; ++i) {
    std::optional<SubRun> run = RunSubRun(workload, config, inputs, i, &out);
    if (!run.has_value()) return out;
    runs.push_back(std::move(*run));
  }
  out.stats = runs.back().stats;

  // Every end-to-end figure is a median over the sub-runs of that
  // sub-run's own value, so one disturbed sub-run cannot move it; every
  // start counts toward setup_s. In a traced run the rate comes from the
  // untraced stretches and the rest includes the traced ones (the
  // generator's spans cost two clock reads per request). Tail latency
  // gates at p90: p99s moved by 17-44% between runs of one commit on a
  // shared 4-vCPU host (README.md), more than any bound allows, so they
  // are reported below without one.
  std::vector<double> setup_s, latency_us, window_p99s, lag_ms, late_ms;
  for (const SubRun& r : runs) {
    setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
    const std::vector<TimedSample>& q = r.queries.latency_us;
    for (const TimedSample& s : q) latency_us.push_back(s.value);
    if (!q.empty()) {
      AppendWindowQuantiles(q, q.front().at_ns, 0.99, &window_p99s);
    }
    lag_ms.insert(lag_ms.end(), r.sentinels.lag_ms.begin(),
                  r.sentinels.lag_ms.end());
    for (const std::vector<double>* late :
         {&r.queries.lateness_ms, &r.sentinels.lateness_ms,
          &r.bulk_lateness_ms}) {
      late_ms.insert(late_ms.end(), late->begin(), late->end());
    }
  }
  const auto median_of = [&](auto field) { return MedianOf(runs, field); };
  const auto query_quantile = [](double q) {
    return [q](const SubRun& r) {
      std::vector<double> us;
      for (const TimedSample& s : r.queries.latency_us) us.push_back(s.value);
      return Quantile(std::move(us), q);
    };
  };
  const auto lag_quantile = [](double q) {
    return [q](const SubRun& r) { return Quantile(r.sentinels.lag_ms, q); };
  };
  MetricList& m = out.metrics;
  m.Set("setup_s", Median(setup_s), "s");
  m.Set("ingest_tuples_per_s",
        median_of([](const SubRun& r) { return r.tuples_per_s; }),
        "tuples/s");
  m.Set("server_cpu_ns_per_tuple",
        median_of([](const SubRun& r) { return r.cpu_ns_per_tuple; }), "ns");
  m.Set("server_rss_mb", median_of([](const SubRun& r) { return r.rss_mib; }),
        "MiB");
  m.Set("observed_error_pct",
        median_of([](const SubRun& r) { return r.observed_error_pct; }), "%");
  m.Set("topk_precision",
        median_of([](const SubRun& r) { return r.topk_precision; }),
        "fraction");
  m.Set("query_p50_us", median_of(query_quantile(0.50)), "us");
  m.Set("query_p90_us", median_of(query_quantile(0.90)), "us");
  m.Set("visibility_lag_p50_ms", median_of(lag_quantile(0.50)), "ms");
  m.Set("visibility_lag_p90_ms", median_of(lag_quantile(0.90)), "ms");

  // Per-layer figures measured over the wire.
  MetricList& layer = out.layer;
  layer.Set("core.selectivity", median_of([](const SubRun& r) {
              return static_cast<double>(r.stats.sketch_weight) /
                     static_cast<double>(r.stats.filtered_weight +
                                         r.stats.sketch_weight);
            }),
            "fraction");
  layer.Set("core.exchanges_per_mtuple", median_of([](const SubRun& r) {
              return static_cast<double>(r.stats.exchanges) /
                     (static_cast<double>(r.stats.ingested) / 1e6);
            }),
            "count");
  const std::vector<uint64_t>& per_shard = out.stats.per_shard_ingested;
  const auto busiest = std::max_element(per_shard.begin(), per_shard.end());
  if (busiest != per_shard.end()) {
    layer.Set("shard_set.partition_skew",
              static_cast<double>(*busiest) * per_shard.size() /
                  static_cast<double>(out.stats.ingested),
              "ratio");
  }
  layer.Set("loadgen.query_p99_us",
            window_p99s.empty() ? Quantile(latency_us, 0.99)
                                : Median(window_p99s),
            "us");
  layer.Set("loadgen.visibility_lag_p99_ms", Quantile(lag_ms, 0.99), "ms");
  layer.Set("loadgen.late_p99_ms", Quantile(late_ms, 0.99), "ms");
  if (config.trace) {
    // Traced against untraced stretches of the same daemon.
    layer.Set("trace.overhead_frac", median_of([](const SubRun& r) {
                return 1.0 - r.traced_tuples_per_s / r.tuples_per_s;
              }),
              "fraction");
    // Client calls, timed by the spans of the traced stretches.
    const auto span_median = [&](uint32_t first, uint32_t last,
                                 const char* name, double unit_ns) {
      std::vector<double> values;
      for (const SubRun& r : runs) {
        for (uint32_t i = first; i < last && i < r.logs.size(); ++i) {
          for (const double ns : r.logs[i].Durations(name)) {
            values.push_back(ns / unit_ns);
          }
        }
      }
      return Median(values);
    };
    layer.Set("client.update_us",
              span_median(0, kBulkConnections, "client.update", 1e3), "us");
    layer.Set("client.final_flush_ms",
              span_median(0, kBulkConnections, "client.flush", 1e6), "ms");
    layer.Set("client.digest_barrier_ms",
              span_median(0, kBulkConnections, "client.digest", 1e6), "ms");
    layer.Set("client.query_batch_us",
              span_median(kBulkConnections + 1, kBulkConnections + 2,
                          "client.query_batch", 1e3),
              "us");
    for (SubRun& r : runs) {
      for (SpanLog& log : r.logs) out.span_logs.push_back(std::move(log));
    }
  }
  return out;
}

}  // namespace e2e
}  // namespace asketch
