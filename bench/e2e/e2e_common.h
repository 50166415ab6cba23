// Shared pieces of the end-to-end benchmark: the workload table, order
// statistics, the metric list every phase appends to, and the in-memory
// span log behind the traced run.

#ifndef ASKETCH_BENCH_E2E_E2E_COMMON_H_
#define ASKETCH_BENCH_E2E_E2E_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"

namespace asketch {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One traffic mix. Bulk senders either run closed loop (as fast as the
/// client's ack window allows) or open loop at `offered_rate` tuples/s
/// shared between them. The query and sentinel generators run open loop
/// beside an open-loop bulk stream; a closed loop saturates the host, so
/// there they run on the quiet server right after the timed ingest
/// (beside it they mostly measured the scheduler and doubled the
/// throughput spread).
struct Workload {
  const char* name;
  double skew;
  uint32_t keys;
  bool open_loop;
  double offered_rate;
  /// Closed loop stops early after this many timed tuples per daemon, so
  /// a much faster server cannot saturate a 32-bit filter counter.
  uint64_t max_timed_tuples;
};

/// Sizes and rates one run uses; --smoke shrinks them.
struct RunConfig {
  uint64_t seed = 1;
  /// Timed loopback time of the whole run, split over the sub-runs.
  double seconds = 20;
  bool trace = false;
  uint64_t buffer_tuples = uint64_t{1} << 24;
  /// Each sub-run gets a fresh daemon; metrics are medians over them,
  /// which damps the host's second-to-second swings.
  uint32_t sub_runs = 5;
  /// Daemon starts per sub-run that count toward setup_s.
  uint32_t starts_per_sub_run = 2;
  /// Length of the quiet read phase after closed-loop ingest.
  double probe_seconds = 2.0;
  /// Wall time each in-process layer measurement runs for.
  double layer_seconds = 1.0;
  std::string daemon_path;
};

inline constexpr uint32_t kBulkConnections = 2;
inline constexpr size_t kBatchTuples = 8192;
inline constexpr uint32_t kQueryKeysPerBatch = 64;
inline constexpr double kQueryRate = 1000;  ///< QUERY_BATCH per second
inline constexpr uint32_t kTopKEvery = 100;  ///< one TOPK per 100 batches
inline constexpr uint32_t kTopK = 32;
/// Sentinel updates per second beside open-loop writes (under 1% of the
/// mass) and in the quiet read phase (enough samples for a p99).
inline constexpr double kSentinelRate = 100;
inline constexpr double kProbeSentinelRate = 1000;
inline constexpr count_t kSentinelWeight = 1024;
inline constexpr item_t kSentinelKeyBase = item_t{1} << 31;
inline constexpr int64_t kVisibilityCensorNs = 1'000'000'000;
/// Open-loop generators stop issuing requests, even ones due earlier,
/// this long after their phase ends: a stalled server then fails the run
/// quickly instead of stretching it by its whole backlog.
inline constexpr int64_t kOverrunNs = 1'000'000'000;
inline constexpr uint32_t kAccuracyKeys = 65536;

/// Linear-interpolated quantile (q in [0, 1]) of `values`; NaN if empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// A sample taken at `at_ns` (its due time, for open-loop requests).
struct TimedSample {
  int64_t at_ns;
  double value;
};

/// Appends to `out` the q-quantile of every 1-s window (counted from
/// `start_ns`) that holds at least 1000 samples, so that at least ten lie
/// beyond its p99.
inline void AppendWindowQuantiles(const std::vector<TimedSample>& samples,
                                  int64_t start_ns, double q,
                                  std::vector<double>* out) {
  std::vector<std::vector<double>> windows;
  for (const TimedSample& s : samples) {
    const int64_t offset = std::max<int64_t>(0, s.at_ns - start_ns);
    const size_t w = static_cast<size_t>(offset / 1'000'000'000);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(s.value);
  }
  for (std::vector<double>& w : windows) {
    if (w.size() >= 1000) out->push_back(Quantile(std::move(w), q));
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Metrics in the order they were measured; a later Set of the same name
/// overwrites.
class MetricList {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back(Metric{name, value, unit});
  }
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  double Value(const std::string& name) const {
    const Metric* m = Find(name);
    return m == nullptr ? std::nan("") : m->value;
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// One completed span. `parent` is the id of the enclosing span on the
/// same thread (0 = none); `batch` ties a span to the request or batch
/// it timed.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint32_t id;
  uint32_t parent;
  uint64_t batch;
};

/// A thread's spans, kept in memory and written out after the run. Not
/// thread-safe: one log per thread. A null log records nothing, which is
/// how the untraced passes run the same code.
class SpanLog {
 public:
  explicit SpanLog(uint32_t tid) : tid_(tid) {}

  uint32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ns) of every span called `name`.
  std::vector<double> Durations(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::string_view(s.name) == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    return out;
  }

 private:
  friend class ScopedSpan;
  uint32_t tid_;
  uint32_t next_id_ = 1;
  uint32_t open_ = 0;  ///< id of the innermost open span
  std::vector<Span> spans_;
};

/// Records the enclosing scope into `log` (when non-null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t batch = 0)
      : log_(log), name_(name), batch_(batch) {
    if (log_ == nullptr) return;
    id_ = (log_->tid_ << 24) | log_->next_id_++;
    parent_ = log_->open_;
    log_->open_ = id_;
    start_ns_ = NowNs();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    log_->spans_.push_back(
        Span{name_, start_ns_, NowNs(), id_, parent_, batch_});
    log_->open_ = parent_;
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  uint64_t batch_;
  uint32_t id_ = 0;
  uint32_t parent_ = 0;
  int64_t start_ns_ = 0;
};

}  // namespace e2e
}  // namespace asketch

#endif  // ASKETCH_BENCH_E2E_E2E_COMMON_H_
