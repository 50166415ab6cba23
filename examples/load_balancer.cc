// Frequency-aware load balancing — the MapReduce-style motivation from
// the paper's introduction (Yan & Malin: biased frequency estimates lead
// to unbalanced job distribution).
//
//   $ ./load_balancer
//
// Scenario: a partitioner must split a skewed key stream across W
// workers. A frequency-oblivious hash partitioner overloads whichever
// worker draws the hottest keys; a frequency-aware partitioner isolates
// the estimated heavy hitters onto dedicated assignments. We compare the
// resulting load imbalance (max worker load / ideal load) when the heavy
// hitters come from (a) exact counts, (b) a Count-Min scan, and (c)
// ASketch's filter (TopK), all summaries same-sized. Exits nonzero if
// the ASketch heavy set's precision falls below the Count-Min scan's.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "src/common/bit_util.h"
#include "src/core/asketch.h"
#include "src/workload/exact_counter.h"
#include "src/workload/stream_generator.h"

namespace {

using namespace asketch;

constexpr uint32_t kWorkers = 8;

// Greedy frequency-aware assignment: heavy keys first, each to the
// currently lightest worker; everything else by hash.
double ImbalanceWithHeavySet(
    const std::vector<Tuple>& stream, const ExactCounter& truth,
    const std::vector<std::pair<item_t, double>>& heavy_estimates) {
  std::unordered_map<item_t, uint32_t> assignment;
  std::vector<double> planned(kWorkers, 0);
  // Plan using the *estimated* weights (that is all the balancer knows).
  for (const auto& [key, weight] : heavy_estimates) {
    const uint32_t worker = static_cast<uint32_t>(
        std::min_element(planned.begin(), planned.end()) -
        planned.begin());
    assignment[key] = worker;
    planned[worker] += weight;
  }
  // Measure using the *true* loads the plan produces.
  std::vector<uint64_t> load(kWorkers, 0);
  for (const Tuple& t : stream) {
    const auto it = assignment.find(t.key);
    const uint32_t worker =
        it != assignment.end()
            ? it->second
            : static_cast<uint32_t>(Mix64(t.key) % kWorkers);
    load[worker] += t.value;
  }
  const uint64_t max_load = *std::max_element(load.begin(), load.end());
  const double ideal =
      static_cast<double>(truth.Total()) / kWorkers;
  return static_cast<double>(max_load) / ideal;
}

}  // namespace

int main() {
  StreamSpec spec;
  spec.stream_size = 4'000'000;
  spec.num_distinct = 1'000'000;
  spec.skew = 1.1;
  spec.seed = 9;
  std::printf("stream: %s, %u workers\n\n", spec.ToString().c_str(),
              kWorkers);
  ExactCounter truth(spec.num_distinct);
  const std::vector<Tuple> stream = GenerateStream(spec);
  for (const Tuple& t : stream) truth.Update(t.key, t.value);

  constexpr size_t kBudget = 4 * 1024;
  constexpr uint32_t kHeavyKeys = 32;

  // (a) hash-only partitioner: no heavy set at all.
  const double hash_only = ImbalanceWithHeavySet(stream, truth, {});

  // (b) exact oracle.
  std::vector<std::pair<item_t, double>> oracle;
  const auto by_frequency = truth.KeysByFrequency();
  for (uint32_t i = 0; i < kHeavyKeys; ++i) {
    oracle.push_back({by_frequency[i],
                      static_cast<double>(truth.Count(by_frequency[i]))});
  }

  // (c) Count-Min: scan the domain for the best estimates (what a
  // sketch-only system would have to do).
  CountMin cm(CountMinConfig::FromSpaceBudget(kBudget, 8, 42));
  for (const Tuple& t : stream) cm.Update(t.key, t.value);
  std::vector<std::pair<item_t, double>> cm_heavy;
  {
    std::vector<std::pair<count_t, item_t>> scored;
    scored.reserve(spec.num_distinct);
    for (item_t key = 0; key < spec.num_distinct; ++key) {
      scored.push_back({cm.Estimate(key), key});
    }
    std::partial_sort(scored.begin(), scored.begin() + kHeavyKeys,
                      scored.end(), std::greater<>());
    for (uint32_t i = 0; i < kHeavyKeys; ++i) {
      cm_heavy.push_back({scored[i].second,
                          static_cast<double>(scored[i].first)});
    }
  }

  // (d) ASketch: the filter IS the heavy set — no domain scan needed.
  ASketchConfig config;
  config.total_bytes = kBudget;
  config.width = 8;
  config.filter_items = kHeavyKeys;
  auto as = MakeASketchCountMin<RelaxedHeapFilter>(config);
  for (const Tuple& t : stream) as.Update(t.key, t.value);
  std::vector<std::pair<item_t, double>> as_heavy;
  for (const FilterEntry& e : as.TopK()) {
    as_heavy.push_back({e.key, static_cast<double>(e.new_count)});
  }

  // Quality of each heavy set: how many of the true top keys it found,
  // and how far its weight estimates are from the truth (wrong weights
  // mean the greedy packing balances phantom load).
  const auto report = [&](const char* name,
                          const std::vector<std::pair<item_t, double>>&
                              heavy) -> double {
    const wide_count_t threshold = truth.CountOfRank(kHeavyKeys);
    uint32_t correct = 0;
    double weight_error = 0;
    double weight_total = 0;
    for (const auto& [key, weight] : heavy) {
      if (truth.Count(key) >= threshold) ++correct;
      weight_error +=
          std::abs(weight - static_cast<double>(truth.Count(key)));
      weight_total += static_cast<double>(truth.Count(key));
    }
    const double precision =
        heavy.empty() ? 0.0 : static_cast<double>(correct) / kHeavyKeys;
    std::printf("%-34s %12.3f %12.2f %16.4f\n", name,
                ImbalanceWithHeavySet(stream, truth, heavy), precision,
                weight_total > 0 ? weight_error / weight_total : 0.0);
    return precision;
  };
  std::printf("%-34s %12s %12s %16s\n", "partitioner", "imbalance",
              "precision", "weight rel err");
  std::printf("%-34s %12.3f %12s %16s\n", "hash only", hash_only, "-",
              "-");
  report("heavy set from exact counts", oracle);
  const double cm_precision =
      report("heavy set from Count-Min (scan)", cm_heavy);
  const double as_precision =
      report("heavy set from ASketch filter", as_heavy);
  std::printf("\n(imbalance 1.0 = perfectly balanced; ASketch should "
              "track the exact oracle)\n");
  if (as_precision < cm_precision) {
    std::printf("FAIL: ASketch heavy-set precision below the Count-Min "
                "scan's\n");
    return 1;
  }
  return 0;
}
