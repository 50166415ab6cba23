// Sketch-based pointwise mutual information (PMI) — the NLP application
// motivating accurate rankings in the paper's introduction (Goyal, Daumé,
// Cormode: "Sketch Algorithms for Estimating Point Queries in NLP").
//
//   $ ./nlp_pmi
//
// Scenario: a corpus streams by as (word, context-word) pairs; pair
// frequencies are sketched and word pairs are scored by
// PMI(x, y) = log( p(x,y) / (p(x) p(y)) ). Misestimated pair counts
// corrupt the PMI scores of the most frequent pairs — exactly the failure
// mode the paper cites for sentiment analysis — so we measure the count
// and PMI error of a Count-Min vs a same-space ASketch on the hottest
// collocations. Exits nonzero unless ASketch's count relative error is
// below Count-Min's.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/core/asketch.h"
#include "src/workload/stream_generator.h"
#include "src/workload/zipf.h"

namespace {

using namespace asketch;

// Synthetic corpus model: word unigrams follow a Zipf law; a small set of
// "collocations" (fixed word pairs) co-occur far more often than chance.
struct Corpus {
  std::vector<std::pair<item_t, item_t>> pairs;  // (word, context) stream
  std::unordered_map<uint64_t, uint64_t> pair_counts;
  std::vector<uint64_t> word_counts;
  uint64_t total_pairs = 0;
};

uint64_t PairId(item_t x, item_t y) {
  return (static_cast<uint64_t>(x) << 32) | y;
}

item_t PairKey(item_t x, item_t y) {
  // 32-bit key for the sketches: mix the pair id.
  return static_cast<item_t>(Mix64(PairId(x, y)) >> 32);
}

Corpus MakeCorpus(uint32_t vocabulary, uint64_t num_pairs,
                  uint32_t num_collocations, uint64_t seed) {
  Corpus corpus;
  corpus.word_counts.assign(vocabulary, 0);
  corpus.pairs.reserve(num_pairs);
  ZipfDistribution unigram(vocabulary, 1.1);
  Rng rng(seed);
  // Collocation pairs between mid-frequency words (the interesting PMI
  // case: high joint probability relative to moderate marginals).
  std::vector<std::pair<item_t, item_t>> collocations;
  for (uint32_t i = 0; i < num_collocations; ++i) {
    collocations.push_back(
        {static_cast<item_t>(100 + 7 * i),
         static_cast<item_t>(150 + 11 * i)});
  }
  for (uint64_t i = 0; i < num_pairs; ++i) {
    item_t x, y;
    if (rng.NextBounded(10) < 3) {  // 30% of pairs are collocations
      // Graded strengths: collocation j is roughly twice as common as
      // collocation j+3, so the PMI ranking has a meaningful order that
      // estimation noise can scramble.
      size_t j = 0;
      while (j + 1 < collocations.size() && rng.NextBounded(5) < 4) ++j;
      const auto& c = collocations[j];
      x = c.first;
      y = c.second;
    } else {
      x = static_cast<item_t>(unigram.Sample(rng) - 1);
      y = static_cast<item_t>(unigram.Sample(rng) - 1);
    }
    corpus.pairs.push_back({x, y});
    ++corpus.word_counts[x];
    ++corpus.word_counts[y];
    ++corpus.pair_counts[PairId(x, y)];
    ++corpus.total_pairs;
  }
  return corpus;
}

double Pmi(double pair_count, double x_count, double y_count,
           double total) {
  if (pair_count <= 0 || x_count <= 0 || y_count <= 0) return -1e9;
  return std::log((pair_count * 2.0 * total) / (x_count * y_count));
}

}  // namespace

int main() {
  constexpr uint32_t kVocabulary = 200000;
  constexpr uint64_t kPairs = 2'000'000;
  const Corpus corpus = MakeCorpus(kVocabulary, kPairs, 60, 1234);
  std::printf("corpus: %llu word pairs, vocabulary %u\n\n",
              static_cast<unsigned long long>(corpus.total_pairs),
              kVocabulary);

  // Summarize pair frequencies with small same-space synopses (word
  // marginals are kept exact; the quadratic pair space is what needs
  // sketching).
  constexpr size_t kBudget = 8 * 1024;
  CountMin cm(CountMinConfig::FromSpaceBudget(kBudget, 8, 42));
  ASketchConfig config;
  config.total_bytes = kBudget;
  config.width = 8;
  config.filter_items = 32;
  auto as = MakeASketchCountMin<RelaxedHeapFilter>(config);
  for (const auto& [x, y] : corpus.pairs) {
    const item_t key = PairKey(x, y);
    cm.Update(key);
    as.Update(key);
  }

  // Candidates: all pairs seen at least 20 times (tracking the candidate
  // *set* is cheap; scoring needs the frequencies).
  std::vector<std::pair<item_t, item_t>> candidates;
  for (const auto& [id, count] : corpus.pair_counts) {
    if (count >= 20) {
      candidates.push_back({static_cast<item_t>(id >> 32),
                            static_cast<item_t>(id & 0xffffffff)});
    }
  }
  std::printf("%zu candidate pairs with count >= 20\n", candidates.size());

  // The paper's point is accuracy on the MOST FREQUENT items: rank the
  // candidates by true frequency and evaluate the PMI computed from each
  // summary on the hottest 40 pairs (the collocations an NLP pipeline
  // would actually report).
  std::sort(candidates.begin(), candidates.end(),
            [&corpus](const auto& a, const auto& b) {
              return corpus.pair_counts.at(PairId(a.first, a.second)) >
                     corpus.pair_counts.at(PairId(b.first, b.second));
            });
  const size_t hot_n = std::min<size_t>(40, candidates.size());
  const auto hot = std::vector<std::pair<item_t, item_t>>(
      candidates.begin(), candidates.begin() + hot_n);

  const auto pmi_error = [&](auto&& estimate) {
    double total = 0;
    for (const auto& [x, y] : hot) {
      const double exact_pmi =
          Pmi(static_cast<double>(corpus.pair_counts.at(PairId(x, y))),
              corpus.word_counts[x], corpus.word_counts[y],
              static_cast<double>(corpus.total_pairs));
      const double est_pmi =
          Pmi(estimate(x, y), corpus.word_counts[x],
              corpus.word_counts[y],
              static_cast<double>(corpus.total_pairs));
      total += std::abs(est_pmi - exact_pmi);
    }
    return total / static_cast<double>(hot_n);
  };
  const auto count_error = [&](auto&& estimate) {
    double total = 0, truth_sum = 0;
    for (const auto& [x, y] : hot) {
      const double t =
          static_cast<double>(corpus.pair_counts.at(PairId(x, y)));
      total += std::abs(estimate(x, y) - t);
      truth_sum += t;
    }
    return total / truth_sum;
  };
  const auto cm_estimate = [&cm](item_t x, item_t y) {
    return static_cast<double>(cm.Estimate(PairKey(x, y)));
  };
  const auto as_estimate = [&as](item_t x, item_t y) {
    return static_cast<double>(as.Estimate(PairKey(x, y)));
  };

  std::printf("\naccuracy on the %zu most frequent pairs:\n", hot_n);
  std::printf("%-22s %18s %18s\n", "method", "count rel err",
              "mean |PMI error|");
  const double cm_count_error = count_error(cm_estimate);
  const double as_count_error = count_error(as_estimate);
  std::printf("%-22s %18.4f %18.4f\n", "Count-Min (8KB)", cm_count_error,
              pmi_error(cm_estimate));
  std::printf("%-22s %18.4f %18.4f\n", "ASketch (8KB)", as_count_error,
              pmi_error(as_estimate));
  std::printf("\n(an ASketch filter of 32 pairs keeps the hottest "
              "collocations exact, so their PMI scores — and any top-k "
              "sentiment/collocation report built on them — stay "
              "correct)\n");
  if (as_count_error >= cm_count_error) {
    std::printf("FAIL: ASketch count error is not below Count-Min's\n");
    return 1;
  }
  return 0;
}
