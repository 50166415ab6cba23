// Zipf-distributed rank sampling.
//
// All of the paper's synthetic experiments draw streams from a Zipf
// distribution over M distinct items with skew z in [0, 3]: rank r has
// probability proportional to r^{-z}. This sampler uses Hörmann's
// rejection-inversion method, which is O(1) per sample for any z > 0 and
// any domain size — no O(M) CDF table, which matters for M = 8M domains.
// z = 0 degenerates to the uniform distribution and is special-cased.

#ifndef ASKETCH_WORKLOAD_ZIPF_H_
#define ASKETCH_WORKLOAD_ZIPF_H_

#include <cstdint>

#include "src/common/check.h"
#include "src/common/random.h"

namespace asketch {

/// Samples ranks in [1, num_elements] with P(r) ∝ r^{-skew}.
class ZipfDistribution {
 public:
  /// Distribution over [1, num_elements] with the given finite skew (>= 0).
  ZipfDistribution(uint64_t num_elements, double skew);

  /// Draws one rank using `rng`.
  uint64_t Sample(Rng& rng) const;

  uint64_t num_elements() const { return num_elements_; }
  double skew() const { return skew_; }

  /// Exact probability of rank r (computed on demand in O(M) the first
  /// time via the normalization constant; the constant is cached).
  double Probability(uint64_t rank) const;

  /// Fraction of the total probability mass held by the top-k ranks; this
  /// is 1 - filter_selectivity for an ideal k-item filter (§4, Fig. 3).
  double TopKMass(uint64_t k) const;

 private:
  double HIntegral(double x) const;
  double HIntegralInverse(double x) const;
  double H(double x) const;

  uint64_t num_elements_;
  double skew_;
  // Rejection-inversion precomputed constants (unused when skew == 0).
  double h_integral_x1_ = 0;
  double h_integral_num_elements_ = 0;
  double s_ = 0;
  // Cached normalization constant sum_{r=1..M} r^{-z}; computed lazily.
  mutable double normalizer_ = 0;
};

}  // namespace asketch

#endif  // ASKETCH_WORKLOAD_ZIPF_H_
