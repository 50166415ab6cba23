#include "src/workload/zipf.h"

#include <cmath>

namespace asketch {

namespace {

// (exp(x) - 1) / x, numerically stable near 0.
double Helper1(double x) {
  return std::abs(x) > 1e-8 ? std::expm1(x) / x : 1 + x / 2 + x * x / 6;
}

// log(1 + x) / x, numerically stable near 0.
double Helper2(double x) {
  return std::abs(x) > 1e-8 ? std::log1p(x) / x : 1 - x / 2 + x * x / 3;
}

}  // namespace

ZipfDistribution::ZipfDistribution(uint64_t num_elements, double skew)
    : num_elements_(num_elements), skew_(skew) {
  ASKETCH_CHECK(num_elements >= 1);
  ASKETCH_CHECK(skew >= 0 && std::isfinite(skew));
  if (skew_ > 0) {
    h_integral_x1_ = HIntegral(1.5) - 1;
    h_integral_num_elements_ =
        HIntegral(static_cast<double>(num_elements_) + 0.5);
    s_ = 2 - HIntegralInverse(HIntegral(2.5) - H(2));
  }
}

// H(x) = integral of x^{-skew}: ((x^{1-skew}) - 1)/(1-skew) shifted so the
// expression is stable for skew near 1 (where it tends to log(x)).
double ZipfDistribution::HIntegral(double x) const {
  const double log_x = std::log(x);
  return Helper1((1 - skew_) * log_x) * log_x;
}

double ZipfDistribution::H(double x) const {
  return std::exp(-skew_ * std::log(x));
}

double ZipfDistribution::HIntegralInverse(double x) const {
  double t = x * (1 - skew_);
  if (t < -1) t = -1;  // guard against rounding below the pole
  return std::exp(Helper2(t) * x);
}

uint64_t ZipfDistribution::Sample(Rng& rng) const {
  if (skew_ == 0) return 1 + rng.NextBounded(num_elements_);
  while (true) {
    const double u =
        h_integral_num_elements_ +
        rng.NextDouble() * (h_integral_x1_ - h_integral_num_elements_);
    const double x = HIntegralInverse(u);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    if (k < 1) {
      k = 1;
    } else if (k > num_elements_) {
      k = num_elements_;
    }
    if (static_cast<double>(k) - x <= s_ ||
        u >= HIntegral(static_cast<double>(k) + 0.5) -
                 H(static_cast<double>(k))) {
      return k;
    }
  }
}

double ZipfDistribution::Probability(uint64_t rank) const {
  ASKETCH_CHECK(rank >= 1 && rank <= num_elements_);
  if (normalizer_ == 0) {
    double sum = 0;
    for (uint64_t r = 1; r <= num_elements_; ++r) {
      sum += std::pow(static_cast<double>(r), -skew_);
    }
    normalizer_ = sum;
  }
  return std::pow(static_cast<double>(rank), -skew_) / normalizer_;
}

double ZipfDistribution::TopKMass(uint64_t k) const {
  if (k >= num_elements_) return 1.0;
  if (normalizer_ == 0) {
    Probability(1);  // populate the cached normalizer
  }
  double mass = 0;
  for (uint64_t r = 1; r <= k; ++r) {
    mass += std::pow(static_cast<double>(r), -skew_);
  }
  return mass / normalizer_;
}

}  // namespace asketch
