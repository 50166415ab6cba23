// Common vocabulary for frequency estimators.
//
// Concrete sketches (CountMin, CountSketch, Fcm, ...) expose a non-virtual
// hot-path API and are composed through templates, so updates and queries
// inline fully. The concept below is the contract ASketch's sketch
// parameter is constrained on.

#ifndef ASKETCH_SKETCH_FREQUENCY_ESTIMATOR_H_
#define ASKETCH_SKETCH_FREQUENCY_ESTIMATOR_H_

#include <concepts>
#include <cstddef>

#include "src/common/types.h"

namespace asketch {

/// Compile-time contract satisfied by every concrete estimator in the
/// library. `Update` applies a signed delta (negative deltas model
/// deletions under the strict-turnstile assumption); `Estimate` returns the
/// approximate frequency of `key`.
template <typename T>
concept FrequencyEstimatorType =
    requires(T t, const T ct, item_t key, delta_t delta) {
      { t.Update(key, delta) };
      { ct.Estimate(key) } -> std::convertible_to<count_t>;
      { ct.MemoryUsageBytes() } -> std::convertible_to<size_t>;
      { t.Reset() };
    };

}  // namespace asketch

#endif  // ASKETCH_SKETCH_FREQUENCY_ESTIMATOR_H_
