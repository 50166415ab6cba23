// Common vocabulary for frequency estimators.
//
// Concrete sketches (CountMin, CountSketch, Fcm, ...) expose a non-virtual
// hot-path API and are composed through templates, so updates and queries
// inline fully. FrequencyEstimatorType is what every estimator offers;
// SketchBackendType adds what ASketch's sketch parameter needs.

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

/// ASketch's sketch parameter: a FrequencyEstimatorType with the fused
/// insert-then-query of Algorithm 1's lines 7-9, which hashes the key
/// once. CountMin, CountSketch, Fcm and SalsaCountMin all provide it.
template <typename T>
concept SketchBackendType =
    FrequencyEstimatorType<T> && requires(T t, item_t key, delta_t delta) {
      { t.UpdateAndEstimate(key, delta) } -> std::same_as<count_t>;
    };

}  // namespace asketch

#endif  // ASKETCH_SKETCH_FREQUENCY_ESTIMATOR_H_
