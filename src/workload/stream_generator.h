// Synthetic stream generation.
//
// Produces the paper's synthetic workload: a stream of `stream_size`
// tuples over `num_distinct` distinct keys whose frequencies follow a Zipf
// distribution of configurable skew. Ranks are mapped to keys through an
// affine bijection of [0, num_distinct) so that hot keys are not the small
// integers (which would make hashing look artificially good or bad), while
// keys remain dense in [0, num_distinct) so ground-truth counting can use
// a flat array.

#ifndef ASKETCH_WORKLOAD_STREAM_GENERATOR_H_
#define ASKETCH_WORKLOAD_STREAM_GENERATOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/common/types.h"
#include "src/workload/zipf.h"

namespace asketch {

/// Parameters of a synthetic Zipf stream.
struct StreamSpec {
  /// Number of tuples (N). The paper's default is 32M; the benchmark
  /// harness scales this down by default.
  uint64_t stream_size = 32u << 20;
  /// Number of distinct keys (M); the paper's default is 8M.
  uint32_t num_distinct = 8u << 20;
  /// Zipf skew z in [0, 3]; 0 = uniform.
  double skew = 1.5;
  uint64_t seed = 7;

  /// Error message if a field is out of range (skew must be finite).
  std::optional<std::string> Validate() const;

  std::string ToString() const;
};

/// Streaming generator of Zipf tuples. Deterministic for a given spec.
class ZipfStreamGenerator {
 public:
  explicit ZipfStreamGenerator(const StreamSpec& spec);

  /// Next tuple; all tuples carry value 1 (the paper's u_t = 1 setting).
  Tuple Next() {
    return Tuple{RankToKey(zipf_.Sample(rng_)), 1};
  }

  /// The key that rank r (1-based; rank 1 is the hottest) maps to.
  item_t RankToKey(uint64_t rank) const {
    ASKETCH_DCHECK(rank >= 1 && rank <= spec_.num_distinct);
    // Affine bijection of Z_M: key = (a*(rank-1) + b) mod M, gcd(a,M)=1.
    return static_cast<item_t>(
        (mult_ * (rank - 1) + offset_) % spec_.num_distinct);
  }

  const StreamSpec& spec() const { return spec_; }
  const ZipfDistribution& distribution() const { return zipf_; }

 private:
  StreamSpec spec_;
  ZipfDistribution zipf_;
  Rng rng_;
  uint64_t mult_;
  uint64_t offset_;
};

/// Materializes the whole stream described by `spec`.
std::vector<Tuple> GenerateStream(const StreamSpec& spec);

/// Materializes the stream and the exact per-key ground truth (a flat
/// array indexed by key, sized spec.num_distinct).
std::vector<Tuple> GenerateStreamWithTruth(
    const StreamSpec& spec, std::vector<wide_count_t>* truth);

}  // namespace asketch

#endif  // ASKETCH_WORKLOAD_STREAM_GENERATOR_H_
