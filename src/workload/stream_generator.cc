#include "src/workload/stream_generator.h"

#include <cmath>
#include <numeric>
#include <sstream>

#include "src/common/bit_util.h"

namespace asketch {

std::optional<std::string> StreamSpec::Validate() const {
  if (stream_size < 1) return std::string("stream_size must be >= 1");
  if (num_distinct < 1) return std::string("num_distinct must be >= 1");
  if (!(skew >= 0) || !std::isfinite(skew)) {
    return std::string("skew must be finite and >= 0");
  }
  return std::nullopt;
}

std::string StreamSpec::ToString() const {
  std::ostringstream os;
  os << "StreamSpec{n=" << stream_size << ", m=" << num_distinct
     << ", skew=" << skew << ", seed=" << seed << "}";
  return os.str();
}

ZipfStreamGenerator::ZipfStreamGenerator(const StreamSpec& spec)
    : spec_(spec),
      zipf_(spec.num_distinct, spec.skew),
      rng_(spec.seed) {
  ASKETCH_CHECK(!spec.Validate().has_value());
  // Derive an odd-ish multiplier coprime with M from the seed; fall back
  // to 1 for degenerate domains.
  const uint64_t m = spec_.num_distinct;
  uint64_t candidate = (Mix64(spec_.seed) % m) | 1;
  while (std::gcd(candidate, m) != 1) {
    candidate = (candidate + 2) % m;
    if (candidate == 0) candidate = 1;
  }
  mult_ = m == 1 ? 1 : candidate;
  offset_ = Mix64(spec_.seed ^ 0xdeadbeefULL) % m;
}

std::vector<Tuple> GenerateStream(const StreamSpec& spec) {
  ZipfStreamGenerator gen(spec);
  std::vector<Tuple> stream;
  stream.reserve(spec.stream_size);
  for (uint64_t i = 0; i < spec.stream_size; ++i) {
    stream.push_back(gen.Next());
  }
  return stream;
}

std::vector<Tuple> GenerateStreamWithTruth(
    const StreamSpec& spec, std::vector<wide_count_t>* truth) {
  ASKETCH_CHECK(truth != nullptr);
  truth->assign(spec.num_distinct, 0);
  ZipfStreamGenerator gen(spec);
  std::vector<Tuple> stream;
  stream.reserve(spec.stream_size);
  for (uint64_t i = 0; i < spec.stream_size; ++i) {
    const Tuple t = gen.Next();
    (*truth)[t.key] += t.value;
    stream.push_back(t);
  }
  return stream;
}

}  // namespace asketch
