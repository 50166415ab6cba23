// make_stream: generate a binary tuple stream file for asketch_cli.
//
//   make_stream <out.ask> [--n TUPLES] [--m DISTINCT] [--skew Z]
//               [--seed S] [--trace ip|kosarak] [--scale X]
//
// Either a raw Zipf spec (--n/--m/--skew) or one of the simulated
// real-world trace shapes (--trace, optionally scaled with --scale).

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/workload/dataset_io.h"
#include "src/workload/stream_generator.h"
#include "src/workload/trace_simulators.h"

namespace {

/// Prints the usage text; returns the usage exit status.
int Usage() {
  std::fprintf(
      stderr,
      "usage: make_stream <out.ask> [--n TUPLES] [--m DISTINCT]\n"
      "                   [--skew Z] [--seed S]\n"
      "                   [--trace ip|kosarak] [--scale X]\n");
  return 2;
}

/// Whole-string base-10 parse; false on junk, overflow or an empty value.
bool ParseU64(const char* text, uint64_t* out) {
  if (*text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

/// Whole-string strtod parse; false on junk, overflow or an empty value.
/// NaN and infinities parse; the caller range-checks them.
bool ParseDouble(const char* text, double* out) {
  if (*text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace asketch;
  // An output path that looks like a flag (--help included) is a usage
  // error, not a file to create.
  if (argc < 2 || argv[1][0] == '-') return Usage();
  const std::string out_path = argv[1];
  StreamSpec spec;
  spec.stream_size = 1'000'000;
  spec.num_distinct = 100'000;
  spec.skew = 1.5;
  spec.seed = 7;
  std::string trace;
  double trace_scale = 0.01;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 == argc) return Usage();  // a flag with no value
    const char* value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--n") {
      if (!ParseU64(value, &n)) return Usage();
      spec.stream_size = n;
    } else if (flag == "--m") {
      if (!ParseU64(value, &n) || n > UINT32_MAX) return Usage();
      spec.num_distinct = static_cast<uint32_t>(n);
    } else if (flag == "--skew") {
      // Range (finite, >= 0) is StreamSpec::Validate's job below.
      if (!ParseDouble(value, &spec.skew)) return Usage();
    } else if (flag == "--seed") {
      if (!ParseU64(value, &n)) return Usage();
      spec.seed = n;
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--scale") {
      if (!ParseDouble(value, &trace_scale) || !(trace_scale > 0) ||
          !std::isfinite(trace_scale)) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (trace == "ip") {
    spec = IpTraceLikeSpec(trace_scale, spec.seed);
  } else if (trace == "kosarak") {
    spec = KosarakLikeSpec(trace_scale, spec.seed);
  } else if (!trace.empty()) {
    std::fprintf(stderr, "unknown trace '%s'\n", trace.c_str());
    return 2;
  }
  if (const auto error = spec.Validate()) {
    std::fprintf(stderr, "invalid spec: %s\n", error->c_str());
    return 2;
  }
  std::fprintf(stderr, "generating %s ...\n", spec.ToString().c_str());
  const std::vector<Tuple> stream = GenerateStream(spec);
  if (const auto error = WriteStreamFile(out_path, stream)) {
    std::fprintf(stderr, "write failed: %s\n", error->c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu tuples to %s\n", stream.size(),
               out_path.c_str());
  return 0;
}
