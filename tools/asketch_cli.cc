// asketch_cli: build, query, and merge ASketch synopses offline.
//
//   asketch_cli build <stream.ask> <synopsis.as> [--bytes N] [--width W]
//                     [--filter F] [--seed S]
//       Consume a binary stream file (see make_stream) into an ASketch
//       and serialize the synopsis.
//
//   asketch_cli query <synopsis.as> <key> [key...]
//       Print frequency estimates for the given keys.
//
//   asketch_cli topk <synopsis.as>
//       Print the filter's heavy-hitter report.
//
//   asketch_cli stats <synopsis.as> [--json]
//       Print size, selectivity, and exchange statistics (--json emits
//       them as one JSON object).
//
//   asketch_cli merge <a.as> <b.as> <out.as>
//       Merge two synopses built with identical parameters.
//
// Durable, observable serving is asketchd's job (docs/OPERATIONS.md):
// it owns the snapshot store (--prefix/--recover) and the telemetry
// endpoints (--metrics-port).
//
// The synopsis on disk is the library's binary serialization of
// ASketch<RelaxedHeapFilter, CountMin>; synopsis files are published
// atomically (temp file + fsync + rename). Every failure path exits
// nonzero: 2 for usage errors, 1 for runtime failures.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/common/serialize.h"
#include "src/common/snapshot.h"
#include "src/core/asketch.h"
#include "src/workload/dataset_io.h"

namespace {

using namespace asketch;
using CliSketch = ASketch<RelaxedHeapFilter, CountMin>;

constexpr size_t kBlockTuples = 1 << 16;

void Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  asketch_cli build <stream.ask> <synopsis.as> "
      "[--bytes N] [--width W] [--filter F] [--seed S]\n"
      "  asketch_cli query <synopsis.as> <key> [key...]\n"
      "  asketch_cli topk  <synopsis.as>\n"
      "  asketch_cli stats <synopsis.as> [--json]\n"
      "  asketch_cli merge <a.as> <b.as> <out.as>\n");
}

/// Strict decimal parse; false on empty/trailing-garbage/overflow input.
bool ParseU64(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

std::optional<CliSketch> LoadSynopsis(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  BinaryReader reader(f);
  auto sketch = CliSketch::DeserializeFrom(reader);
  std::fclose(f);
  if (!sketch.has_value()) {
    std::fprintf(stderr, "%s is not a valid ASketch synopsis\n",
                 path.c_str());
  }
  return sketch;
}

bool SaveSynopsis(const CliSketch& sketch, const std::string& path) {
  BinaryWriter writer;
  if (!sketch.SerializeTo(writer)) {
    std::fprintf(stderr, "serialization failed for %s\n", path.c_str());
    return false;
  }
  // Atomic publication: a crash mid-write can never leave a torn
  // synopsis under the final name.
  if (const auto error = WriteFileAtomic(path, writer.buffer())) {
    std::fprintf(stderr, "write failed: %s\n", error->c_str());
    return false;
  }
  return true;
}

/// Parses build's flags into `config` (defaults: 128 KiB, width 8,
/// 32 filter slots). Both `--flag value` and `--flag=value` are accepted.
bool ParseBuildFlags(int argc, char** argv, int first,
                     ASketchConfig* config) {
  config->total_bytes = 128 * 1024;
  config->width = 8;
  config->filter_items = 32;
  for (int i = first; i < argc; ++i) {
    std::string flag = argv[i];
    std::string inline_value;
    bool has_inline_value = false;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag.resize(eq);
      has_inline_value = true;
    }
    const char* value = inline_value.c_str();
    if (!has_inline_value) {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    uint64_t parsed = 0;
    if (!ParseU64(value, &parsed)) return false;
    if (flag == "--bytes") {
      config->total_bytes = parsed;
    } else if (flag == "--width") {
      if (parsed > UINT32_MAX) return false;
      config->width = static_cast<uint32_t>(parsed);
    } else if (flag == "--filter") {
      if (parsed > UINT32_MAX) return false;
      config->filter_items = static_cast<uint32_t>(parsed);
    } else if (flag == "--seed") {
      config->seed = parsed;
    } else {
      return false;
    }
  }
  return true;
}

int CmdBuild(int argc, char** argv) {
  if (argc < 4) {
    Usage();
    return 2;
  }
  const std::string stream_path = argv[2];
  const std::string out_path = argv[3];
  ASketchConfig config;
  if (!ParseBuildFlags(argc, argv, 4, &config)) {
    Usage();
    return 2;
  }
  if (const auto error = config.Validate()) {
    std::fprintf(stderr, "invalid config: %s\n", error->c_str());
    Usage();
    return 2;
  }
  // Stream the file in fixed-size blocks through the batched ingestion
  // path: bounded memory regardless of trace size, and each block gets
  // the chunked SIMD filter probes + sketch prefetching of UpdateBatch.
  StreamFileReader reader;
  if (const auto error = reader.Open(stream_path)) {
    std::fprintf(stderr, "read failed: %s\n", error->c_str());
    return 1;
  }
  CliSketch sketch = MakeASketchCountMin<RelaxedHeapFilter>(config);
  std::vector<Tuple> block;
  uint64_t ingested = 0;
  while (true) {
    if (const auto error = reader.ReadBlock(kBlockTuples, &block)) {
      std::fprintf(stderr, "read failed: %s\n", error->c_str());
      return 1;
    }
    if (block.empty()) break;
    sketch.UpdateBatch(block);
    ingested += block.size();
  }
  if (!SaveSynopsis(sketch, out_path)) return 1;
  std::fprintf(stderr,
               "built %zu-byte synopsis from %llu tuples "
               "(selectivity %.3f, %llu exchanges)\n",
               sketch.MemoryUsageBytes(),
               static_cast<unsigned long long>(ingested),
               sketch.stats().FilterSelectivity(),
               static_cast<unsigned long long>(sketch.stats().exchanges));
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 4) {
    Usage();
    return 2;
  }
  auto sketch = LoadSynopsis(argv[2]);
  if (!sketch.has_value()) return 1;
  for (int i = 3; i < argc; ++i) {
    uint64_t key = 0;
    if (!ParseU64(argv[i], &key) || key > ~item_t{0}) {
      std::fprintf(stderr, "invalid key: %s\n", argv[i]);
      return 2;
    }
    std::printf("%u\t%u\n", static_cast<item_t>(key),
                sketch->Estimate(static_cast<item_t>(key)));
  }
  return 0;
}

int CmdTopK(int argc, char** argv) {
  if (argc != 3) {
    Usage();
    return 2;
  }
  auto sketch = LoadSynopsis(argv[2]);
  if (!sketch.has_value()) return 1;
  std::printf("%-12s %-12s %-12s\n", "key", "estimate", "exact_hits");
  for (const FilterEntry& e : sketch->TopK()) {
    std::printf("%-12u %-12u %-12u\n", e.key, e.new_count,
                e.new_count - e.old_count);
  }
  return 0;
}

/// The synopsis stats as one JSON object (`stats --json`).
std::string RenderSynopsisStatsJson(const CliSketch& sketch) {
  const ASketchStats& stats = sketch.stats();
  char buffer[640];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"synopsis\":\"%s\",\"memory_bytes\":%zu,\"sketch_rows\":%u,"
      "\"sketch_depth\":%u,\"filter_capacity\":%u,"
      "\"filter_occupancy\":%u,\"filtered_weight\":%llu,"
      "\"sketch_weight\":%llu,\"filter_selectivity\":%.6f,"
      "\"exchanges\":%llu,\"exchange_writebacks\":%llu,"
      "\"sketch_updates\":%llu}\n",
      sketch.Name().c_str(), sketch.MemoryUsageBytes(),
      sketch.sketch().width(), sketch.sketch().depth(),
      sketch.filter().capacity(), sketch.filter().size(),
      static_cast<unsigned long long>(stats.filtered_weight),
      static_cast<unsigned long long>(stats.sketch_weight),
      stats.FilterSelectivity(),
      static_cast<unsigned long long>(stats.exchanges),
      static_cast<unsigned long long>(stats.exchange_writebacks),
      static_cast<unsigned long long>(stats.sketch_updates));
  return buffer;
}

int CmdStats(int argc, char** argv) {
  const bool json = argc == 4 && std::strcmp(argv[3], "--json") == 0;
  if (argc != 3 && !json) {
    Usage();
    return 2;
  }
  auto sketch = LoadSynopsis(argv[2]);
  if (!sketch.has_value()) return 1;
  if (json) {
    std::fputs(RenderSynopsisStatsJson(*sketch).c_str(), stdout);
    return 0;
  }
  const ASketchStats& stats = sketch->stats();
  std::printf("synopsis            %s\n", sketch->Name().c_str());
  std::printf("memory bytes        %zu\n", sketch->MemoryUsageBytes());
  std::printf("sketch rows (w)     %u\n", sketch->sketch().width());
  std::printf("sketch depth (h')   %u\n", sketch->sketch().depth());
  std::printf("filter capacity     %u\n", sketch->filter().capacity());
  std::printf("filter occupancy    %u\n", sketch->filter().size());
  std::printf("filtered weight     %llu\n",
              static_cast<unsigned long long>(stats.filtered_weight));
  std::printf("sketch weight       %llu\n",
              static_cast<unsigned long long>(stats.sketch_weight));
  std::printf("filter selectivity  %.4f\n", stats.FilterSelectivity());
  std::printf("exchanges           %llu\n",
              static_cast<unsigned long long>(stats.exchanges));
  return 0;
}

int CmdMerge(int argc, char** argv) {
  if (argc != 5) {
    Usage();
    return 2;
  }
  auto a = LoadSynopsis(argv[2]);
  auto b = LoadSynopsis(argv[3]);
  if (!a.has_value() || !b.has_value()) return 1;
  if (const auto error = a->MergeFrom(*b)) {
    std::fprintf(stderr, "merge failed: %s\n", error->c_str());
    return 1;
  }
  if (!SaveSynopsis(*a, argv[4])) return 1;
  std::fprintf(stderr, "merged synopsis written to %s\n", argv[4]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "build") return CmdBuild(argc, argv);
  if (command == "query") return CmdQuery(argc, argv);
  if (command == "topk") return CmdTopK(argc, argv);
  if (command == "stats") return CmdStats(argc, argv);
  if (command == "merge") return CmdMerge(argc, argv);
  Usage();
  return 2;
}
