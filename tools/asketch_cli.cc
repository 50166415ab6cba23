// asketch_cli: build, persist, checkpoint, and query ASketch synopses
// from the command line.
//
//   asketch_cli build <stream.ask> <synopsis.as> [--bytes N] [--width W]
//                     [--filter F] [--seed S]
//       Consume a binary stream file (see make_stream) into an ASketch
//       and serialize the synopsis.
//
//   asketch_cli checkpoint <stream.ask> <prefix> [build flags]
//                          [--every N] [--retain K] [--recover]
//       Like build, but persist a crash-consistent snapshot (see
//       src/common/snapshot.h) under <prefix>.<gen>.snap every N tuples
//       and at the end, keeping the last K generations. With --recover,
//       resume from the newest intact checkpoint instead of starting
//       over: the run re-reads the stream, skips the tuples already
//       ingested, and continues. After every save the process re-adopts
//       its own checkpoint, so the in-memory trajectory is a
//       deterministic function of (stream, interval) and a recovered run
//       produces a bit-identical final synopsis to an uninterrupted one.
//
//   asketch_cli restore <prefix> <synopsis.as>
//       Extract the newest intact checkpoint into a plain synopsis file
//       usable by query/topk/stats.
//
//   asketch_cli recover <prefix>
//       Report which checkpoint generation would be recovered (and how
//       many newer, corrupt generations would be skipped).
//
//   asketch_cli query <synopsis.as> <key> [key...]
//       Print frequency estimates for the given keys.
//
//   asketch_cli topk <synopsis.as>
//       Print the filter's heavy-hitter report.
//
//   asketch_cli stats <synopsis.as> [--json]
//       Print size, selectivity, and exchange statistics (--json emits
//       the same fields as the serve-metrics /stats endpoint).
//
//   asketch_cli merge <a.as> <b.as> <out.as>
//       Merge two synopses built with identical parameters.
//
//   asketch_cli serve-metrics <stream.ask> <prefix> [checkpoint flags]
//                             [--port P] [--linger-ms L]
//       Run a checkpoint ingest with a live telemetry HTTP server on
//       127.0.0.1:P (0 = ephemeral, printed at startup). Endpoints:
//       /metrics (Prometheus text), /metrics.json, /stats (synopsis
//       stats JSON), /trace.json. With --linger-ms the server stays up
//       that long after ingestion finishes.
//
//   asketch_cli trace <stream.ask> <trace.json> [build flags]
//       Build with span tracing enabled and write the collected events
//       as Chrome/Perfetto trace_event JSON (chrome://tracing).
//
// build/checkpoint/serve-metrics also accept --metrics-out <file>: the
// final telemetry registry is written there as Prometheus text.
//
// Checkpoints embed the telemetry registry (counters + histograms), so a
// --recover run continues its cumulative metrics instead of resetting
// them to the post-crash partial counts. Both checkpoint payload formats
// are readable: "CKP2" (tuple count + sketch + metrics record) is
// written; legacy "CKP1" (no metrics) is still accepted.
//
// The synopsis on disk is the library's binary serialization of
// ASketch<RelaxedHeapFilter, CountMin>; synopsis files are published
// atomically (temp file + fsync + rename). Every failure path exits
// nonzero: 2 for usage errors, 1 for runtime failures.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/serialize.h"
#include "src/common/snapshot.h"
#include "src/core/asketch.h"
#include "src/obs/core_metrics.h"
#include "src/obs/export.h"
#include "src/obs/http_exporter.h"
#include "src/obs/metrics.h"
#include "src/obs/metrics_persist.h"
#include "src/obs/trace.h"
#include "src/workload/dataset_io.h"

namespace {

using namespace asketch;
using CliSketch = ASketch<RelaxedHeapFilter, CountMin>;

/// Snapshot payload tags for CLI checkpoints. Application tags live
/// outside the library's 0x41 composed-tag namespace.
///
/// "CKP1": u64 ingested-tuple count + CliSketch blob (legacy, read-only).
/// "CKP2": CKP1 layout followed by a telemetry metrics record
///         (src/obs/metrics_persist.h) — what this binary writes.
constexpr uint32_t kCliCheckpointTag = 0x31504b43u;    // "CKP1"
constexpr uint32_t kCliCheckpointTagV2 = 0x32504b43u;  // "CKP2"

constexpr size_t kBlockTuples = 1 << 16;

void Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  asketch_cli build <stream.ask> <synopsis.as> "
      "[--bytes N] [--width W] [--filter F] [--seed S] "
      "[--metrics-out <file>]\n"
      "  asketch_cli checkpoint <stream.ask> <prefix> [build flags] "
      "[--every N] [--retain K] [--recover]\n"
      "  asketch_cli restore <prefix> <synopsis.as>\n"
      "  asketch_cli recover <prefix>\n"
      "  asketch_cli query <synopsis.as> <key> [key...]\n"
      "  asketch_cli topk  <synopsis.as>\n"
      "  asketch_cli stats <synopsis.as> [--json]\n"
      "  asketch_cli merge <a.as> <b.as> <out.as>\n"
      "  asketch_cli serve-metrics <stream.ask> <prefix> "
      "[checkpoint flags] [--port P] [--linger-ms L]\n"
      "  asketch_cli trace <stream.ask> <trace.json> [build flags]\n");
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

std::vector<uint8_t> EncodeCheckpoint(const CliSketch& sketch,
                                      uint64_t ingested) {
  BinaryWriter writer;
  writer.Reserve(sizeof(uint64_t) + sketch.MemoryUsageBytes());
  writer.PutU64(ingested);
  sketch.SerializeTo(writer);
  // CKP2: the telemetry registry rides along so a recovered run keeps
  // its cumulative counters.
  obs::SerializeMetricsTo(obs::MetricsRegistry::Global(), writer);
  return writer.buffer();
}

/// Decodes a CKP1 or CKP2 payload (selected by `tag`). For CKP2,
/// `apply_metrics` controls whether the embedded metrics record is merged
/// into the live registry — true only on the recovery path; the
/// SaveAndReload re-adoption must NOT re-apply a record that describes
/// counts the process already holds.
std::optional<CliSketch> DecodeCheckpoint(
    const std::vector<uint8_t>& payload, uint32_t tag, uint64_t* ingested,
    bool apply_metrics) {
  BinaryReader reader(payload.data(), payload.size());
  if (!reader.GetU64(ingested)) return std::nullopt;
  auto sketch = CliSketch::DeserializeFrom(reader);
  if (!sketch.has_value()) return std::nullopt;
  if (tag == kCliCheckpointTagV2 && apply_metrics) {
    if (!obs::RestoreMetricsInto(obs::MetricsRegistry::Global(), reader)) {
      // The envelope CRC already vouched for the bytes, so a parse
      // failure means a writer/reader mismatch; the sketch itself is
      // intact, so warn and continue rather than fail the recovery.
      std::fprintf(stderr,
                   "warning: checkpoint metrics record not restored\n");
    }
  }
  return sketch;
}

/// Loads the newest intact checkpoint, preferring the CKP2 format and
/// falling back to legacy CKP1 stores. `tag` reports which format the
/// returned payload uses.
std::optional<SnapshotStore::Loaded> LoadCheckpoint(
    const SnapshotStore& store, uint32_t* tag, std::string* error) {
  if (auto loaded = store.Load(kCliCheckpointTagV2, error)) {
    *tag = kCliCheckpointTagV2;
    return loaded;
  }
  std::string legacy_error;
  if (auto loaded = store.Load(kCliCheckpointTag, &legacy_error)) {
    *tag = kCliCheckpointTag;
    return loaded;
  }
  return std::nullopt;  // report the V2 attempt's error
}

/// Persists a checkpoint and re-adopts the just-written state, so every
/// run — clean or recovered — continues from the same (deserialization-
/// normalized) filter layout. See the checkpoint section of the file
/// comment.
bool SaveAndReload(SnapshotStore& store, uint64_t ingested,
                   std::optional<CliSketch>* sketch) {
  const std::vector<uint8_t> payload = EncodeCheckpoint(**sketch, ingested);
  if (const auto error = store.Save(kCliCheckpointTagV2, payload)) {
    std::fprintf(stderr, "checkpoint failed: %s\n", error->c_str());
    return false;
  }
  uint64_t check = 0;
  auto reloaded = DecodeCheckpoint(payload, kCliCheckpointTagV2, &check,
                                   /*apply_metrics=*/false);
  if (!reloaded.has_value() || check != ingested) {
    std::fprintf(stderr, "checkpoint round-trip failed at %llu tuples\n",
                 static_cast<unsigned long long>(ingested));
    return false;
  }
  *sketch = std::move(reloaded);
  return true;
}

/// Writes the live registry as Prometheus text to `path` (for
/// --metrics-out). Empty path is a no-op.
bool DumpMetricsTo(const std::string& path) {
  if (path.empty()) return true;
  const std::string text =
      obs::RenderPrometheusText(obs::MetricsRegistry::Global().Collect());
  const std::vector<uint8_t> bytes(text.begin(), text.end());
  if (const auto error = WriteFileAtomic(path, bytes)) {
    std::fprintf(stderr, "metrics write failed: %s\n", error->c_str());
    return false;
  }
  return true;
}

/// Parsed flag set shared by build, checkpoint, and serve-metrics.
struct BuildFlags {
  ASketchConfig config;
  uint64_t every = 1 << 20;
  uint64_t retain = 3;
  bool recover = false;
  std::string metrics_out;  ///< --metrics-out: Prometheus dump path
  uint64_t port = 0;        ///< --port (serve-metrics; 0 = ephemeral)
  uint64_t linger_ms = 0;   ///< --linger-ms (serve-metrics)
};

bool ParseBuildFlags(int argc, char** argv, int first,
                     bool allow_checkpoint_flags, BuildFlags* flags,
                     bool allow_serve_flags = false) {
  flags->config.total_bytes = 128 * 1024;
  flags->config.width = 8;
  flags->config.filter_items = 32;
  for (int i = first; i < argc; ++i) {
    std::string flag = argv[i];
    // Both `--flag value` and `--flag=value` spellings are accepted.
    std::string inline_value;
    bool has_inline_value = false;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag.resize(eq);
      has_inline_value = true;
    }
    if (allow_checkpoint_flags && flag == "--recover") {
      if (has_inline_value) return false;
      flags->recover = true;
      continue;
    }
    const char* value = inline_value.c_str();
    if (!has_inline_value) {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    if (flag == "--metrics-out") {
      flags->metrics_out = value;
      continue;
    }
    uint64_t parsed = 0;
    if (!ParseU64(value, &parsed)) return false;
    if (flag == "--bytes") {
      flags->config.total_bytes = parsed;
    } else if (flag == "--width") {
      if (parsed > UINT32_MAX) return false;
      flags->config.width = static_cast<uint32_t>(parsed);
    } else if (flag == "--filter") {
      if (parsed > UINT32_MAX) return false;
      flags->config.filter_items = static_cast<uint32_t>(parsed);
    } else if (flag == "--seed") {
      flags->config.seed = parsed;
    } else if (allow_checkpoint_flags && flag == "--every") {
      if (parsed == 0) return false;
      flags->every = parsed;
    } else if (allow_checkpoint_flags && flag == "--retain") {
      if (parsed == 0 || parsed > UINT32_MAX) return false;
      flags->retain = parsed;
    } else if (allow_serve_flags && flag == "--port") {
      if (parsed > 65535) return false;
      flags->port = parsed;
    } else if (allow_serve_flags && flag == "--linger-ms") {
      flags->linger_ms = parsed;
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
  BuildFlags flags;
  if (!ParseBuildFlags(argc, argv, 4, /*allow_checkpoint_flags=*/false,
                       &flags)) {
    Usage();
    return 2;
  }
  if (const auto error = flags.config.Validate()) {
    std::fprintf(stderr, "invalid config: %s\n", error->c_str());
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
  CliSketch sketch = MakeASketchCountMin<RelaxedHeapFilter>(flags.config);
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
  if (!DumpMetricsTo(flags.metrics_out)) return 1;
  return 0;
}

/// The checkpoint ingest core shared by `checkpoint` and
/// `serve-metrics`. When `live_mutex` is non-null it is held across
/// every mutation of *sketch (block ingest, checkpoint re-adoption), so
/// concurrent HTTP handlers may read the sketch under the same mutex at
/// block granularity.
int RunCheckpointIngest(const std::string& stream_path,
                        const std::string& prefix, const BuildFlags& flags,
                        std::mutex* live_mutex,
                        std::optional<CliSketch>* sketch_out,
                        uint64_t* ingested_out) {
  SnapshotStore store(prefix, static_cast<uint32_t>(flags.retain));
  uint64_t ingested = 0;
  std::optional<CliSketch>& sketch = *sketch_out;
  if (flags.recover) {
    std::string error;
    uint32_t tag = 0;
    if (auto loaded = LoadCheckpoint(store, &tag, &error)) {
      // The embedded metrics record is merged here — the one place a
      // checkpoint's telemetry describes work this process hasn't
      // already counted.
      auto recovered = DecodeCheckpoint(loaded->payload, tag, &ingested,
                                        /*apply_metrics=*/true);
      if (!recovered.has_value()) {
        std::fprintf(stderr,
                     "generation %llu passed checksum but is not an "
                     "ASketch checkpoint\n",
                     static_cast<unsigned long long>(loaded->generation));
        return 1;
      }
      if (live_mutex != nullptr) {
        std::lock_guard<std::mutex> lock(*live_mutex);
        sketch = std::move(recovered);
      } else {
        sketch = std::move(recovered);
      }
      std::fprintf(stderr,
                   "recovered generation %llu (%u corrupt generation(s) "
                   "skipped), %llu tuples already ingested\n",
                   static_cast<unsigned long long>(loaded->generation),
                   loaded->generations_skipped,
                   static_cast<unsigned long long>(ingested));
    } else {
      std::fprintf(stderr, "starting fresh: %s\n", error.c_str());
    }
  }
  StreamFileReader reader;
  if (const auto error = reader.Open(stream_path)) {
    std::fprintf(stderr, "read failed: %s\n", error->c_str());
    return 1;
  }
  std::vector<Tuple> block;
  // Fast-forward past the tuples the recovered checkpoint already covers.
  uint64_t to_skip = ingested;
  while (to_skip > 0) {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(kBlockTuples, to_skip));
    if (const auto error = reader.ReadBlock(want, &block)) {
      std::fprintf(stderr, "read failed: %s\n", error->c_str());
      return 1;
    }
    if (block.empty()) {
      std::fprintf(stderr,
                   "stream %s is shorter than the recovered checkpoint "
                   "(%llu tuples)\n",
                   stream_path.c_str(),
                   static_cast<unsigned long long>(ingested));
      return 1;
    }
    to_skip -= block.size();
  }
  // Ingest, splitting blocks at checkpoint boundaries so every run
  // checkpoints at exactly the same tuple counts.
  uint64_t saved_at = flags.recover ? ingested : ~uint64_t{0};
  uint64_t next_checkpoint = (ingested / flags.every + 1) * flags.every;
  while (true) {
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(kBlockTuples, next_checkpoint - ingested));
    if (const auto error = reader.ReadBlock(want, &block)) {
      std::fprintf(stderr, "read failed: %s\n", error->c_str());
      return 1;
    }
    if (block.empty()) break;
    {
      std::unique_lock<std::mutex> lock;
      if (live_mutex != nullptr) {
        lock = std::unique_lock<std::mutex>(*live_mutex);
      }
      sketch->UpdateBatch(block);
      ingested += block.size();
      if (ingested == next_checkpoint) {
        if (!SaveAndReload(store, ingested, &sketch)) return 1;
        saved_at = ingested;
        next_checkpoint += flags.every;
      }
    }
  }
  if (saved_at != ingested) {
    std::unique_lock<std::mutex> lock;
    if (live_mutex != nullptr) {
      lock = std::unique_lock<std::mutex>(*live_mutex);
    }
    if (!SaveAndReload(store, ingested, &sketch)) return 1;
  }
  std::fprintf(stderr,
               "checkpointed %llu tuples under %s (generation %llu)\n",
               static_cast<unsigned long long>(ingested), prefix.c_str(),
               static_cast<unsigned long long>(store.LatestGeneration()));
  *ingested_out = ingested;
  return 0;
}

int CmdCheckpoint(int argc, char** argv) {
  if (argc < 4) {
    Usage();
    return 2;
  }
  const std::string stream_path = argv[2];
  const std::string prefix = argv[3];
  BuildFlags flags;
  if (!ParseBuildFlags(argc, argv, 4, /*allow_checkpoint_flags=*/true,
                       &flags)) {
    Usage();
    return 2;
  }
  if (const auto error = flags.config.Validate()) {
    std::fprintf(stderr, "invalid config: %s\n", error->c_str());
    return 2;
  }
  std::optional<CliSketch> sketch =
      MakeASketchCountMin<RelaxedHeapFilter>(flags.config);
  uint64_t ingested = 0;
  const int rc = RunCheckpointIngest(stream_path, prefix, flags,
                                     /*live_mutex=*/nullptr, &sketch,
                                     &ingested);
  if (rc != 0) return rc;
  if (!DumpMetricsTo(flags.metrics_out)) return 1;
  return 0;
}

int CmdRestore(int argc, char** argv) {
  if (argc != 4) {
    Usage();
    return 2;
  }
  SnapshotStore store(argv[2]);
  std::string error;
  uint32_t tag = 0;
  const auto loaded = LoadCheckpoint(store, &tag, &error);
  if (!loaded.has_value()) {
    std::fprintf(stderr, "restore failed: %s\n", error.c_str());
    return 1;
  }
  uint64_t ingested = 0;
  // Extraction only re-publishes the sketch; the embedded metrics
  // describe the checkpointing process, not this one.
  const auto sketch = DecodeCheckpoint(loaded->payload, tag, &ingested,
                                       /*apply_metrics=*/false);
  if (!sketch.has_value()) {
    std::fprintf(stderr,
                 "generation %llu passed checksum but is not an ASketch "
                 "checkpoint\n",
                 static_cast<unsigned long long>(loaded->generation));
    return 1;
  }
  if (!SaveSynopsis(*sketch, argv[3])) return 1;
  std::fprintf(stderr,
               "restored generation %llu (%llu tuples) to %s\n",
               static_cast<unsigned long long>(loaded->generation),
               static_cast<unsigned long long>(ingested), argv[3]);
  return 0;
}

int CmdRecover(int argc, char** argv) {
  if (argc != 3) {
    Usage();
    return 2;
  }
  SnapshotStore store(argv[2]);
  std::string error;
  uint32_t tag = 0;
  const auto loaded = LoadCheckpoint(store, &tag, &error);
  if (!loaded.has_value()) {
    std::fprintf(stderr, "nothing to recover: %s\n", error.c_str());
    return 1;
  }
  uint64_t ingested = 0;
  if (!DecodeCheckpoint(loaded->payload, tag, &ingested,
                        /*apply_metrics=*/false)
           .has_value()) {
    std::fprintf(stderr,
                 "generation %llu passed checksum but is not an ASketch "
                 "checkpoint\n",
                 static_cast<unsigned long long>(loaded->generation));
    return 1;
  }
  std::printf("generation %llu\nskipped %u\ningested %llu\n",
              static_cast<unsigned long long>(loaded->generation),
              loaded->generations_skipped,
              static_cast<unsigned long long>(ingested));
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

/// The synopsis-stats JSON shape shared by `stats --json` and the
/// serve-metrics /stats endpoint.
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

int CmdServeMetrics(int argc, char** argv) {
  if (argc < 4) {
    Usage();
    return 2;
  }
  const std::string stream_path = argv[2];
  const std::string prefix = argv[3];
  BuildFlags flags;
  if (!ParseBuildFlags(argc, argv, 4, /*allow_checkpoint_flags=*/true,
                       &flags, /*allow_serve_flags=*/true)) {
    Usage();
    return 2;
  }
  if (const auto error = flags.config.Validate()) {
    std::fprintf(stderr, "invalid config: %s\n", error->c_str());
    return 2;
  }
  if (!obs::TelemetryCompiledIn()) {
    std::fprintf(stderr,
                 "warning: built with ASKETCH_NO_TELEMETRY; endpoints "
                 "will serve empty metrics\n");
  }
  // Record spans too, so /trace.json shows the ingest/checkpoint timeline.
  obs::TraceRegistry::Global().SetEnabled(true);
#ifndef ASKETCH_NO_TELEMETRY
  // Pre-register the pipeline family so its series (shed weight, degraded,
  // worker-dead) are present in the exposition even before any
  // PipelineASketch runs in this process; per-instance queue-depth gauges
  // appear as pipelines come up.
  (void)obs::PipelineMetrics::Get();
  (void)obs::SnapshotMetrics::Get();
#endif

  std::optional<CliSketch> sketch =
      MakeASketchCountMin<RelaxedHeapFilter>(flags.config);
  std::mutex sketch_mutex;

  obs::MetricsHttpServer server;
  server.AddHandler("/metrics", "text/plain; version=0.0.4", [] {
    return obs::RenderPrometheusText(
        obs::MetricsRegistry::Global().Collect());
  });
  server.AddHandler("/metrics.json", "application/json", [] {
    return obs::RenderMetricsJson(
        obs::MetricsRegistry::Global().Collect());
  });
  server.AddHandler("/stats", "application/json",
                    [&sketch, &sketch_mutex] {
                      std::lock_guard<std::mutex> lock(sketch_mutex);
                      return RenderSynopsisStatsJson(*sketch);
                    });
  server.AddHandler("/trace.json", "application/json", [] {
    return obs::RenderTraceJson(obs::TraceRegistry::Global().Collect());
  });
  if (!server.Start(static_cast<uint16_t>(flags.port))) {
    std::fprintf(stderr, "cannot bind 127.0.0.1:%llu\n",
                 static_cast<unsigned long long>(flags.port));
    return 1;
  }
  // Announced on stdout (and flushed) so scripts can scrape the
  // ephemeral port before ingestion finishes.
  std::printf("serving metrics on http://127.0.0.1:%u\n", server.port());
  std::fflush(stdout);

  uint64_t ingested = 0;
  const int rc = RunCheckpointIngest(stream_path, prefix, flags,
                                     &sketch_mutex, &sketch, &ingested);
  if (rc != 0) {
    server.Stop();
    return rc;
  }
  if (flags.linger_ms > 0) {
    std::fprintf(stderr, "lingering %llu ms for scrapes...\n",
                 static_cast<unsigned long long>(flags.linger_ms));
    std::this_thread::sleep_for(
        std::chrono::milliseconds(flags.linger_ms));
  }
  server.Stop();
  std::fprintf(stderr, "served %llu request(s)\n",
               static_cast<unsigned long long>(server.requests()));
  if (!DumpMetricsTo(flags.metrics_out)) return 1;
  return 0;
}

int CmdTrace(int argc, char** argv) {
  if (argc < 4) {
    Usage();
    return 2;
  }
  const std::string stream_path = argv[2];
  const std::string out_path = argv[3];
  BuildFlags flags;
  if (!ParseBuildFlags(argc, argv, 4, /*allow_checkpoint_flags=*/false,
                       &flags)) {
    Usage();
    return 2;
  }
  if (const auto error = flags.config.Validate()) {
    std::fprintf(stderr, "invalid config: %s\n", error->c_str());
    return 2;
  }
  if (!obs::TelemetryCompiledIn()) {
    std::fprintf(stderr,
                 "warning: built with ASKETCH_NO_TELEMETRY; the trace "
                 "will be empty\n");
  }
  obs::TraceRegistry::Global().SetEnabled(true);
  StreamFileReader reader;
  if (const auto error = reader.Open(stream_path)) {
    std::fprintf(stderr, "read failed: %s\n", error->c_str());
    return 1;
  }
  CliSketch sketch = MakeASketchCountMin<RelaxedHeapFilter>(flags.config);
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
  obs::TraceRegistry::Global().SetEnabled(false);
  const auto events = obs::TraceRegistry::Global().Collect();
  const std::string json = obs::RenderTraceJson(events);
  const std::vector<uint8_t> bytes(json.begin(), json.end());
  if (const auto error = WriteFileAtomic(out_path, bytes)) {
    std::fprintf(stderr, "trace write failed: %s\n", error->c_str());
    return 1;
  }
  std::fprintf(
      stderr,
      "traced %llu tuples: %zu event(s), %llu overwritten; load %s in "
      "chrome://tracing\n",
      static_cast<unsigned long long>(ingested), events.size(),
      static_cast<unsigned long long>(
          obs::TraceRegistry::Global().DroppedEvents()),
      out_path.c_str());
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
  if (command == "checkpoint") return CmdCheckpoint(argc, argv);
  if (command == "restore") return CmdRestore(argc, argv);
  if (command == "recover") return CmdRecover(argc, argv);
  if (command == "query") return CmdQuery(argc, argv);
  if (command == "topk") return CmdTopK(argc, argv);
  if (command == "stats") return CmdStats(argc, argv);
  if (command == "merge") return CmdMerge(argc, argv);
  if (command == "serve-metrics") return CmdServeMetrics(argc, argv);
  if (command == "trace") return CmdTrace(argc, argv);
  Usage();
  return 2;
}
