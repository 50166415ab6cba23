// Crash-safe snapshot envelope and generation store.
//
// Raw SerializeTo blobs are deliberately minimal: they catch truncation
// and cross-type confusion, but a flipped bit inside a cell array
// deserializes silently into wrong counts, and writing a checkpoint file
// in place destroys the only copy if the process dies mid-write. The
// long-lived deployments that serialize.h's header comment promises
// (monitoring agents checkpointing across restarts, sketches shipped to
// a remote collector) need end-to-end integrity, atomic publication, and
// a recovery order. This file provides all three.
//
// Snapshot envelope (format v1, little-endian):
//
//   offset  size  field
//        0     4  magic "ASNP" (0x504e5341)
//        4     4  format version (currently 1)
//        8     4  payload type tag (registry below)
//       12     8  payload length in bytes
//       20     4  CRC32C over the payload bytes
//       24     …  payload (a SerializeTo blob)
//
// Validation checks every field: exact magic and version, the expected
// type tag, a length equal to the bytes actually present (no trailing
// garbage), and the checksum — any single flipped bit in the header or
// the payload is rejected. Version gates compatibility: a future v2
// loader may accept v1 envelopes, but a v1 loader rejects anything else.
//
// Payload type tag registry (each summary class mirrors its tag as
// `kSnapshotPayloadType`; keep this list authoritative):
//
//    1 CountMin                      8 reserved (VectorFilter)
//    2 reserved (CountSketch)        9 StrictHeapFilter
//    3 reserved (Fcm)               10 RelaxedHeapFilter
//    4 reserved (MisraGries)        11 reserved (StreamSummaryFilter)
//    5 reserved (SpaceSaving)       12 reserved (retired WindowedASketch)
//    6 reserved (HolisticUdaf)      13 SalsaCountMin
//    7 reserved (retired DyadicCountMin)
//   Reserved tags are never reused, so a blob written under one still
//   fails to load instead of being read as another type. Tags 2-6, 8
//   and 11 belonged to summaries that are still in the library but are
//   no longer serialized.
//   ASketch<F, S> composes 0x41000000 | (F's tag << 8) | S's tag.
//   Application formats (e.g. asketchd's "SRD1" shard-set payload) use
//   tags with a nonzero top byte outside 0x41. "CKP1" and "CKP2" (retired
//   offline checkpoints) are reserved like the retired type tags above.
//
// SnapshotStore persists numbered generations `<prefix>.<gen>.snap`.
// Save() writes a temp file, flushes and fsyncs it, then renames it into
// place — a crash at any point leaves either the previous generations
// untouched or a stray temp file, never a half-written generation.
// Load() recovers from the newest generation that validates, falling
// back generation by generation, so a torn or corrupted newest snapshot
// degrades to the previous intact one instead of poisoning the reader.
// All file I/O is routed through SnapshotIoHooks so tests can inject
// short writes, write errors, bit flips, and crashes between write and
// rename deterministically (src/common/fault_injection.h).

#ifndef ASKETCH_COMMON_SNAPSHOT_H_
#define ASKETCH_COMMON_SNAPSHOT_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/common/serialize.h"

namespace asketch {

inline constexpr uint32_t kSnapshotMagic = 0x504e5341u;  // "ASNP"
inline constexpr uint32_t kSnapshotFormatVersion = 1;
inline constexpr size_t kSnapshotHeaderBytes = 24;

/// Wraps a SerializeTo blob in the envelope described above.
std::vector<uint8_t> WrapSnapshot(uint32_t payload_type,
                                  const std::vector<uint8_t>& payload);

/// Validates an envelope and returns its payload. std::nullopt if the
/// magic, version, or type tag mismatch, the length disagrees with the
/// bytes present, or the checksum fails.
std::optional<std::vector<uint8_t>> UnwrapSnapshot(const void* data,
                                                   size_t size,
                                                   uint32_t expected_type);

/// Serializes `object` and wraps it under its registered payload tag.
/// Empty vector if serialization fails (only possible for FILE*-backed
/// writers, which this is not — treat it as a programming error).
template <typename T>
std::vector<uint8_t> ToSnapshot(const T& object) {
  BinaryWriter writer;
  if (!object.SerializeTo(writer)) return {};
  return WrapSnapshot(T::kSnapshotPayloadType, writer.buffer());
}

/// Unwraps and deserializes a snapshot of T. std::nullopt on any
/// envelope or deserialization failure.
template <typename T>
std::optional<T> FromSnapshot(const void* data, size_t size) {
  const auto payload = UnwrapSnapshot(data, size, T::kSnapshotPayloadType);
  if (!payload.has_value()) return std::nullopt;
  BinaryReader reader(*payload);
  return T::DeserializeFrom(reader);
}

/// Injection points for SnapshotStore / WriteFileAtomic file I/O. A
/// default-constructed instance (empty functions) uses the real calls;
/// tests substitute deterministic fault shims (fault_injection.h).
struct SnapshotIoHooks {
  /// fwrite replacement: returns the number of bytes written (a short
  /// count is a failure, exactly like fwrite).
  std::function<size_t(const void* data, size_t size, std::FILE* file)>
      write;
  /// Flushes stdio and kernel buffers to stable storage (fflush +
  /// fsync). Returns false on failure.
  std::function<bool(std::FILE* file)> sync;
  /// Atomically publishes `tmp_path` as `final_path` (rename). Returning
  /// false simulates a crash between write and publish: the temp file is
  /// left behind and no new generation appears.
  std::function<bool(const std::string& tmp_path,
                     const std::string& final_path)>
      commit;
};

/// Writes `bytes` to `path` via a sibling temp file + fflush/fsync +
/// rename, so `path` either keeps its old content or holds the complete
/// new content — never a torn write. Returns an error message on
/// failure (the temp file is cleaned up; `path` is untouched).
std::optional<std::string> WriteFileAtomic(const std::string& path,
                                           const std::vector<uint8_t>& bytes,
                                           const SnapshotIoHooks& hooks = {});

/// Reads all of `path`. std::nullopt if the file cannot be opened/read.
std::optional<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// Multi-generation snapshot store over `<prefix>.<gen>.snap` files.
class SnapshotStore {
 public:
  /// `retain` >= 1 generations are kept on disk; older ones are pruned
  /// after each successful Save.
  explicit SnapshotStore(std::string prefix, uint32_t retain = 3,
                         SnapshotIoHooks hooks = {});

  /// Writes `payload` as the next generation (atomically, fsynced) and
  /// prunes generations beyond `retain`. Returns an error message on
  /// failure; previously written generations are never damaged.
  std::optional<std::string> Save(uint32_t payload_type,
                                  const std::vector<uint8_t>& payload);

  struct Loaded {
    std::vector<uint8_t> payload;
    uint64_t generation = 0;
    /// Newer generations that failed validation and were skipped over.
    uint32_t generations_skipped = 0;
  };

  /// Recovers the newest generation whose envelope validates against
  /// `expected_type`, falling back one generation at a time. Returns
  /// std::nullopt when no generation validates (including when none
  /// exist); `error`, if given, then describes what was found.
  std::optional<Loaded> Load(uint32_t expected_type,
                             std::string* error = nullptr) const;

  /// Existing generation numbers, ascending (empty when none).
  std::vector<uint64_t> ListGenerations() const;

  /// Newest existing generation number, or 0 when none exist.
  uint64_t LatestGeneration() const;

  /// On-disk path of generation `gen`.
  std::string GenerationPath(uint64_t gen) const;

  const std::string& prefix() const { return prefix_; }

 private:
  std::string prefix_;
  uint32_t retain_;
  SnapshotIoHooks hooks_;
};

}  // namespace asketch

#endif  // ASKETCH_COMMON_SNAPSHOT_H_
