// Binary (de)serialization primitives.
//
// Two summaries are persisted: asketchd checkpoints
// ASketch<RelaxedHeapFilter, CountMin | SalsaCountMin> inside its SRD1
// shard-set payload, and asketch_cli writes ASketch<RelaxedHeapFilter,
// CountMin> synopsis files. So CountMin, SalsaCountMin, the heap filters
// and ASketch implement
//   bool SerializeTo(BinaryWriter&) const;
//   static std::optional<T> DeserializeFrom(BinaryReader&);
// over the little-endian primitives below; the other summaries live only
// in memory. Hash functions are never written: they are reconstructed
// deterministically from the serialized config seed, which also makes two
// deserialized Count-Min synopses mergeable.
//
// Readers are defensive: every Get* reports failure on a short file, and
// deserializers validate configs before allocating, so a truncated or
// corrupted file yields std::nullopt rather than UB.

#ifndef ASKETCH_COMMON_SERIALIZE_H_
#define ASKETCH_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace asketch {

/// Upper bound a deserializer accepts for a serialized capacity field
/// before allocating. Real summaries hold tens to thousands of monitored
/// items; a corrupt capacity (e.g. a flipped high bit) must be rejected
/// before the constructor zero-fills gigabytes.
inline constexpr uint32_t kMaxSerializedCapacity = 1u << 20;

/// Appends little-endian primitives to an in-memory buffer or a FILE*.
class BinaryWriter {
 public:
  /// Writes into an owned in-memory buffer (retrieve with buffer()).
  BinaryWriter() = default;
  /// Writes through to `file` (not owned; must outlive the writer).
  explicit BinaryWriter(std::FILE* file) : file_(file) {}

  void PutU8(uint8_t v) { PutBytes(&v, 1); }
  void PutU32(uint32_t v) { PutBytes(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutBytes(&v, sizeof(v)); }

  void PutBytes(const void* data, size_t size) {
    if (!ok_) return;
    if (file_ != nullptr) {
      ok_ = std::fwrite(data, 1, size, file_) == size;
    } else if (size > 0) {
      const size_t offset = buffer_.size();
      buffer_.resize(offset + size);
      std::memcpy(buffer_.data() + offset, data, size);
    }
  }

  template <typename T>
  void PutPodVector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutU64(values.size());
    if (!values.empty()) {
      PutBytes(values.data(), values.size() * sizeof(T));
    }
  }

  /// Pre-sizes the in-memory buffer (no-op in FILE* mode).
  void Reserve(size_t total_bytes) { buffer_.reserve(total_bytes); }

  /// False once any write failed (FILE* mode only).
  bool ok() const { return ok_; }
  const std::vector<uint8_t>& buffer() const { return buffer_; }

 private:
  std::FILE* file_ = nullptr;
  std::vector<uint8_t> buffer_;
  bool ok_ = true;
};

/// Reads little-endian primitives from a buffer or a FILE*. All Get*
/// functions return false (and leave the output untouched) once the
/// source is exhausted or a previous read failed.
class BinaryReader {
 public:
  BinaryReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit BinaryReader(const std::vector<uint8_t>& buffer)
      : BinaryReader(buffer.data(), buffer.size()) {}
  explicit BinaryReader(std::FILE* file) : file_(file) {}

  bool GetU8(uint8_t* v) { return GetBytes(v, 1); }
  bool GetU32(uint32_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetBytes(v, sizeof(*v)); }

  bool GetBytes(void* out, size_t size) {
    if (!ok_) return false;
    if (file_ != nullptr) {
      ok_ = std::fread(out, 1, size, file_) == size;
      return ok_;
    }
    if (position_ + size > size_) {
      ok_ = false;
      return false;
    }
    std::memcpy(out, data_ + position_, size);
    position_ += size;
    return true;
  }

  /// Reads a vector written by PutPodVector; rejects element counts that
  /// would exceed `max_elements` (corruption guard). In in-memory mode
  /// the count is additionally clamped against the bytes actually
  /// remaining, so a corrupt length field never allocates at all; in
  /// FILE* mode (where the remaining size is unknown) the default bound
  /// caps the damage at max_elements * sizeof(T) before the short read
  /// fails. Callers with genuinely larger vectors pass an explicit bound.
  template <typename T>
  bool GetPodVector(std::vector<T>* values,
                    uint64_t max_elements = uint64_t{1} << 28) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    if (!GetU64(&count)) return false;
    if (count > max_elements) {
      ok_ = false;
      return false;
    }
    // count <= max_elements, so count * sizeof(T) cannot overflow here.
    if (file_ == nullptr && count * sizeof(T) > size_ - position_) {
      ok_ = false;
      return false;
    }
    values->resize(count);
    if (count == 0) return true;
    return GetBytes(values->data(), count * sizeof(T));
  }

  bool ok() const { return ok_; }

 private:
  std::FILE* file_ = nullptr;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t position_ = 0;
  bool ok_ = true;
};

}  // namespace asketch

#endif  // ASKETCH_COMMON_SERIALIZE_H_
