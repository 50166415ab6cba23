// Holistic UDAFs at streaming speeds (Cormode, Johnson, Korn,
// Muthukrishnan, Spatscheck, Srivastava, SIGMOD 2004) — the
// early-aggregation baseline of the ASketch paper.
//
// Incoming tuples are aggregated in a small "low-level" table; when a new
// key arrives and the table is full, the whole table is flushed into an
// underlying Count-Min sketch and refilled. Unlike the ASketch filter, the
// low-level table is a write-through buffer: it has no notion of hot items
// and cannot answer queries alone — a point query must consult the sketch
// (plus any counts still buffered, to preserve the one-sided guarantee).

#ifndef ASKETCH_SKETCH_HOLISTIC_UDAF_H_
#define ASKETCH_SKETCH_HOLISTIC_UDAF_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/simd_scan.h"
#include "src/common/types.h"
#include "src/sketch/count_min.h"

namespace asketch {

/// Configuration for HolisticUdaf.
struct HolisticUdafConfig {
  /// Item capacity of the low-level aggregation table (the paper sizes it
  /// to match the ASketch filter's item capacity).
  uint32_t table_capacity = 32;
  /// Underlying Count-Min configuration.
  CountMinConfig sketch;

  std::optional<std::string> Validate() const;

  /// Config whose table plus sketch cells fit `bytes`.
  static HolisticUdafConfig FromSpaceBudget(size_t bytes, uint32_t width,
                                            uint32_t table_capacity,
                                            uint64_t seed = 42);
};

/// The Holistic-UDAF estimator: aggregation table over Count-Min.
class HolisticUdaf {
 public:
  explicit HolisticUdaf(const HolisticUdafConfig& config);

  /// Applies tuple (key, delta). Positive deltas aggregate in the table;
  /// negative deltas (deletions) are pushed straight to the sketch after
  /// flushing the key's buffered count, which keeps estimates one-sided.
  void Update(item_t key, delta_t delta = 1);

  /// Point query: sketch estimate plus any count still buffered for `key`.
  count_t Estimate(item_t key) const;

  /// Flushes all buffered counts into the sketch and clears the table.
  void Flush();

  void Reset();

  /// Number of table flushes so far (the §7 experiments attribute the
  /// method's low-skew slowdown to excessive flushing).
  uint64_t flush_count() const { return flush_count_; }

  uint32_t table_capacity() const { return config_.table_capacity; }
  const CountMin& sketch() const { return sketch_; }

  /// Bytes per buffered item (id + count).
  static constexpr size_t TableBytesPerItem() {
    return sizeof(item_t) + sizeof(count_t);
  }

  size_t MemoryUsageBytes() const {
    return config_.table_capacity * TableBytesPerItem() +
           sketch_.MemoryUsageBytes();
  }

  std::string Name() const { return "HolisticUDAF"; }

 private:
  HolisticUdafConfig config_;
  CountMin sketch_;
  uint32_t size_ = 0;
  uint64_t flush_count_ = 0;
  // Parallel arrays, capacity padded to a SIMD block multiple.
  std::vector<uint32_t> ids_;
  std::vector<count_t> counts_;
};

}  // namespace asketch

#endif  // ASKETCH_SKETCH_HOLISTIC_UDAF_H_
