#include "src/core/spmd_group.h"

#include <algorithm>
#include <thread>

namespace asketch {

namespace {

/// Runs fn(kernel_index, chunk) on one thread per kernel over contiguous
/// chunks of `stream`.
template <typename Fn>
void ParallelChunks(std::span<const Tuple> stream, uint32_t num_kernels,
                    Fn&& fn) {
  const size_t chunk = (stream.size() + num_kernels - 1) / num_kernels;
  std::vector<std::thread> threads;
  threads.reserve(num_kernels);
  for (uint32_t i = 0; i < num_kernels; ++i) {
    const size_t begin = std::min(stream.size(), i * chunk);
    const size_t end = std::min(stream.size(), begin + chunk);
    threads.emplace_back(
        [&fn, i, part = stream.subspan(begin, end - begin)] { fn(i, part); });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

SpmdAsketchGroup::SpmdAsketchGroup(uint32_t num_kernels,
                                   const ASketchConfig& config) {
  ASKETCH_CHECK(num_kernels >= 1);
  kernels_.reserve(num_kernels);
  for (uint32_t i = 0; i < num_kernels; ++i) {
    ASketchConfig kernel_config = config;
    kernel_config.seed = config.seed + i;
    kernels_.push_back(
        MakeASketchCountMin<RelaxedHeapFilter>(kernel_config));
  }
}

void SpmdAsketchGroup::Process(std::span<const Tuple> stream) {
  // Each kernel ingests its partition through the batched fast path
  // (chunked SIMD filter probes + sketch-row prefetch); state is
  // bit-identical to the per-tuple Update loop.
  ParallelChunks(stream, num_kernels(),
                 [this](uint32_t i, std::span<const Tuple> part) {
                   kernels_[i].UpdateBatch(part);
                 });
}

count_t SpmdAsketchGroup::Estimate(item_t key) const {
  count_t sum = 0;
  for (const auto& kernel : kernels_) {
    sum = SaturatingAdd(sum, static_cast<delta_t>(kernel.Estimate(key)));
  }
  return sum;
}

size_t SpmdAsketchGroup::MemoryUsageBytes() const {
  size_t total = 0;
  for (const auto& kernel : kernels_) total += kernel.MemoryUsageBytes();
  return total;
}

SpmdCountMinGroup::SpmdCountMinGroup(uint32_t num_kernels,
                                     const CountMinConfig& config) {
  ASKETCH_CHECK(num_kernels >= 1);
  kernels_.reserve(num_kernels);
  for (uint32_t i = 0; i < num_kernels; ++i) {
    CountMinConfig kernel_config = config;
    kernel_config.seed = config.seed + i;
    kernels_.emplace_back(kernel_config);
  }
}

void SpmdCountMinGroup::Process(std::span<const Tuple> stream) {
  ParallelChunks(stream, num_kernels(),
                 [this](uint32_t i, std::span<const Tuple> part) {
                   kernels_[i].UpdateBatch(part);
                 });
}

count_t SpmdCountMinGroup::Estimate(item_t key) const {
  count_t sum = 0;
  for (const CountMin& kernel : kernels_) {
    sum = SaturatingAdd(sum, static_cast<delta_t>(kernel.Estimate(key)));
  }
  return sum;
}

}  // namespace asketch
