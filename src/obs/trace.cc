#include "src/obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace asketch {
namespace obs {

std::string RenderTraceJson(const std::vector<CollectedTraceEvent>& events) {
  std::string out = "{\"traceEvents\":[";
  char buffer[256];
  bool first = true;
  for (const CollectedTraceEvent& e : events) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":\"");
    // Span names are static strings chosen by this library; escape the
    // two characters that could break the JSON anyway.
    for (const char* p = e.name; *p != '\0'; ++p) {
      if (*p == '"' || *p == '\\') out.push_back('\\');
      out.push_back(*p);
    }
    std::snprintf(buffer, sizeof(buffer),
                  "\",\"cat\":\"asketch\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
                  static_cast<double>(e.ts_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3, e.tid);
    out.append(buffer);
  }
  out.append("]}");
  return out;
}

#ifndef ASKETCH_NO_TELEMETRY

namespace {

struct TlsRingCache {
  internal::TraceRing* ring = nullptr;
  uint64_t generation = 0;
  // The registry is never destroyed, so this is safe at any thread exit.
  ~TlsRingCache() {
    if (ring != nullptr) TraceRegistry::Global().ReleaseRing(ring, generation);
  }
};

thread_local TlsRingCache tls_ring_cache;

}  // namespace

namespace internal {

TraceRing::TraceRing(uint32_t tid, size_t capacity)
    : tid_(tid), slots_(capacity < 2 ? 2 : capacity) {}

void TraceRing::Record(const char* name, uint64_t ts_ns, uint64_t dur_ns) {
  const uint64_t index = head_.load(std::memory_order_relaxed);
  TraceSlot& slot = slots_[index % slots_.size()];
  // Seqlock write: odd while in flight, 2*index+2 once complete. The
  // release pairs with the collector's acquire so a slot observed at its
  // final sequence has fully written fields.
  slot.seq.store(2 * index + 1, std::memory_order_relaxed);
  slot.name.store(name, std::memory_order_relaxed);
  slot.ts_ns.store(ts_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  slot.seq.store(2 * index + 2, std::memory_order_release);
  head_.store(index + 1, std::memory_order_release);
}

void TraceRing::CollectInto(std::vector<CollectedTraceEvent>* out) const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t size = slots_.size();
  const uint64_t begin = head > size ? head - size : 0;
  for (uint64_t index = begin; index < head; ++index) {
    const TraceSlot& slot = slots_[index % size];
    const uint64_t expected = 2 * index + 2;
    if (slot.seq.load(std::memory_order_acquire) != expected) continue;
    CollectedTraceEvent event;
    event.name = slot.name.load(std::memory_order_relaxed);
    event.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    event.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
    event.tid = tid_;
    // Re-check: if the owner started overwriting this slot while we read
    // it, the sequence moved on and the fields may be torn — drop it.
    if (slot.seq.load(std::memory_order_acquire) != expected) continue;
    if (event.name == nullptr) continue;
    out->push_back(event);
  }
}

}  // namespace internal

TraceRegistry& TraceRegistry::Global() {
  static TraceRegistry* registry = new TraceRegistry();
  return *registry;
}

void TraceRegistry::SetRingCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_capacity_ = capacity < 2 ? 2 : capacity;
}

internal::TraceRing* TraceRegistry::LocalRing() {
  TlsRingCache& cache = tls_ring_cache;
  const uint64_t generation = generation_.load(std::memory_order_relaxed);
  if (cache.ring != nullptr && cache.generation == generation) {
    return cache.ring;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!free_rings_.empty()) {
    cache.ring = free_rings_.back();
    free_rings_.pop_back();
  } else {
    rings_.push_back(
        std::make_unique<internal::TraceRing>(next_tid_++, ring_capacity_));
    cache.ring = rings_.back().get();
  }
  // Stamp the generation the ring belongs to; a Reset() may have run
  // since the check above.
  cache.generation = generation_.load(std::memory_order_relaxed);
  return cache.ring;
}

void TraceRegistry::ReleaseRing(internal::TraceRing* ring,
                                uint64_t generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (generation != generation_.load(std::memory_order_relaxed)) return;
  free_rings_.push_back(ring);
}

std::vector<CollectedTraceEvent> TraceRegistry::Collect() const {
  std::vector<CollectedTraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& ring : rings_) {
      ring->CollectInto(&events);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const CollectedTraceEvent& a, const CollectedTraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.tid < b.tid;
            });
  return events;
}

uint64_t TraceRegistry::DroppedEvents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t dropped = 0;
  for (const auto& ring : rings_) dropped += ring->dropped();
  return dropped;
}

void TraceRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.clear();
  free_rings_.clear();
  next_tid_ = 1;
  generation_.fetch_add(1, std::memory_order_relaxed);
}

#endif  // ASKETCH_NO_TELEMETRY

}  // namespace obs
}  // namespace asketch
