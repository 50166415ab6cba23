#include "bench/e2e/layers.h"

#include <algorithm>
#include <atomic>
#include <ctime>
#include <functional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/asketch.h"
#include "src/filter/heap_filter.h"
#include "src/net/protocol.h"
#include "src/net/shard_set.h"
#include "src/sketch/count_min.h"

namespace asketch {
namespace e2e {
namespace {

/// Keeps timed results observable so no loop is optimized away.
volatile uint64_t g_sink = 0;

/// Calls `pass` until `seconds` have elapsed and it ran at least three
/// times; each call records its own samples.
void Repeat(double seconds, const std::function<void()>& pass) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int runs = 0; runs < 3 || NowNs() < end; ++runs) pass();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double PerUnit(int64_t ns, size_t units) {
  return static_cast<double>(ns) / static_cast<double>(units);
}

/// UPDATE frames as the client builds them and as a connection thread
/// takes them apart: 64 KiB reads into a FrameDecoder, then
/// ParseUpdateRequest into a reused scratch vector.
void MeasureProtocol(const RunConfig& config, const Inputs& inputs,
                     SpanLog* log, MetricList* out) {
  const std::vector<Tuple>& buffer = inputs.buffer;
  std::vector<double> encode;
  {
    ScopedSpan span(log, "layer.protocol.encode");
    Repeat(config.layer_seconds, [&] {
      uint64_t bytes = 0;
      const int64_t t0 = NowNs();
      for (size_t at = 0; at < buffer.size(); at += kBatchTuples) {
        const size_t n = std::min(kBatchTuples, buffer.size() - at);
        bytes += net::EncodeUpdateRequest({buffer.data() + at, n}, false)
                     .size();
      }
      encode.push_back(PerUnit(NowNs() - t0, buffer.size()));
      g_sink = g_sink + bytes;
    });
  }
  std::vector<double> decode;
  {
    ScopedSpan span(log, "layer.protocol.decode");
    constexpr size_t kFramesPerChunk = 64;
    constexpr size_t kReadBytes = 64 * 1024;
    std::vector<uint8_t> wire;
    std::vector<Tuple> scratch;
    Repeat(config.layer_seconds, [&] {
      int64_t busy = 0;
      uint64_t tuples = 0;
      net::FrameDecoder decoder;
      for (size_t at = 0; at < buffer.size();
           at += kFramesPerChunk * kBatchTuples) {
        wire.clear();
        const size_t end =
            std::min(buffer.size(), at + kFramesPerChunk * kBatchTuples);
        for (size_t f = at; f < end; f += kBatchTuples) {
          const std::vector<uint8_t> frame = net::EncodeUpdateRequest(
              {buffer.data() + f, std::min(kBatchTuples, end - f)}, false);
          wire.insert(wire.end(), frame.begin(), frame.end());
        }
        const int64_t t0 = NowNs();
        for (size_t off = 0; off < wire.size(); off += kReadBytes) {
          decoder.Feed(wire.data() + off,
                       std::min(kReadBytes, wire.size() - off));
          while (auto frame = decoder.Next()) {
            if (net::ParseUpdateRequest(frame->payload, &scratch)) {
              tuples += scratch.size();
            }
          }
        }
        busy += NowNs() - t0;
      }
      decode.push_back(PerUnit(busy, tuples));
    });
  }
  out->Set("protocol.encode_ns_per_tuple", Median(encode), "ns");
  out->Set("protocol.decode_ns_per_tuple", Median(decode), "ns");
}

/// An in-process ShardSet with default options fed the same buffer, one
/// ingest thread per loopback connection, each ending with FlushDeltas;
/// Drain makes the pass visible.
void MeasureShardSet(const RunConfig& config, const Inputs& inputs,
                     SpanLog* log, MetricList* out) {
  net::ShardSet shards{net::ShardSetOptions{}};
  const size_t slice_len = inputs.buffer.size() / kBulkConnections;
  struct Times {
    int64_t ingest_ns = 0;
    int64_t flush_ns = 0;
  };
  const auto replay = [&](std::vector<Times>* times) {
    std::vector<std::thread> threads;
    for (uint32_t s = 0; s < kBulkConnections; ++s) {
      threads.emplace_back([&, s] {
        const Tuple* base = inputs.buffer.data() + s * slice_len;
        net::DeltaIngestState state = shards.MakeDeltaState();
        Times& t = (*times)[s];
        for (size_t at = 0; at < slice_len; at += kBatchTuples) {
          const int64_t t0 = NowNs();
          shards.Ingest({base + at, std::min(kBatchTuples, slice_len - at)},
                        &state);
          t.ingest_ns += NowNs() - t0;
        }
        const int64_t t0 = NowNs();
        shards.FlushDeltas(state);
        t.flush_ns += NowNs() - t0;
      });
    }
    for (std::thread& t : threads) t.join();
  };
  std::vector<Times> warm(kBulkConnections);
  replay(&warm);
  shards.Drain();

  const size_t tuples = slice_len * kBulkConnections;
  std::vector<double> ingest, flush, drain_ms, cpu, rate;
  {
    ScopedSpan span(log, "layer.shard_set.replay");
    Repeat(config.layer_seconds, [&] {
      std::vector<Times> times(kBulkConnections);
      const int64_t cpu0 = ProcessCpuNs();
      const int64_t t0 = NowNs();
      replay(&times);
      const int64_t t1 = NowNs();
      shards.Drain();
      const int64_t t2 = NowNs();
      cpu.push_back(PerUnit(ProcessCpuNs() - cpu0, tuples));
      rate.push_back(static_cast<double>(tuples) /
                     (static_cast<double>(t2 - t0) / 1e9));
      drain_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
      int64_t ingest_ns = 0;
      int64_t flush_ns = 0;
      for (const Times& t : times) {
        ingest_ns += t.ingest_ns;
        flush_ns += t.flush_ns;
      }
      ingest.push_back(PerUnit(ingest_ns, tuples));
      flush.push_back(PerUnit(flush_ns, tuples));
    });
  }
  out->Set("shard_set.ingest_ns_per_tuple", Median(ingest), "ns");
  out->Set("shard_set.flush_deltas_ns_per_tuple", Median(flush), "ns");
  out->Set("shard_set.drain_ms", Median(drain_ms), "ms");
  out->Set("shard_set.cpu_ns_per_tuple", Median(cpu), "ns");
  out->Set("shard_set.tuples_per_s", Median(rate), "tuples/s");

  // Reads beside writes: 64-key EstimateBatch calls while a replay runs.
  std::vector<double> per_key;
  {
    ScopedSpan span(log, "layer.shard_set.estimate_batch");
    std::atomic<bool> done{false};
    std::vector<Times> times(kBulkConnections);
    std::thread writer([&] {
      replay(&times);
      done.store(true, std::memory_order_release);
    });
    std::vector<uint64_t> estimates;
    const size_t batches = inputs.query_pool.size() / kQueryKeysPerBatch;
    for (size_t i = 0; !done.load(std::memory_order_acquire); ++i) {
      const int64_t t0 = NowNs();
      shards.EstimateBatch({inputs.query_pool.data() +
                                (i % batches) * kQueryKeysPerBatch,
                            kQueryKeysPerBatch},
                           &estimates);
      per_key.push_back(PerUnit(NowNs() - t0, kQueryKeysPerBatch));
      g_sink = g_sink + estimates[0];
    }
    writer.join();
    shards.Drain();
  }
  out->Set("shard_set.estimate_batch_ns_per_key", Median(per_key), "ns");
}

/// Which of `parts` parts a key falls in. A stand-in for the daemon's
/// own shard function, which the benchmark does not call so that it can
/// change freely: any well-mixed hash cuts the stream into parts with the
/// same statistics, and the heaviest part holds the hottest key, as the
/// busiest shard does.
uint32_t PartOf(item_t key, uint32_t parts) {
  uint64_t h = (key + 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 31)) * 0x94d049bb133111ebull;
  return static_cast<uint32_t>((h ^ (h >> 29)) % parts);
}

/// One shard's synopsis on its own: the heaviest of `num_shards` hash
/// parts of the buffer, cut at the same UPDATE-frame boundaries a shard
/// owner sees, through UpdateBatch and through the delta path
/// (MakeDeltaBatch + Add, then ApplyDelta per default delta epoch); then
/// its filter and its sketch alone for the paper's t_f + selectivity * t_s
/// model.
void MeasureShard(const RunConfig& config, const Inputs& inputs,
                  uint32_t num_shards, SpanLog* log, MetricList* out) {
  const net::ShardSetOptions defaults;
  std::vector<uint64_t> part_mass(num_shards);
  for (const Tuple& t : inputs.buffer) {
    part_mass[PartOf(t.key, num_shards)] += t.value;
  }
  const uint32_t busiest = static_cast<uint32_t>(
      std::max_element(part_mass.begin(), part_mass.end()) -
      part_mass.begin());
  std::vector<Tuple> sub;
  std::vector<size_t> frame_ends;
  for (size_t at = 0; at < inputs.buffer.size(); at += kBatchTuples) {
    const size_t end = std::min(inputs.buffer.size(), at + kBatchTuples);
    for (size_t i = at; i < end; ++i) {
      if (PartOf(inputs.buffer[i].key, num_shards) == busiest) {
        sub.push_back(inputs.buffer[i]);
      }
    }
    if (frame_ends.empty() || frame_ends.back() != sub.size()) {
      frame_ends.push_back(sub.size());
    }
  }
  if (sub.empty()) return;

  auto synopsis =
      MakeASketchCountMin<RelaxedHeapFilter>(defaults.shard_config);
  const auto feed = [&] {
    size_t begin = 0;
    for (const size_t end : frame_ends) {
      synopsis.UpdateBatch({sub.data() + begin, end - begin});
      begin = end;
    }
  };
  feed();  // warm: the filter learns the hot set
  const ASketchStats before = synopsis.stats();
  std::vector<double> update_batch;
  {
    ScopedSpan span(log, "layer.core.update_batch");
    Repeat(config.layer_seconds, [&] {
      const int64_t t0 = NowNs();
      feed();
      update_batch.push_back(PerUnit(NowNs() - t0, sub.size()));
    });
  }
  const ASketchStats& after = synopsis.stats();
  const double selectivity =
      static_cast<double>(after.sketch_weight - before.sketch_weight) /
      static_cast<double>(after.sketch_weight + after.filtered_weight -
                          before.sketch_weight - before.filtered_weight);

  auto delta_synopsis =
      MakeASketchCountMin<RelaxedHeapFilter>(defaults.shard_config);
  delta_synopsis.UpdateBatch(sub);
  std::vector<double> add, apply;
  {
    ScopedSpan span(log, "layer.core.delta");
    Repeat(config.layer_seconds, [&] {
      int64_t add_ns = 0;
      int64_t apply_ns = 0;
      for (size_t i = 0; i < sub.size();) {
        const int64_t t0 = NowNs();
        DeltaBatch<CountMin> delta = delta_synopsis.MakeDeltaBatch();
        const size_t end =
            std::min(sub.size(), i + defaults.delta_flush_tuples);
        for (; i < end; ++i) delta.Add(sub[i].key, sub[i].value);
        const int64_t t1 = NowNs();
        const auto error = delta_synopsis.ApplyDelta(delta);
        const int64_t t2 = NowNs();
        if (error) return;
        add_ns += t1 - t0;
        apply_ns += t2 - t1;
      }
      add.push_back(PerUnit(add_ns, sub.size()));
      apply.push_back(PerUnit(apply_ns, sub.size()));
    });
  }

  // The filter holding this shard's top keys, probed with every tuple.
  std::unordered_map<item_t, uint64_t> counts;
  for (const Tuple& t : sub) counts[t.key] += t.value;
  std::vector<std::pair<uint64_t, item_t>> ranked;
  ranked.reserve(counts.size());
  for (const auto& [key, count] : counts) ranked.emplace_back(count, key);
  const size_t slots =
      std::min<size_t>(defaults.shard_config.filter_items, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + slots, ranked.end(),
                    std::greater<>());
  RelaxedHeapFilter filter(defaults.shard_config.filter_items);
  for (size_t i = 0; i < slots; ++i) {
    filter.Insert(ranked[i].second,
                  static_cast<count_t>(std::min<uint64_t>(
                      ranked[i].first, ~count_t{0})),
                  0);
  }
  std::vector<double> probe;
  {
    ScopedSpan span(log, "layer.filter.probe");
    Repeat(config.layer_seconds, [&] {
      int64_t found = 0;
      const int64_t t0 = NowNs();
      for (const Tuple& t : sub) found += filter.Find(t.key);
      probe.push_back(PerUnit(NowNs() - t0, sub.size()));
      g_sink = g_sink + static_cast<uint64_t>(found);
    });
  }

  // The sketch at the shard's shrunk geometry over the filter misses.
  std::vector<Tuple> misses;
  for (const Tuple& t : sub) {
    if (filter.Find(t.key) < 0) misses.push_back(t);
  }
  std::vector<double> sketch_update, sketch_estimate;
  if (!misses.empty()) {
    CountMin sketch(synopsis.sketch().config());
    ScopedSpan span(log, "layer.sketch");
    Repeat(config.layer_seconds, [&] {
      const int64_t t0 = NowNs();
      for (const Tuple& t : misses) sketch.Update(t.key, t.value);
      sketch_update.push_back(PerUnit(NowNs() - t0, misses.size()));
    });
    Repeat(config.layer_seconds, [&] {
      uint64_t sum = 0;
      const int64_t t0 = NowNs();
      for (const Tuple& t : misses) sum += sketch.Estimate(t.key);
      sketch_estimate.push_back(PerUnit(NowNs() - t0, misses.size()));
      g_sink = g_sink + sum;
    });
  }

  const double measured = Median(update_batch);
  const double t_f = Median(probe);
  const double t_s = Median(sketch_update);
  const double model = t_f + selectivity * t_s;
  out->Set("core.update_batch_ns_per_tuple", measured, "ns");
  out->Set("core.delta_add_ns_per_tuple", Median(add), "ns");
  out->Set("core.apply_delta_ns_per_tuple", Median(apply), "ns");
  out->Set("filter.probe_ns", t_f, "ns");
  out->Set("sketch.update_ns", t_s, "ns");
  out->Set("sketch.estimate_ns", Median(sketch_estimate), "ns");
  out->Set("core.model_ns_per_tuple", model, "ns");
  out->Set("core.model_error_frac", (model - measured) / measured,
           "fraction");
}

}  // namespace

void MeasureLayers(const RunConfig& config, const Inputs& inputs,
                   uint32_t num_shards, SpanLog* log, MetricList* out) {
  MeasureProtocol(config, inputs, log, out);
  MeasureShardSet(config, inputs, log, out);
  MeasureShard(config, inputs, std::max(num_shards, 1u), log, out);
}

}  // namespace e2e
}  // namespace asketch
