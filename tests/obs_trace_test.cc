// Tests for the trace-event flight recorder: span recording, the
// disabled-by-default contract, ring wrap (overwrite-oldest), concurrent
// recording, ring reuse across exiting threads, and the Chrome
// trace_event JSON rendering.

#include "src/obs/trace.h"

#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "tests/common/json_checker.h"

namespace asketch {
namespace obs {
namespace {

// The span tests are compiled out with telemetry: the stub Collect()
// provably returns an empty vector, so indexing into it would trip
// -Werror=array-bounds at compile time, not just skip at runtime.
#ifndef ASKETCH_NO_TELEMETRY

class TraceTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!TelemetryCompiledIn()) GTEST_SKIP() << "telemetry compiled out";
    TraceRegistry::Global().SetEnabled(false);
    TraceRegistry::Global().Reset();
  }
  void TearDown() override {
    TraceRegistry::Global().SetEnabled(false);
    TraceRegistry::Global().Reset();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  { ASKETCH_TRACE_SPAN("invisible"); }
  EXPECT_TRUE(TraceRegistry::Global().Collect().empty());
}

TEST_F(TraceTest, EnabledRecordsCompletedSpans) {
  TraceRegistry::Global().SetEnabled(true);
  { ASKETCH_TRACE_SPAN("outer"); }
  { ASKETCH_TRACE_SPAN("outer"); }
  const auto events = TraceRegistry::Global().Collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "outer");
  // Collect orders by start time.
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, NestedSpansBothRecorded) {
  TraceRegistry::Global().SetEnabled(true);
  {
    ASKETCH_TRACE_SPAN("parent");
    ASKETCH_TRACE_SPAN("child");
  }
  const auto events = TraceRegistry::Global().Collect();
  ASSERT_EQ(events.size(), 2u);
  // The parent starts first; the child (destroyed first) must fit inside.
  EXPECT_STREQ(events[0].name, "parent");
  EXPECT_STREQ(events[1].name, "child");
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
}

TEST_F(TraceTest, RingWrapKeepsNewestAndCountsDropped) {
  TraceRegistry::Global().SetRingCapacity(8);
  TraceRegistry::Global().SetEnabled(true);
  for (int i = 0; i < 20; ++i) {
    ASKETCH_TRACE_SPAN("wrapped");
  }
  const auto events = TraceRegistry::Global().Collect();
  EXPECT_EQ(events.size(), 8u);  // capacity bounds retained history
  EXPECT_EQ(TraceRegistry::Global().DroppedEvents(), 12u);
  // Restore the default capacity for rings created by later tests.
  TraceRegistry::Global().SetRingCapacity(4096);
}

TEST_F(TraceTest, ThreadsGetDistinctTids) {
  TraceRegistry::Global().SetEnabled(true);
  { ASKETCH_TRACE_SPAN("main"); }
  std::thread other([] { ASKETCH_TRACE_SPAN("worker"); });
  other.join();
  const auto events = TraceRegistry::Global().Collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, ExitedThreadsHandTheirRingToTheNext) {
  // A server whose clients reconnect runs one short-lived thread after
  // another; each records a span. Ring memory must track the threads
  // alive at once, not every thread that ever ran.
  TraceRegistry::Global().SetEnabled(true);
  constexpr int kThreads = 64;
  for (int t = 0; t < kThreads; ++t) {
    std::thread([] { ASKETCH_TRACE_SPAN("short_lived"); }).join();
  }
  const auto events = TraceRegistry::Global().Collect();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads));
  std::set<uint32_t> tids;
  for (const CollectedTraceEvent& e : events) tids.insert(e.tid);
  EXPECT_LE(tids.size(), 2u);
}

TEST_F(TraceTest, ConcurrentRecordingLosesNothingBelowCapacity) {
  TraceRegistry::Global().SetEnabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ASKETCH_TRACE_SPAN("burst");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Each thread's ring holds 4096 > 500 events: nothing wraps, and the
  // collector must see every span despite the lock-free recording.
  EXPECT_EQ(TraceRegistry::Global().Collect().size(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(TraceRegistry::Global().DroppedEvents(), 0u);
}

TEST_F(TraceTest, JsonExportIsStrictlyValid) {
  TraceRegistry::Global().SetEnabled(true);
  { ASKETCH_TRACE_SPAN("span_a"); }
  std::thread other([] { ASKETCH_TRACE_SPAN("span_b"); });
  other.join();
  const std::string json =
      RenderTraceJson(TraceRegistry::Global().Collect());
  EXPECT_TRUE(testing_support::JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"span_a\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"span_b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

#endif  // !ASKETCH_NO_TELEMETRY

TEST(TraceJsonTest, EmptyEventListIsValidJson) {
  const std::string json = RenderTraceJson({});
  EXPECT_TRUE(testing_support::JsonChecker::Valid(json)) << json;
}

}  // namespace
}  // namespace obs
}  // namespace asketch
