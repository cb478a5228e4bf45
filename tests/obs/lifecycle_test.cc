// The recorder lifecycle every obs sink shares (src/obs/shards.h): what a
// thread recorded survives its exit, the retired ring lists stay capped,
// and the ring sinks stamp one small thread index per thread.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "obs/audit.h"
#include "obs/flightrec.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sds::obs {
namespace {

#ifndef SDS_OBS_DISABLED

/// Records retired by exited threads, per ring sink.
constexpr size_t kRetiredCap = 65536;

class LifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    SetAuditEnabled(true);
    ResetAll();
  }
  void TearDown() override {
    ResetAll();
    SetAuditEnabled(false);
    SetEnabled(false);
  }
  static void ResetAll() {
    ResetMetrics();
    ResetTrace();
    ResetFlight();
    ResetJourneys();
    SetJourneySamplePeriod(kDefaultJourneySamplePeriod);
  }
};

TEST_F(LifecycleTest, RetiredSpansStayCappedAcrossThreadExits) {
  // 17 full rings, retired one thread at a time: the 17th overflows the cap.
  for (size_t t = 1; t <= 17; ++t) {
    std::thread([] {
      for (size_t i = 0; i < kSpanRingCapacity; ++i) {
        SpanGuard span("test.retire");
      }
    }).join();
    const size_t recorded = t * kSpanRingCapacity;
    const TraceSnapshot snap = SnapshotTrace();
    ASSERT_EQ(snap.spans.size(), std::min(recorded, kRetiredCap)) << t;
    ASSERT_EQ(snap.dropped, recorded - snap.spans.size()) << t;
  }
  EXPECT_EQ(SnapshotTrace().dropped, 17 * kSpanRingCapacity - kRetiredCap);
}

TEST_F(LifecycleTest, RetiredFlightEventsStayCappedAcrossThreadExits) {
  // 65 full rings, retired one thread at a time: the 65th overflows the cap.
  for (size_t t = 1; t <= 65; ++t) {
    std::thread([] {
      for (size_t i = 0; i < kFlightRingCapacity; ++i) {
        FlightRecord(i, "test.retire", "fill");
      }
    }).join();
    const size_t recorded = t * kFlightRingCapacity;
    const FlightSnapshot snap = SnapshotFlight();
    ASSERT_EQ(snap.events.size(), std::min(recorded, kRetiredCap)) << t;
    ASSERT_EQ(snap.dropped, recorded - snap.events.size()) << t;
  }
  EXPECT_EQ(SnapshotFlight().dropped, 65 * kFlightRingCapacity - kRetiredCap);
}

TEST_F(LifecycleTest, JourneysOfAnExitedWorkerAreRetainedWithTheirDrops) {
  SetJourneySamplePeriod(1);
  std::thread([] {
    JourneyRun run("test.worker");
    for (size_t i = 0; i < kJourneyCapacity + 7; ++i) {
      JourneyRecord record;
      record.request = i;
      run.Record(record);
    }
  }).join();
  const JourneySnapshot snap = SnapshotJourneys();
  ASSERT_EQ(snap.journeys.size(), kJourneyCapacity);
  EXPECT_EQ(snap.dropped, 7u);
  EXPECT_STREQ(snap.journeys.front().stream, "test.worker");
  EXPECT_EQ(snap.journeys.front().request, 0u);
  EXPECT_EQ(snap.journeys.back().request, kJourneyCapacity - 1);
}

TEST_F(LifecycleTest, ThreadsCarryDistinctTidsSharedByBothRings) {
  const char* const names[] = {"test.tid0", "test.tid1"};
  for (int64_t t = 0; t < 2; ++t) {
    std::thread([&names, t] {
      { SpanGuard span(names[t]); }
      FlightRecord(0, "test.tid", "record", t);
    }).join();
  }
  int32_t span_tid[2] = {-1, -1};
  for (const TraceSpan& span : SnapshotTrace().spans) {
    for (int t = 0; t < 2; ++t) {
      if (std::string(span.name) == names[t]) span_tid[t] = span.tid;
    }
  }
  int32_t flight_tid[2] = {-1, -1};
  for (const FlightEvent& e : SnapshotFlight().events) {
    flight_tid[e.entity] = e.tid;
  }
  ASSERT_GE(span_tid[0], 0);
  ASSERT_GE(span_tid[1], 0);
  EXPECT_NE(span_tid[0], span_tid[1]);
  EXPECT_NE(flight_tid[0], flight_tid[1]);
  // One process-wide thread index: a thread's spans and events agree.
  EXPECT_EQ(span_tid[0], flight_tid[0]);
  EXPECT_EQ(span_tid[1], flight_tid[1]);
}

#endif  // !SDS_OBS_DISABLED

}  // namespace
}  // namespace sds::obs
