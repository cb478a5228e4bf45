#include "obs/journey.h"

#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/sweep.h"
#include "core/workload.h"
#include "obs/metrics.h"
#include "util/json.h"

namespace sds::obs {
namespace {

#ifndef SDS_OBS_DISABLED

/// Every journey of the JSON dump carries exactly the documented fields.
void ExpectJourneyFields(const JourneySnapshot& snapshot) {
  static const std::set<std::string> kFields = {
      "stream", "point", "run", "request", "time_s", "client", "doc",
      "served_by", "hops", "failover_depth", "retries", "pushed_docs",
      "response_bytes", "queue_s", "transfer_s", "backoff_s"};
  const Result<JsonValue> parsed = ParseJson(snapshot.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* journeys = parsed.value().Find("journeys");
  ASSERT_NE(journeys, nullptr);
  ASSERT_FALSE(journeys->items().empty());
  for (const JsonValue& j : journeys->items()) {
    std::set<std::string> fields;
    for (const auto& [key, value] : j.members()) fields.insert(key);
    EXPECT_EQ(fields, kFields);
  }
}

class JourneyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    ResetMetrics();
    ResetJourneys();
    SetJourneySamplePeriod(kDefaultJourneySamplePeriod);
  }
  void TearDown() override {
    SetEnabled(false);
    ResetMetrics();
    ResetJourneys();
    SetJourneySamplePeriod(kDefaultJourneySamplePeriod);
  }
};

TEST_F(JourneyTest, SamplerIsAPureFunctionOfSeedAndIndex) {
  SetJourneySamplePeriod(8);
  std::vector<bool> first;
  {
    ScopedJourneySeed seed(12345);
    JourneyRun run("test");
    for (uint64_t i = 0; i < 256; ++i) first.push_back(run.Sample(i));
  }
  ResetJourneys();
  {
    ScopedJourneySeed seed(12345);
    JourneyRun run("test");
    for (uint64_t i = 0; i < 256; ++i) {
      EXPECT_EQ(run.Sample(i), first[i]) << i;
    }
  }
  // A different seed samples a different set (overwhelmingly likely for
  // 256 draws at period 8).
  ResetJourneys();
  {
    ScopedJourneySeed seed(99999);
    JourneyRun run("test");
    bool any_differs = false;
    for (uint64_t i = 0; i < 256; ++i) {
      if (run.Sample(i) != first[i]) any_differs = true;
    }
    EXPECT_TRUE(any_differs);
  }
  // Period 1 samples everything.
  SetJourneySamplePeriod(1);
  ResetJourneys();
  {
    ScopedJourneySeed seed(12345);
    JourneyRun run("test");
    for (uint64_t i = 0; i < 64; ++i) EXPECT_TRUE(run.Sample(i));
  }
}

TEST_F(JourneyTest, RunOrdinalsAdvancePerPoint) {
  {
    ScopedPoint point(3);
    JourneyRun a("test");
    JourneyRun b("test");
    a.Record({});
    b.Record({});
  }
  {
    ScopedPoint point(9);
    JourneyRun c("test");
    c.Record({});
  }
  const JourneySnapshot snap = SnapshotJourneys();
  ASSERT_EQ(snap.journeys.size(), 3u);
  EXPECT_EQ(snap.journeys[0].point, 3);
  EXPECT_EQ(snap.journeys[0].run, 0u);
  EXPECT_EQ(snap.journeys[1].point, 3);
  EXPECT_EQ(snap.journeys[1].run, 1u);
  // A fresh point starts its ordinals at zero again.
  EXPECT_EQ(snap.journeys[2].point, 9);
  EXPECT_EQ(snap.journeys[2].run, 0u);
}

TEST_F(JourneyTest, RecordStampsRunIdentityAndSnapshotSorts) {
  SetJourneySamplePeriod(1);
  {
    ScopedPoint point(5);
    JourneyRun run("test");
    // Record out of order; the snapshot must sort by request.
    JourneyRecord second;
    second.request = 2;
    second.doc = 42;
    run.Record(second);
    JourneyRecord first;
    first.request = 1;
    run.Record(first);
  }
  const JourneySnapshot snap = SnapshotJourneys();
  ASSERT_EQ(snap.journeys.size(), 2u);
  EXPECT_EQ(snap.journeys[0].request, 1u);
  EXPECT_EQ(snap.journeys[1].request, 2u);
  EXPECT_EQ(snap.journeys[1].doc, 42);
  EXPECT_EQ(snap.journeys[0].point, 5);
  EXPECT_STREQ(snap.journeys[0].stream, "test");
}

TEST_F(JourneyTest, DisabledRunRecordsNothing) {
  SetEnabled(false);
  JourneyRun run("test");
  EXPECT_FALSE(run.active());
  EXPECT_FALSE(run.Sample(0));
  run.Record({});
  SetEnabled(true);
  EXPECT_TRUE(SnapshotJourneys().journeys.empty());
}

TEST_F(JourneyTest, CapacityCapCountsDrops) {
  SetJourneySamplePeriod(1);
  JourneyRun run("test");
  for (size_t i = 0; i < kJourneyCapacity + 50; ++i) {
    JourneyRecord j;
    j.request = i;
    run.Record(j);
  }
  const JourneySnapshot snap = SnapshotJourneys();
  EXPECT_EQ(snap.journeys.size(), kJourneyCapacity);
  EXPECT_EQ(snap.dropped, 50u);
}

TEST_F(JourneyTest, JsonIsParseableAndCarriesFields) {
  SetJourneySamplePeriod(1);
  {
    ScopedPoint point(2);
    JourneyRun run("test");
    JourneyRecord j;
    j.request = 7;
    j.time_s = 123.5;
    j.client = 11;
    j.doc = 13;
    j.served_by = kServedByCache;
    j.retries = 1;
    j.response_bytes = 2048.0;
    j.queue_s = 0.25;
    run.Record(j);
  }
  const std::string json = SnapshotJourneys().ToJson();
  const Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* journeys = parsed.value().Find("journeys");
  ASSERT_NE(journeys, nullptr);
  ASSERT_EQ(journeys->items().size(), 1u);
  const JsonValue& j = journeys->items()[0];
  EXPECT_EQ(j.Find("stream")->AsString(), "test");
  EXPECT_DOUBLE_EQ(j.Find("request")->AsNumber(), 7.0);
  EXPECT_DOUBLE_EQ(j.Find("time_s")->AsNumber(), 123.5);
  EXPECT_DOUBLE_EQ(j.Find("served_by")->AsNumber(),
                   static_cast<double>(kServedByCache));
  EXPECT_DOUBLE_EQ(j.Find("queue_s")->AsNumber(), 0.25);
  EXPECT_DOUBLE_EQ(j.Find("point")->AsNumber(), 2.0);
  ExpectJourneyFields(SnapshotJourneys());
}

// ---------------------------------------------------------------------------
// The acceptance contract: the sampled journey set is bit-identical across
// sweep worker counts (1, 2, and the hardware default), because sampling
// is keyed on (sweep point seed, request index) and run ordinals are
// assigned per point rather than per thread.
// ---------------------------------------------------------------------------

bool SameJourney(const JourneyRecord& a, const JourneyRecord& b) {
  return std::string(a.stream) == b.stream && a.point == b.point &&
         a.run == b.run && a.request == b.request && a.time_s == b.time_s &&
         a.client == b.client && a.doc == b.doc &&
         a.served_by == b.served_by && a.hops == b.hops &&
         a.failover_depth == b.failover_depth && a.retries == b.retries &&
         a.pushed_docs == b.pushed_docs &&
         a.response_bytes == b.response_bytes && a.queue_s == b.queue_s &&
         a.transfer_s == b.transfer_s && a.backoff_s == b.backoff_s;
}

TEST_F(JourneyTest, SampledSetIsWorkerCountInvariant) {
  SetJourneySamplePeriod(16);
  const core::Workload workload = core::MakeWorkload(core::SmallConfig());

  const auto run_at = [&](uint32_t workers) {
    ResetJourneys();
    ResetMetrics();
    core::RunFig5(workload, {1.0, 0.5, 0.2}, {.workers = workers});
    return SnapshotJourneys();
  };

  const JourneySnapshot serial = run_at(1);
  ASSERT_FALSE(serial.journeys.empty());
  ExpectJourneyFields(serial);

  const uint32_t hw = core::ResolveSweepWorkers(0);
  for (const uint32_t workers : {2u, hw}) {
    const JourneySnapshot parallel = run_at(workers);
    ASSERT_EQ(serial.journeys.size(), parallel.journeys.size())
        << workers << " workers";
    for (size_t i = 0; i < serial.journeys.size(); ++i) {
      EXPECT_TRUE(SameJourney(serial.journeys[i], parallel.journeys[i]))
          << "journey " << i << " differs at " << workers << " workers";
    }
  }
}

#endif  // !SDS_OBS_DISABLED

}  // namespace
}  // namespace sds::obs
