#include "obs/metrics.h"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/sweep.h"
#include "core/workload.h"
#include "obs/export.h"
#include "obs/journey.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/json.h"

namespace sds::obs {
namespace {

/// Every test runs against the shared process-wide registry, so each one
/// starts from a clean, enabled slate and restores the disabled default.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    ResetMetrics();
    ResetTrace();
  }
  void TearDown() override {
    SetEnabled(false);
    ResetMetrics();
    ResetTrace();
  }
};

#ifndef SDS_OBS_DISABLED

TEST_F(ObsTest, CounterGaugeDistributionRoundTrip) {
  Count("test.requests");
  Count("test.requests", 4.0);
  Count("test.bytes", 1536.0);
  GaugeMax("test.depth", 3.0);
  GaugeMax("test.depth", 7.0);
  GaugeMax("test.depth", 5.0);  // lower than the high-water mark
  Observe("test.latency_s", 0.25);
  Observe("test.latency_s", 1.0);
  Observe("test.latency_s", 4.0);

  const MetricsSnapshot snap = SnapshotMetrics();
  EXPECT_DOUBLE_EQ(snap.counters.at("test.requests"), 5.0);
  EXPECT_DOUBLE_EQ(snap.counters.at("test.bytes"), 1536.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.depth"), 7.0);
  const DistData& dist = snap.distributions.at("test.latency_s");
  EXPECT_DOUBLE_EQ(dist.count, 3.0);
  EXPECT_DOUBLE_EQ(dist.sum, 5.25);
  EXPECT_DOUBLE_EQ(dist.min, 0.25);
  EXPECT_DOUBLE_EQ(dist.max, 4.0);
  EXPECT_DOUBLE_EQ(dist.mean(), 1.75);
}

TEST_F(ObsTest, SnapshotIsBitIdenticalAtAnyWorkerCount) {
  // Non-integer values, whose floating-point sums depend on the order they
  // are added in: the rolled-up counter and distribution must not depend
  // on which worker ran which point or on when the workers exited. Each
  // point sleeps briefly so that every worker gets a share of the points.
  const auto run_at = [](uint32_t workers) {
    ResetMetrics();
    core::SweepMap(64, {.workers = workers, .seed = 7},
                   [](size_t index, Rng& rng) {
                     std::this_thread::sleep_for(std::chrono::milliseconds(1));
                     for (int k = 0; k < 16; ++k) {
                       const double v =
                           rng.NextDouble() * 1e3 + 1.0 / (index + 3.0);
                       Count("obs_test.weight", v);
                       Observe("obs_test.weight_dist", v);
                     }
                     return 0;
                   });
    return SnapshotMetrics();
  };
  const MetricsSnapshot serial = run_at(1);
  const MetricsSnapshot parallel = run_at(4);
  ASSERT_EQ(serial.point_counters.size(), 64u);
  EXPECT_EQ(std::bit_cast<uint64_t>(serial.counters.at("obs_test.weight")),
            std::bit_cast<uint64_t>(parallel.counters.at("obs_test.weight")));
  for (const auto& [point, counters] : serial.point_counters) {
    EXPECT_EQ(std::bit_cast<uint64_t>(counters.at("obs_test.weight")),
              std::bit_cast<uint64_t>(
                  parallel.point_counters.at(point).at("obs_test.weight")))
        << "point " << point;
  }
  const DistData& a = serial.distributions.at("obs_test.weight_dist");
  const DistData& b = parallel.distributions.at("obs_test.weight_dist");
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.sum), std::bit_cast<uint64_t>(b.sum));
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST_F(ObsTest, DisabledRecordingIsDropped) {
  SetEnabled(false);
  Count("test.invisible");
  Observe("test.invisible_dist", 1.0);
  GaugeMax("test.invisible_gauge", 1.0);
  SetEnabled(true);
  EXPECT_TRUE(SnapshotMetrics().empty());
}

TEST_F(ObsTest, ResetClearsEverything) {
  Count("test.reset_me", 9.0);
  Observe("test.reset_dist", 2.0);
  ASSERT_FALSE(SnapshotMetrics().empty());
  ResetMetrics();
  EXPECT_TRUE(SnapshotMetrics().empty());
}

TEST_F(ObsTest, ScopedPointAttributesCounters) {
  EXPECT_EQ(CurrentPoint(), kNoPoint);
  Count("test.global_only", 1.0);
  {
    ScopedPoint point(7);
    EXPECT_EQ(CurrentPoint(), 7);
    Count("test.per_point", 2.0);
    {
      ScopedPoint nested(8);
      EXPECT_EQ(CurrentPoint(), 8);
      Count("test.per_point", 1.0);
    }
    EXPECT_EQ(CurrentPoint(), 7);
  }
  EXPECT_EQ(CurrentPoint(), kNoPoint);

  const MetricsSnapshot snap = SnapshotMetrics();
  // Per-point counters roll up into the global total as well.
  EXPECT_DOUBLE_EQ(snap.counters.at("test.per_point"), 3.0);
  EXPECT_DOUBLE_EQ(snap.point_counters.at(7).at("test.per_point"), 2.0);
  EXPECT_DOUBLE_EQ(snap.point_counters.at(8).at("test.per_point"), 1.0);
  EXPECT_EQ(snap.point_counters.count(kNoPoint), 0u);
  EXPECT_EQ(snap.point_counters.at(7).count("test.global_only"), 0u);
}

TEST_F(ObsTest, ThreadShardsMergeOnExit) {
  // Worker threads accumulate privately and merge at join — the same
  // lifecycle RunSweep gives its pool.
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([t] {
      ScopedPoint point(t);
      Count("test.thread_work", 10.0);
      GaugeMax("test.thread_peak", static_cast<double>(t));
      Observe("test.thread_dist", static_cast<double>(t + 1));
    });
  }
  for (auto& thread : pool) thread.join();

  const MetricsSnapshot snap = SnapshotMetrics();
  EXPECT_DOUBLE_EQ(snap.counters.at("test.thread_work"), 40.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.thread_peak"), 3.0);  // max wins
  EXPECT_DOUBLE_EQ(snap.distributions.at("test.thread_dist").count, 4.0);
  for (int64_t t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(snap.point_counters.at(t).at("test.thread_work"), 10.0);
  }
}

TEST_F(ObsTest, DistBucketEdges) {
  EXPECT_EQ(DistBucketIndex(0.0), 0u);
  EXPECT_EQ(DistBucketIndex(-5.0), 0u);
  EXPECT_EQ(DistBucketIndex(std::nan("")), 0u);
  // 1.0 = 0.5 * 2^1 -> bucket 33, whose inclusive lower edge is 1.0.
  EXPECT_EQ(DistBucketIndex(1.0), 33u);
  EXPECT_DOUBLE_EQ(DistBucketLo(33), 1.0);
  EXPECT_EQ(DistBucketIndex(1.5), 33u);
  EXPECT_EQ(DistBucketIndex(2.0), 34u);
  EXPECT_EQ(DistBucketIndex(0.75), 32u);
  // Extremes clamp instead of indexing out of range.
  EXPECT_EQ(DistBucketIndex(1e300), kDistBuckets - 1);
  EXPECT_LT(DistBucketIndex(1e-300), kDistBuckets);
  // Monotone: lower edges increase with the bucket index.
  for (size_t b = 1; b + 1 < kDistBuckets; ++b) {
    EXPECT_LT(DistBucketLo(b), DistBucketLo(b + 1)) << b;
  }
}

TEST_F(ObsTest, SnapshotJsonIsWellFormedAndOrdered) {
  Count("b.second", 2.0);
  Count("a.first", 1.0);
  {
    ScopedPoint point(3);
    Count("a.first", 4.0);
  }
  Observe("d.dist", 1.5);
  GaugeMax("c.gauge", 9.0);
  const std::string json = SnapshotMetrics().ToJson();
  // Sections in schema order, keys in lexical order within a section.
  const size_t counters_pos = json.find("\"counters\"");
  const size_t gauges_pos = json.find("\"gauges\"");
  const size_t dists_pos = json.find("\"distributions\"");
  const size_t points_pos = json.find("\"points\"");
  ASSERT_NE(counters_pos, std::string::npos);
  EXPECT_LT(counters_pos, gauges_pos);
  EXPECT_LT(gauges_pos, dists_pos);
  EXPECT_LT(dists_pos, points_pos);
  EXPECT_LT(json.find("\"a.first\": 5"), json.find("\"b.second\": 2"));
  EXPECT_NE(json.find("\"c.gauge\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"d.dist\""), std::string::npos);
  EXPECT_NE(json.find("\"3\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check; CI runs a real
  // JSON parser over the bench reports).
  long depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(ObsTest, EmptySnapshotJson) {
  const std::string json = MetricsSnapshot{}.ToJson();
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"points\": {}"), std::string::npos);
}

TEST_F(ObsTest, SpanGuardRecordsWallTimeBytesAndPoint) {
  {
    ScopedPoint point(11);
    SpanGuard span("test.stage");
    span.AddBytes(123.0);
    span.AddBytes(877.0);
  }
  const TraceSnapshot snap = SnapshotTrace();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_STREQ(snap.spans[0].name, "test.stage");
  EXPECT_GE(snap.spans[0].dur_s, 0.0);
  EXPECT_DOUBLE_EQ(snap.spans[0].bytes, 1000.0);
  EXPECT_EQ(snap.spans[0].point, 11);
  EXPECT_EQ(snap.dropped, 0u);
}

TEST_F(ObsTest, DisabledSpanGuardRecordsNothing) {
  SetEnabled(false);
  { SpanGuard span("test.invisible"); }
  SetEnabled(true);
  EXPECT_TRUE(SnapshotTrace().spans.empty());
}

TEST_F(ObsTest, SpanRingOverflowCountsDrops) {
  for (size_t i = 0; i < kSpanRingCapacity + 100; ++i) {
    SpanGuard span("test.flood");
  }
  const TraceSnapshot snap = SnapshotTrace();
  EXPECT_EQ(snap.spans.size(), kSpanRingCapacity);
  EXPECT_EQ(snap.dropped, 100u);
}

TEST_F(ObsTest, SpansAreSortedByStartAcrossThreads) {
  std::vector<std::thread> pool;
  for (int t = 0; t < 3; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < 20; ++i) SpanGuard span("test.sorted");
    });
  }
  for (auto& thread : pool) thread.join();
  const TraceSnapshot snap = SnapshotTrace();
  ASSERT_EQ(snap.spans.size(), 60u);
  for (size_t i = 1; i < snap.spans.size(); ++i) {
    EXPECT_LE(snap.spans[i - 1].start_s, snap.spans[i].start_s);
  }
}

// ---------------------------------------------------------------------------
// Escaping regression: metric names are caller-supplied strings, and a name
// containing a quote, backslash, or control character must not corrupt the
// emitted JSON. Validated with the in-repo parser, which rejects raw
// control characters and unbalanced quoting outright.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, MetricsJsonEscapesHostileNames) {
  MetricsSnapshot snap;
  const std::string hostile = "evil\"name\\with\ncontrol\tchars";
  snap.counters[hostile] = 1.0;
  snap.gauges[hostile] = 2.0;
  snap.distributions[hostile].Add(3.0);
  snap.point_counters[0][hostile] = 4.0;

  const Result<JsonValue> parsed = ParseJson(snap.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* counter = parsed.value().FindPath({"counters"});
  ASSERT_NE(counter, nullptr);
  ASSERT_NE(counter->Find(hostile), nullptr);
  EXPECT_DOUBLE_EQ(counter->Find(hostile)->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(parsed.value().FindPath({"gauges"})->Find(hostile)
                       ->AsNumber(), 2.0);
  EXPECT_NE(parsed.value().FindPath({"distributions"})->Find(hostile),
            nullptr);
  EXPECT_DOUBLE_EQ(parsed.value().FindPath({"points", "0"})->Find(hostile)
                       ->AsNumber(), 4.0);
}

// ---------------------------------------------------------------------------
// The load-bearing contract: instrumentation must not perturb simulation
// results. The golden Fig6 grid numbers below are the exact values pinned
// by tests/core/sweep_test.cc with observability off; this fixture runs
// the same sweep with it ON and expects bit-identical metrics, plus the
// per-point counters the BENCH reports export.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, InstrumentedSweepIsBitIdenticalAndAttributesPoints) {
  const core::Workload workload = core::MakeWorkload(core::SmallConfig());
  const core::Fig5Result result =
      core::RunFig5(workload, {1.0, 0.5, 0.2}, {.workers = 2});
  ASSERT_EQ(result.points.size(), 3u);
  const struct {
    double bw, load, time, miss;
  } expected[] = {
      {1.0041881918724975, 0.96365539934190847, 0.95258184119938183,
       0.94146243872170432},
      {1.0634609410122278, 0.69383787017648824, 0.64808137762783535,
       0.60213545400809099},
      {1.2877901684453081, 0.5937780436733473, 0.5725091738996323,
       0.55115225138066248},
  };
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result.points[i].metrics.bandwidth_ratio, expected[i].bw) << i;
    EXPECT_EQ(result.points[i].metrics.server_load_ratio, expected[i].load)
        << i;
    EXPECT_EQ(result.points[i].metrics.service_time_ratio, expected[i].time)
        << i;
    EXPECT_EQ(result.points[i].metrics.miss_rate_ratio, expected[i].miss) << i;
  }

  const MetricsSnapshot snap = SnapshotMetrics();
  // The sweep ran its points and the simulators reported their counters.
  EXPECT_DOUBLE_EQ(snap.counters.at("sweep.points"), 3.0);
  EXPECT_GE(snap.counters.at("spec.runs"), 3.0);
  EXPECT_GT(snap.counters.at("spec.client_requests"), 0.0);
  EXPECT_GT(snap.counters.at("spec.speculative_hits"), 0.0);
  EXPECT_GT(snap.counters.at("spec.delta_cache.hits") +
                snap.counters.at("spec.delta_cache.misses"),
            0.0);
  // Per-point attribution: every sweep point saw client requests.
  for (int64_t p = 0; p < 3; ++p) {
    EXPECT_GT(snap.point_counters.at(p).at("spec.client_requests"), 0.0)
        << "point " << p;
  }
  EXPECT_GT(snap.distributions.at("sweep.point_wall_s").count, 0.0);
  // And the tracer captured the per-point spans.
  size_t point_spans = 0;
  for (const TraceSpan& span : SnapshotTrace().spans) {
    if (std::string(span.name) == "sweep.point") ++point_spans;
  }
  EXPECT_EQ(point_spans, 3u);
}

#else  // SDS_OBS_DISABLED

TEST_F(ObsTest, CompiledOutLayerIsInert) {
  SetEnabled(true);  // no-op stub
  EXPECT_FALSE(Enabled());
  Count("test.noop");
  GaugeMax("test.noop", 1.0);
  Observe("test.noop", 1.0);
  { SpanGuard span("test.noop"); }
  EXPECT_EQ(CurrentPoint(), kNoPoint);
  EXPECT_TRUE(SnapshotMetrics().empty());
  EXPECT_TRUE(SnapshotTrace().spans.empty());

  // The second-layer recorders compile to the same inert stubs.
  TsCount("test.noop", 0.0);
  TsCount("test.noop", 3600.0, 5.0);
  SetTimeSeriesWindow(60.0);
  EXPECT_DOUBLE_EQ(TimeSeriesWindow(), kDefaultTimeSeriesWindowS);
  EXPECT_TRUE(SnapshotTimeSeries().empty());
  ResetTimeSeries();
  EXPECT_FALSE(WriteTimeSeriesCsv("/tmp/never_written.csv"));

  {
    ScopedJourneySeed seed(42);
    JourneyRun run("test.noop");
    EXPECT_FALSE(run.active());
    EXPECT_FALSE(run.Sample(0));
    run.Record({});
  }
  SetJourneySamplePeriod(1);
  EXPECT_EQ(JourneySamplePeriod(), kDefaultJourneySamplePeriod);
  EXPECT_TRUE(SnapshotJourneys().journeys.empty());
  ResetJourneys();
  EXPECT_FALSE(WriteJourneys("/tmp/never_written.json"));

  EXPECT_FALSE(WritePrometheus("/tmp/never_written.prom"));
  EXPECT_FALSE(WriteChromeTrace("/tmp/never_written.trace.json"));

  // The pure renderers stay available in this flavor (tools still link).
  EXPECT_DOUBLE_EQ(DistQuantile(DistData{}, 0.5), 0.0);
  MetricsSnapshot one_counter;
  one_counter.counters["test.render"] = 1.0;
  EXPECT_NE(MetricsToPrometheus(one_counter).find("sds_test_render_total"),
            std::string::npos);
  EXPECT_FALSE(ChromeTraceJson(TraceSnapshot{}, TimeSeriesSnapshot{},
                               JourneySnapshot{})
                   .empty());
}

#endif  // SDS_OBS_DISABLED

}  // namespace
}  // namespace sds::obs
