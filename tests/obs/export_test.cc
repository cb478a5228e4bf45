#include "obs/export.h"

#include <cstdlib>
#include <map>
#include <regex>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/workload.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/json.h"

namespace sds::obs {
namespace {

// The exporters are pure functions over snapshots, so this suite runs in
// both build flavors (including -DSDS_OBS=OFF); only the fig5 case at the
// end needs the recorders.

/// Prometheus text exposition 0.0.4: every sample line is `name{labels}
/// value`, every TYPE line declares a counter, gauge or histogram, and the
/// text has samples and at least one `sds_` family.
void ExpectPrometheusExposition(const std::string& text) {
  static const std::regex kSample(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9].*$)");
  std::istringstream lines(text);
  std::string line;
  size_t samples = 0;
  bool sds_family = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name;
      std::string kind;
      fields >> name >> kind;
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
          << line;
      sds_family |= name.rfind("sds_", 0) == 0;
    } else if (line[0] != '#') {
      EXPECT_TRUE(std::regex_match(line, kSample)) << "bad sample: " << line;
      ++samples;
    }
  }
  EXPECT_TRUE(sds_family);
  EXPECT_GT(samples, 0u);
}

/// Chrome trace-event JSON as Perfetto loads it: every event has ph, pid,
/// tid and name; phases are M, X or C, with at least the three process
/// names, one X and one C; X and C events carry ts, X events a dur >= 0,
/// and the stage spans (pid 0) carry args.bytes and args.point.
void ExpectChromeTraceSchema(const std::string& json) {
  const Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, size_t> phases;
  size_t stage_spans = 0;
  for (const JsonValue& e : events->items()) {
    for (const char* key : {"ph", "pid", "tid", "name"}) {
      ASSERT_NE(e.Find(key), nullptr) << "event without " << key;
    }
    const std::string ph = e.Find("ph")->AsString();
    ASSERT_TRUE(ph == "M" || ph == "X" || ph == "C") << "phase " << ph;
    ++phases[ph];
    if (ph == "M") continue;
    EXPECT_NE(e.Find("ts"), nullptr) << ph << " event without ts";
    if (ph != "X") continue;
    ASSERT_NE(e.Find("dur"), nullptr);
    EXPECT_GE(e.Find("dur")->AsNumber(), 0.0);
    if (e.Find("pid")->AsNumber() == 0.0) {
      ++stage_spans;
      EXPECT_NE(e.FindPath({"args", "bytes"}), nullptr);
      EXPECT_NE(e.FindPath({"args", "point"}), nullptr);
    }
  }
  EXPECT_GE(phases["M"], 3u);
  EXPECT_GT(phases["X"], 0u);
  EXPECT_GT(phases["C"], 0u);
  EXPECT_GT(stage_spans, 0u);
}

DistData MakeDist(std::initializer_list<double> values) {
  DistData dist;
  for (const double v : values) dist.Add(v);
  return dist;
}

TEST(DistQuantileTest, EmptyDistributionIsZero) {
  EXPECT_DOUBLE_EQ(DistQuantile(DistData{}, 0.5), 0.0);
}

TEST(DistQuantileTest, SingleValuedDistributionIsExact) {
  const DistData dist = MakeDist({3.25, 3.25, 3.25, 3.25});
  for (const double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(DistQuantile(dist, q), 3.25) << q;
  }
}

TEST(DistQuantileTest, EndpointsAreMinAndMax) {
  const DistData dist = MakeDist({1.0, 2.0, 4.0, 8.0, 100.0});
  EXPECT_DOUBLE_EQ(DistQuantile(dist, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(DistQuantile(dist, 1.0), 100.0);
  // Out-of-range quantiles clamp to the endpoints.
  EXPECT_DOUBLE_EQ(DistQuantile(dist, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(DistQuantile(dist, 1.5), 100.0);
}

TEST(DistQuantileTest, MonotoneInQuantile) {
  const DistData dist =
      MakeDist({0.1, 0.5, 1.0, 1.5, 2.0, 4.0, 8.0, 8.5, 100.0, 1000.0});
  double previous = DistQuantile(dist, 0.0);
  for (int step = 1; step <= 100; ++step) {
    const double q = static_cast<double>(step) / 100.0;
    const double value = DistQuantile(dist, q);
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
}

TEST(DistQuantileTest, InterpolatesWithinBucketsOnAKnownDistribution) {
  // Four samples in four distinct log2 buckets: [1,2) [2,4) [4,8) [8,16).
  const DistData dist = MakeDist({1.0, 2.0, 4.0, 8.0});
  // rank(0.5) = 2 falls at the boundary of the second bucket, whose
  // [lo, hi) is [2, 4): interpolation returns its upper edge region.
  const double p50 = DistQuantile(dist, 0.5);
  EXPECT_GE(p50, 2.0);
  EXPECT_LE(p50, 4.0);
  // All estimates live inside [min, max].
  for (int step = 0; step <= 20; ++step) {
    const double q = static_cast<double>(step) / 20.0;
    const double v = DistQuantile(dist, q);
    EXPECT_GE(v, dist.min);
    EXPECT_LE(v, dist.max);
  }
}

TEST(DistQuantileTest, TightensOutermostBucketsToObservedExtremes) {
  // Both samples land in the [2, 4) bucket; the naive bucket edges would
  // report quantiles outside [3.0, 3.5].
  const DistData dist = MakeDist({3.0, 3.5});
  EXPECT_DOUBLE_EQ(DistQuantile(dist, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(DistQuantile(dist, 1.0), 3.5);
  for (int step = 0; step <= 10; ++step) {
    const double v = DistQuantile(dist, static_cast<double>(step) / 10.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LE(v, 3.5);
  }
}

TEST(PrometheusTest, SanitizesNames) {
  EXPECT_EQ(PrometheusName("spec.delta_cache.hits"),
            "spec_delta_cache_hits");
  EXPECT_EQ(PrometheusName("already_fine:ok"), "already_fine:ok");
  EXPECT_EQ(PrometheusName("9starts_with_digit"), "_9starts_with_digit");
  EXPECT_EQ(PrometheusName("weird name/with\"chars"),
            "weird_name_with_chars");
}

TEST(PrometheusTest, RendersCountersGaugesAndHistograms) {
  MetricsSnapshot snap;
  snap.counters["spec.runs"] = 6.0;
  snap.point_counters[0]["spec.runs"] = 2.0;
  snap.point_counters[1]["spec.runs"] = 4.0;
  snap.gauges["queue.max_depth"] = 17.0;
  snap.distributions["queue.response_s"] = MakeDist({0.5, 1.0, 3.0});

  const std::string text = MetricsToPrometheus(snap);
  EXPECT_NE(text.find("# TYPE sds_spec_runs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("sds_spec_runs_total{point=\"all\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("sds_spec_runs_total{point=\"0\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("sds_spec_runs_total{point=\"1\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sds_queue_max_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("sds_queue_max_depth 17"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sds_queue_response_s histogram"),
            std::string::npos);
  // The +Inf bucket equals the count, and sum/count lines close the
  // family.
  EXPECT_NE(text.find("sds_queue_response_s_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("sds_queue_response_s_sum 4.5"), std::string::npos);
  EXPECT_NE(text.find("sds_queue_response_s_count 3"), std::string::npos);
  // Exposition format ends every line with \n (prom lint requirement).
  EXPECT_EQ(text.back(), '\n');
  ExpectPrometheusExposition(text);
}

TEST(PrometheusTest, HistogramBucketsAreCumulative) {
  MetricsSnapshot snap;
  snap.distributions["d"] = MakeDist({1.0, 2.0, 2.5, 4.0});
  const std::string text = MetricsToPrometheus(snap);
  // Buckets: [1,2) holds 1, [2,4) holds 2, [4,8) holds 1 -> cumulative
  // counts 1, 3, 4 at le 2, 4, 8.
  EXPECT_NE(text.find("sds_d_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("sds_d_bucket{le=\"4\"} 3"), std::string::npos);
  EXPECT_NE(text.find("sds_d_bucket{le=\"8\"} 4"), std::string::npos);
}

TEST(ChromeTraceTest, EmptySnapshotsStillParse) {
  const std::string json =
      ChromeTraceJson(TraceSnapshot{}, TimeSeriesSnapshot{},
                      JourneySnapshot{});
  const Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Only the three process_name metadata events.
  EXPECT_EQ(events->items().size(), 3u);
}

TEST(ChromeTraceTest, RendersSpansSeriesAndJourneys) {
  TraceSnapshot trace;
  trace.spans.push_back(TraceSpan{"stage.a", 0.5, 0.25, 64.0, 7, 1});

  TimeSeriesSnapshot ts;
  ts.window_s = 100.0;
  ts.total["spec.server_requests"][2] = 12.0;

  JourneySnapshot journeys;
  JourneyRecord j;
  j.stream = "spec";
  j.point = 7;
  j.run = 1;
  j.request = 33;
  j.time_s = 250.0;
  j.client = 4;
  j.doc = 9;
  j.served_by = kServedByServer;
  j.retries = 2;
  j.response_bytes = 512.0;
  j.transfer_s = 0.125;
  journeys.journeys.push_back(j);

  const std::string json = ChromeTraceJson(trace, ts, journeys);
  const Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);

  bool saw_span = false;
  bool saw_counter = false;
  bool saw_journey = false;
  for (const JsonValue& e : events->items()) {
    const std::string ph = e.Find("ph")->AsString();
    const std::string name = e.Find("name")->AsString();
    if (ph == "X" && name == "stage.a") {
      saw_span = true;
      EXPECT_DOUBLE_EQ(e.Find("pid")->AsNumber(), 0.0);
      EXPECT_DOUBLE_EQ(e.Find("ts")->AsNumber(), 0.5 * 1e6);
      EXPECT_DOUBLE_EQ(e.Find("dur")->AsNumber(), 0.25 * 1e6);
      EXPECT_DOUBLE_EQ(e.FindPath({"args", "point"})->AsNumber(), 7.0);
    }
    if (ph == "C" && name == "spec.server_requests") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(e.Find("pid")->AsNumber(), 1.0);
      EXPECT_DOUBLE_EQ(e.Find("ts")->AsNumber(), 2.0 * 100.0 * 1e6);
      EXPECT_DOUBLE_EQ(e.FindPath({"args", "value"})->AsNumber(), 12.0);
    }
    if (ph == "X" && name == "spec") {
      saw_journey = true;
      EXPECT_DOUBLE_EQ(e.Find("pid")->AsNumber(), 2.0);
      EXPECT_DOUBLE_EQ(e.Find("tid")->AsNumber(), 4.0);
      EXPECT_DOUBLE_EQ(e.FindPath({"args", "request"})->AsNumber(), 33.0);
      EXPECT_DOUBLE_EQ(e.FindPath({"args", "retries"})->AsNumber(), 2.0);
      EXPECT_DOUBLE_EQ(e.FindPath({"args", "response_bytes"})->AsNumber(),
                       512.0);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_journey);
  ExpectChromeTraceSchema(json);
}

TEST(ChromeTraceTest, EscapesNames) {
  TraceSnapshot trace;
  trace.spans.push_back(TraceSpan{"bad\"name\nwith\tescapes", 0.0, 1.0,
                                  0.0, kNoPoint, 0});
  const std::string json =
      ChromeTraceJson(trace, TimeSeriesSnapshot{}, JourneySnapshot{});
  const Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  bool found = false;
  for (const JsonValue& e : parsed.value().Find("traceEvents")->items()) {
    if (e.Find("name")->AsString() == "bad\"name\nwith\tescapes") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MetricsJsonTest, PercentilesAppearInDistributionJson) {
  MetricsSnapshot snap;
  snap.distributions["lat"] = MakeDist({2.0, 2.0, 2.0});
  const std::string json = snap.ToJson();
  const Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* dist = parsed.value().FindPath({"distributions", "lat"});
  ASSERT_NE(dist, nullptr);
  // Single-valued distribution: the interpolated percentiles are exact.
  EXPECT_DOUBLE_EQ(dist->Find("p50")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(dist->Find("p95")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(dist->Find("p99")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(dist->Find("max")->AsNumber(), 2.0);
}

#ifndef SDS_OBS_DISABLED

// What `fig5_speculation_baseline --smoke --obs` writes, recorded in
// process: the report's "metrics" section is SnapshotMetrics().ToJson(),
// and the Prometheus and Chrome exports render the same snapshots.

TEST(Fig5ExportTest, BenchOutputsKeepTheirSchemas) {
  SetEnabled(true);
  ResetMetrics();
  ResetTrace();
  ResetTimeSeries();
  ResetJourneys();
  core::RunFig5(core::MakeWorkload(core::SmallConfig()));
  const MetricsSnapshot snapshot = SnapshotMetrics();
  ExpectPrometheusExposition(MetricsToPrometheus(snapshot));
  ExpectChromeTraceSchema(ChromeTraceJson(
      SnapshotTrace(), SnapshotTimeSeries(), SnapshotJourneys()));
  SetEnabled(false);

  const Result<JsonValue> parsed = ParseJson(snapshot.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& metrics = parsed.value();
  for (const char* section : {"counters", "gauges", "distributions",
                              "points"}) {
    ASSERT_NE(metrics.Find(section), nullptr) << section;
  }
  for (const char* counter :
       {"spec.runs", "spec.speculative_hits", "spec.wasted_speculative_bytes",
        "spec.delta_cache.hits", "sweep.points"}) {
    EXPECT_NE(metrics.FindPath({"counters", counter}), nullptr) << counter;
  }
  const auto& points = metrics.Find("points")->members();
  EXPECT_FALSE(points.empty());
  for (const auto& [point, values] : points) {
    char* end = nullptr;
    std::strtoll(point.c_str(), &end, 10);
    EXPECT_TRUE(!point.empty() && *end == '\0') << "point key " << point;
    EXPECT_NE(values.Find("spec.speculative_hits"), nullptr)
        << "point " << point;
  }
  for (const auto& [name, dist] :
       metrics.Find("distributions")->members()) {
    for (const char* field : {"count", "sum", "min", "max", "mean", "p50",
                              "p95", "p99", "buckets"}) {
      ASSERT_NE(dist.Find(field), nullptr) << name << " lacks " << field;
    }
    const auto at = [&](const char* field) {
      return dist.Find(field)->AsNumber();
    };
    EXPECT_LE(at("min"), at("p50")) << name;
    EXPECT_LE(at("p50"), at("p95")) << name;
    EXPECT_LE(at("p95"), at("p99")) << name;
    EXPECT_LE(at("p99"), at("max")) << name;
  }
}

#endif  // !SDS_OBS_DISABLED

}  // namespace
}  // namespace sds::obs
