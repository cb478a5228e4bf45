#include "obs/timeseries.h"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/workload.h"
#include "obs/metrics.h"
#include "util/json.h"

namespace sds::obs {
namespace {

#ifndef SDS_OBS_DISABLED

/// The long-format CSV: the fixed header, then at least one row of
/// exactly four columns whose window start and value are numbers.
void ExpectCsvSchema(const std::string& csv) {
  std::istringstream lines(csv);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "series,point,window_start_s,value");
  size_t rows = 0;
  while (std::getline(lines, line)) {
    std::vector<std::string> cols;
    std::istringstream fields(line);
    for (std::string col; std::getline(fields, col, ',');) {
      cols.push_back(col);
    }
    if (!line.empty() && line.back() == ',') cols.emplace_back();
    ASSERT_EQ(cols.size(), 4u) << line;
    for (const std::string& number : {cols[2], cols[3]}) {
      char* end = nullptr;
      std::strtod(number.c_str(), &end);
      EXPECT_TRUE(!number.empty() && *end == '\0') << line;
    }
    ++rows;
  }
  EXPECT_GT(rows, 0u);
}

class TimeSeriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    ResetMetrics();
    ResetTimeSeries();
    SetTimeSeriesWindow(kDefaultTimeSeriesWindowS);
  }
  void TearDown() override {
    SetEnabled(false);
    ResetMetrics();
    ResetTimeSeries();
    SetTimeSeriesWindow(kDefaultTimeSeriesWindowS);
  }
};

TEST_F(TimeSeriesTest, BucketsBySimTimeWindow) {
  SetTimeSeriesWindow(100.0);
  TsCount("test.requests", 0.0);
  TsCount("test.requests", 99.9);
  TsCount("test.requests", 100.0);
  TsCount("test.requests", 250.0, 3.0);

  const TimeSeriesSnapshot snap = SnapshotTimeSeries();
  EXPECT_DOUBLE_EQ(snap.window_s, 100.0);
  const auto& windows = snap.total.at("test.requests");
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_DOUBLE_EQ(windows.at(0), 2.0);
  EXPECT_DOUBLE_EQ(windows.at(1), 1.0);
  EXPECT_DOUBLE_EQ(windows.at(2), 3.0);
}

TEST_F(TimeSeriesTest, AttributesSweepPoints) {
  SetTimeSeriesWindow(10.0);
  TsCount("test.rollup_only", 5.0);
  {
    ScopedPoint point(4);
    TsCount("test.pointed", 5.0, 2.0);
  }
  const TimeSeriesSnapshot snap = SnapshotTimeSeries();
  EXPECT_DOUBLE_EQ(snap.total.at("test.pointed").at(0), 2.0);
  EXPECT_DOUBLE_EQ(snap.by_point.at(4).at("test.pointed").at(0), 2.0);
  // kNoPoint recordings roll up but get no per-point series.
  EXPECT_EQ(snap.by_point.count(kNoPoint), 0u);
  EXPECT_EQ(snap.by_point.at(4).count("test.rollup_only"), 0u);
}

TEST_F(TimeSeriesTest, DisabledRecordingIsDropped) {
  SetEnabled(false);
  TsCount("test.invisible", 0.0);
  SetEnabled(true);
  EXPECT_TRUE(SnapshotTimeSeries().empty());
}

TEST_F(TimeSeriesTest, ResetClears) {
  TsCount("test.reset_me", 0.0);
  ASSERT_FALSE(SnapshotTimeSeries().empty());
  ResetTimeSeries();
  EXPECT_TRUE(SnapshotTimeSeries().empty());
}

TEST_F(TimeSeriesTest, ThreadShardsMergeOnExit) {
  SetTimeSeriesWindow(60.0);
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([t] {
      ScopedPoint point(t);
      TsCount("test.threaded", 30.0, 1.0);
    });
  }
  for (auto& thread : pool) thread.join();
  const TimeSeriesSnapshot snap = SnapshotTimeSeries();
  EXPECT_DOUBLE_EQ(snap.total.at("test.threaded").at(0), 4.0);
  for (int64_t t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(snap.by_point.at(t).at("test.threaded").at(0), 1.0);
  }
}

TEST_F(TimeSeriesTest, CsvHasHeaderAndRollupAndPointRows) {
  SetTimeSeriesWindow(100.0);
  {
    ScopedPoint point(2);
    TsCount("test.csv", 150.0, 7.0);
  }
  const std::string csv = SnapshotTimeSeries().ToCsv();
  EXPECT_EQ(csv.rfind("series,point,window_start_s,value\n", 0), 0u);
  // Rollup row (empty point column) and the per-point row.
  EXPECT_NE(csv.find("test.csv,,100,7"), std::string::npos);
  EXPECT_NE(csv.find("test.csv,2,100,7"), std::string::npos);
  ExpectCsvSchema(csv);
}

TEST_F(TimeSeriesTest, JsonIsParseable) {
  SetTimeSeriesWindow(50.0);
  {
    ScopedPoint point(1);
    TsCount("test.json", 75.0, 2.5);
  }
  const Result<JsonValue> parsed = ParseJson(SnapshotTimeSeries().ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* value =
      parsed.value().FindPath({"points", "1", "test.json", "1"});
  ASSERT_NE(value, nullptr);
  EXPECT_DOUBLE_EQ(value->AsNumber(), 2.5);
  EXPECT_DOUBLE_EQ(
      parsed.value().Find("window_s")->AsNumber(), 50.0);
}

// ---------------------------------------------------------------------------
// The acceptance contract: per-window sums of a series equal the matching
// run-level counter, because both record identical integer-valued deltas
// at the same code sites.
// ---------------------------------------------------------------------------

TEST_F(TimeSeriesTest, WindowSumsEqualRunCounters) {
  const core::Workload workload = core::MakeWorkload(core::SmallConfig());
  core::RunFig5(workload, {1.0, 0.5, 0.2}, {.workers = 2});

  const TimeSeriesSnapshot ts = SnapshotTimeSeries();
  const MetricsSnapshot metrics = SnapshotMetrics();
  ASSERT_FALSE(ts.empty());
  ASSERT_FALSE(metrics.counters.empty());

  size_t matched = 0;
  for (const auto& [name, windows] : ts.total) {
    const auto counter = metrics.counters.find(name);
    if (counter == metrics.counters.end()) continue;
    double sum = 0.0;
    for (const auto& [window, value] : windows) sum += value;
    if (std::floor(counter->second) == counter->second) {
      // Integer-valued counters sum exactly in doubles.
      EXPECT_DOUBLE_EQ(sum, counter->second) << name;
    } else {
      EXPECT_NEAR(sum, counter->second,
                  1e-9 * std::max(1.0, std::abs(counter->second)))
          << name;
    }
    ++matched;
  }
  // The core spec series must all be present, not vacuously matched.
  EXPECT_GE(matched, 3u);
  EXPECT_TRUE(ts.total.count("spec.client_requests"));
  EXPECT_TRUE(ts.total.count("spec.server_requests"));
  EXPECT_GT(metrics.counters.at("spec.client_requests"), 0.0);
  ExpectCsvSchema(ts.ToCsv());
}

TEST_F(TimeSeriesTest, PerPointSeriesAreWorkerCountInvariant) {
  const core::Workload workload = core::MakeWorkload(core::SmallConfig());

  const auto run_at = [&](uint32_t workers) {
    ResetTimeSeries();
    ResetMetrics();
    core::RunFig5(workload, {1.0, 0.5, 0.2}, {.workers = workers});
    return SnapshotTimeSeries();
  };

  const TimeSeriesSnapshot serial = run_at(1);
  const TimeSeriesSnapshot parallel = run_at(2);
  ASSERT_FALSE(serial.empty());

  // A sweep point runs wholly on one thread, so its per-point series are
  // accumulated in replay order regardless of worker count: exact match.
  ASSERT_EQ(serial.by_point.size(), parallel.by_point.size());
  for (const auto& [point, series] : serial.by_point) {
    const auto& other = parallel.by_point.at(point);
    ASSERT_EQ(series.size(), other.size()) << "point " << point;
    for (const auto& [name, windows] : series) {
      const auto& other_windows = other.at(name);
      ASSERT_EQ(windows.size(), other_windows.size()) << name;
      for (const auto& [window, value] : windows) {
        EXPECT_EQ(value, other_windows.at(window))
            << name << " window " << window;
      }
    }
  }
}

#endif  // !SDS_OBS_DISABLED

}  // namespace
}  // namespace sds::obs
