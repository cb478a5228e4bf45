#include "spec/dependency.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "core/workload.h"
#include "spec/closure.h"
#include "trace/cursor.h"
#include "util/rng.h"
#include "reference_dependencies.h"

namespace sds::spec {
namespace {

trace::Trace MakeTrace(
    std::vector<std::tuple<trace::ClientId, double, trace::DocumentId>>
        entries,
    uint32_t num_clients = 4) {
  trace::Trace t;
  t.num_clients = num_clients;
  for (const auto& [client, time, doc] : entries) {
    trace::Request r;
    r.client = client;
    r.time = time;
    r.doc = doc;
    r.bytes = 100;
    t.requests.push_back(r);
  }
  t.SortByTime();
  return t;
}

DependencyConfig Loose() {
  DependencyConfig c;
  c.min_probability = 0.0;
  c.min_support = 1;
  return c;
}

TEST(DependencyTest, SimplePairProbability) {
  // Doc 0 requested 4 times; doc 1 follows twice within the window.
  const auto t = MakeTrace({{0, 0.0, 0},   {0, 1.0, 1},
                            {0, 100.0, 0}, {0, 101.0, 1},
                            {0, 200.0, 0}, {0, 300.0, 0}});
  const auto p = EstimateDependencies(t, 2, Loose());
  EXPECT_NEAR(p.Get(0, 1), 0.5, 1e-6);
  EXPECT_DOUBLE_EQ(p.Get(1, 0), 0.0);
}

TEST(DependencyTest, WindowBoundaryExclusive) {
  DependencyConfig c = Loose();
  c.window = 5.0;
  c.stride_timeout = 10.0;
  // Gap of exactly 5.0 is inside [0, Tw]; gap of 5.5 is outside.
  const auto in = MakeTrace({{0, 0.0, 0}, {0, 5.0, 1}});
  EXPECT_GT(EstimateDependencies(in, 2, c).Get(0, 1), 0.0);
  const auto out = MakeTrace({{0, 0.0, 0}, {0, 5.5, 1}});
  EXPECT_DOUBLE_EQ(EstimateDependencies(out, 2, c).Get(0, 1), 0.0);
}

TEST(DependencyTest, StrideBreakStopsCounting) {
  DependencyConfig c = Loose();
  c.window = 100.0;
  c.stride_timeout = 5.0;
  // 0 -> (gap 6 s, stride break) -> 1: within the window but not the stride.
  const auto t = MakeTrace({{0, 0.0, 0}, {0, 6.0, 1}});
  EXPECT_DOUBLE_EQ(EstimateDependencies(t, 2, c).Get(0, 1), 0.0);
}

TEST(DependencyTest, ChainWithinStrideCounts) {
  DependencyConfig c = Loose();
  c.window = 10.0;
  c.stride_timeout = 5.0;
  // 0 at t=0, 1 at t=4, 2 at t=8: 0->2 spans two stride-joined gaps.
  const auto t = MakeTrace({{0, 0.0, 0}, {0, 4.0, 1}, {0, 8.0, 2}});
  const auto p = EstimateDependencies(t, 3, c);
  EXPECT_GT(p.Get(0, 1), 0.0);
  EXPECT_GT(p.Get(0, 2), 0.0);
  EXPECT_GT(p.Get(1, 2), 0.0);
}

TEST(DependencyTest, CrossClientPairsNeverCount) {
  const auto t = MakeTrace({{0, 0.0, 0}, {1, 1.0, 1}});
  const auto p = EstimateDependencies(t, 2, Loose());
  EXPECT_DOUBLE_EQ(p.Get(0, 1), 0.0);
}

TEST(DependencyTest, DuplicateFollowerCountedOnce) {
  // One occurrence of 0 followed by 1 twice: p must be 1, not 2.
  const auto t = MakeTrace({{0, 0.0, 0}, {0, 1.0, 1}, {0, 2.0, 1}});
  const auto p = EstimateDependencies(t, 2, Loose());
  EXPECT_NEAR(p.Get(0, 1), 1.0, 1e-6);
}

TEST(DependencyTest, SelfPairsExcluded) {
  const auto t = MakeTrace({{0, 0.0, 0}, {0, 1.0, 0}});
  const auto p = EstimateDependencies(t, 1, Loose());
  EXPECT_DOUBLE_EQ(p.Get(0, 0), 0.0);
}

TEST(DependencyTest, MinProbabilityPrunes) {
  DependencyConfig c = Loose();
  c.min_probability = 0.4;
  // p(0 -> 1) = 1/3 < 0.4.
  const auto t = MakeTrace(
      {{0, 0.0, 0}, {0, 1.0, 1}, {0, 100.0, 0}, {0, 200.0, 0}});
  EXPECT_DOUBLE_EQ(EstimateDependencies(t, 2, c).Get(0, 1), 0.0);
}

TEST(DependencyTest, MinSupportPrunes) {
  DependencyConfig c = Loose();
  c.min_support = 2;
  const auto t = MakeTrace({{0, 0.0, 0}, {0, 1.0, 1}});
  EXPECT_DOUBLE_EQ(EstimateDependencies(t, 2, c).Get(0, 1), 0.0);
}

TEST(DependencyTest, RowsSortedDescending) {
  const auto t = MakeTrace({{0, 0.0, 0},   {0, 1.0, 1},  {0, 2.0, 2},
                            {0, 100.0, 0}, {0, 101.0, 2}});
  const auto p = EstimateDependencies(t, 3, Loose());
  const auto& row = p.Row(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_GE(row[0].probability, row[1].probability);
  EXPECT_EQ(row[0].doc, 2u);  // p = 1.0
}

TEST(DependencyTest, TimeRangeRestricts) {
  const auto t = MakeTrace({{0, 0.0, 0}, {0, 1.0, 1},
                            {0, 100000.0, 0}, {0, 100001.0, 1}});
  const auto p = EstimateDependencies(t, 2, Loose(), 0.0, 50000.0);
  EXPECT_NEAR(p.Get(0, 1), 1.0, 1e-6);  // only the first occurrence counted
}

TEST(WindowedCountsTest, AddRemoveSymmetry) {
  const core::Workload w = core::MakeWorkload(core::SmallConfig());
  DependencyConfig config;
  const auto days = CountDailyDependencies(w.clean(), config);
  ASSERT_GE(days.size(), 3u);

  WindowedCounts window(w.corpus().size());
  window.Add(days[0]);
  window.Add(days[1]);
  const auto two_day = window.BuildMatrix(config);
  window.Add(days[2]);
  window.Remove(days[2]);
  const auto still_two_day = window.BuildMatrix(config);
  EXPECT_EQ(two_day.NumEntries(), still_two_day.NumEntries());
  for (trace::DocumentId i = 0; i < two_day.num_docs(); ++i) {
    ASSERT_EQ(two_day.Row(i).size(), still_two_day.Row(i).size());
    for (size_t k = 0; k < two_day.Row(i).size(); ++k) {
      EXPECT_EQ(two_day.Row(i)[k].doc, still_two_day.Row(i)[k].doc);
      EXPECT_FLOAT_EQ(two_day.Row(i)[k].probability,
                      still_two_day.Row(i)[k].probability);
    }
  }
}

TEST(WindowedCountsTest, DailySumMatchesOneShot) {
  const core::Workload w = core::MakeWorkload(core::SmallConfig());
  DependencyConfig config;
  const auto days = CountDailyDependencies(w.clean(), config);
  WindowedCounts window(w.corpus().size());
  for (const auto& d : days) window.Add(d);
  const auto summed = window.BuildMatrix(config);
  const auto one_shot =
      EstimateDependencies(w.clean(), w.corpus().size(), config);
  EXPECT_EQ(summed.NumEntries(), one_shot.NumEntries());
}

// ---------------------------------------------------------------------------
// Sliding-window maintenance under adversarial day streams: a window slid
// one day at a time (Add the new day, Remove the expired one) must build
// the same P, bit for bit, as the same days aggregated from scratch, and
// so the same closure rows. Scenarios are seeded; every assertion names
// the scenario, seed and day.
// ---------------------------------------------------------------------------

// How one synthetic day of pair/occurrence observations is skewed.
enum class Scenario {
  kPopularityChurn,  // hot set rotates slowly through the doc space
  kFlashCrowd,       // some days concentrate most mass on one document
  kInsertRetire,     // active doc range grows, then the oldest retire
  kWindowSlide,      // steady stream; the window slide does the churning
};

const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kPopularityChurn:
      return "popularity-churn";
    case Scenario::kFlashCrowd:
      return "flash-crowd";
    case Scenario::kInsertRetire:
      return "insert-retire";
    case Scenario::kWindowSlide:
      return "window-slide";
  }
  return "?";
}

// One synthetic day: raw pair/occurrence observations, merged into unique
// runs by Normalize().
DayCounts MakeDay(Scenario scenario, uint32_t day, size_t num_docs,
                  Rng* rng) {
  DayCounts out;
  size_t lo = 0, hi = num_docs;
  trace::DocumentId crowd_doc = 0;
  bool crowd = false;
  switch (scenario) {
    case Scenario::kPopularityChurn:
      // A window of ~1/4 of the doc space that advances a little each day.
      lo = (day * 3) % num_docs;
      hi = std::min(num_docs, lo + num_docs / 4 + 2);
      break;
    case Scenario::kFlashCrowd:
      crowd = day % 5 == 2;  // every fifth day is a crowd day
      crowd_doc = static_cast<trace::DocumentId>(rng->NextBounded(num_docs));
      break;
    case Scenario::kInsertRetire:
      // Docs "exist" in a moving band: new ids appear as days pass and
      // the earliest ids stop being referenced entirely.
      lo = std::min<size_t>(num_docs - 2, day / 2);
      hi = std::min(num_docs, lo + num_docs / 3 + 2);
      break;
    case Scenario::kWindowSlide:
      break;
  }
  const size_t span = hi - lo;
  const size_t events = 20 + rng->NextBounded(60);
  for (size_t e = 0; e < events; ++e) {
    trace::DocumentId i =
        static_cast<trace::DocumentId>(lo + rng->NextBounded(span));
    trace::DocumentId j =
        static_cast<trace::DocumentId>(lo + rng->NextBounded(span));
    if (crowd && rng->NextBernoulli(0.7)) i = crowd_doc;
    if (i == j) continue;
    const uint32_t n = 1 + static_cast<uint32_t>(rng->NextBounded(4));
    out.pair_counts.push_back({PairKey(i, j), n});
    // Occurrences at least as large as the pair count keeps p <= 1 on
    // most rows; occasionally skip them so the p = min(1, n/occ) clamp
    // and the occ == 0 pruning both get exercised.
    if (!rng->NextBernoulli(0.05)) {
      out.occurrences.push_back(
          {i, n + static_cast<uint32_t>(rng->NextBounded(3))});
    }
  }
  // A few occurrence-only docs (rows with no pair support).
  for (size_t e = 0; e < 4; ++e) {
    out.occurrences.push_back(
        {static_cast<trace::DocumentId>(rng->NextBounded(num_docs)), 1});
  }
  out.Normalize();
  return out;
}

void ExpectRowsEq(SparseProbMatrix::RowView want,
                  SparseProbMatrix::RowView got, const std::string& ctx) {
  ASSERT_EQ(want.size(), got.size()) << ctx;
  for (size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(want[k].doc, got[k].doc) << ctx << " entry " << k;
    // Bit-identical, not approximately equal.
    ASSERT_EQ(want[k].probability, got[k].probability)
        << ctx << " entry " << k;
  }
}

void RunSlidingWindowScenario(Scenario scenario, uint64_t seed) {
  const std::string ctx_base =
      std::string(ScenarioName(scenario)) + " seed=" + std::to_string(seed);
  Rng rng(seed);
  const size_t num_docs = 24 + rng.NextBounded(40);
  const uint32_t days = 30;
  const uint32_t history = 6 + static_cast<uint32_t>(rng.NextBounded(6));

  DependencyConfig dep;
  dep.min_support = 1 + static_cast<uint32_t>(rng.NextBounded(3));
  dep.min_probability = 0.02;
  ClosureConfig closure_cfg;
  closure_cfg.min_probability = 0.02;
  closure_cfg.max_depth = 1 + static_cast<uint32_t>(rng.NextBounded(4));
  if (rng.NextBernoulli(0.3)) {
    closure_cfg.semantics = ClosureSemantics::kSumProductCapped;
  }

  WindowedCounts slid(num_docs);
  std::deque<DayCounts> window;
  ClosureScratch slid_scratch;
  ClosureScratch fresh_scratch;
  for (uint32_t day = 0; day < days; ++day) {
    const std::string ctx = ctx_base + " day=" + std::to_string(day);
    const DayCounts dc = MakeDay(scenario, day, num_docs, &rng);
    slid.Add(dc);
    window.push_back(dc);
    if (window.size() > history) {
      slid.Remove(window.front());
      window.pop_front();
    }
    WindowedCounts fresh(num_docs);
    for (const DayCounts& d : window) fresh.Add(d);

    const SparseProbMatrix want = fresh.BuildMatrix(dep);
    const SparseProbMatrix got = slid.BuildMatrix(dep);
    ASSERT_EQ(want.num_docs(), got.num_docs()) << ctx;
    ASSERT_EQ(want.NumEntries(), got.NumEntries()) << ctx;
    for (trace::DocumentId s = 0; s < num_docs; ++s) {
      ExpectRowsEq(want.Row(s), got.Row(s),
                   ctx + " P row " + std::to_string(s));
      const auto want_closure =
          ComputeClosureRow(want, s, closure_cfg, &fresh_scratch);
      const auto got_closure =
          ComputeClosureRow(got, s, closure_cfg, &slid_scratch);
      ExpectRowsEq(want_closure, got_closure,
                   ctx + " closure row " + std::to_string(s));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(WindowedCountsTest, SlidWindowMatchesFreshUnderPopularityChurn) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunSlidingWindowScenario(Scenario::kPopularityChurn, seed);
    if (HasFatalFailure()) return;
  }
}

TEST(WindowedCountsTest, SlidWindowMatchesFreshUnderFlashCrowd) {
  for (uint64_t seed = 101; seed <= 108; ++seed) {
    RunSlidingWindowScenario(Scenario::kFlashCrowd, seed);
    if (HasFatalFailure()) return;
  }
}

TEST(WindowedCountsTest, SlidWindowMatchesFreshUnderInsertRetire) {
  for (uint64_t seed = 201; seed <= 208; ++seed) {
    RunSlidingWindowScenario(Scenario::kInsertRetire, seed);
    if (HasFatalFailure()) return;
  }
}

TEST(WindowedCountsTest, SlidWindowMatchesFreshUnderWindowSlide) {
  for (uint64_t seed = 301; seed <= 308; ++seed) {
    RunSlidingWindowScenario(Scenario::kWindowSlide, seed);
    if (HasFatalFailure()) return;
  }
}

void ExpectMatricesEq(const SparseProbMatrix& want,
                      const SparseProbMatrix& got, const std::string& ctx) {
  ASSERT_EQ(want.num_docs(), got.num_docs()) << ctx;
  ASSERT_EQ(want.NumEntries(), got.NumEntries()) << ctx;
  for (trace::DocumentId i = 0; i < want.num_docs(); ++i) {
    ExpectRowsEq(want.Row(i), got.Row(i), ctx + " row " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(WindowedCountsTest, RebuildWithoutFoldIsIdentical) {
  const core::Workload w = core::MakeWorkload(core::SmallConfig());
  const DependencyConfig config;
  const auto days = CountDailyDependencies(w.clean(), config);
  ASSERT_GE(days.size(), 3u);
  WindowedCounts window(w.corpus().size());
  for (size_t d = 0; d < 3; ++d) window.Add(days[d]);
  const SparseProbMatrix first = window.BuildMatrix(config);
  ASSERT_GT(first.NumEntries(), 0u);
  ExpectMatricesEq(first, window.BuildMatrix(config), "second build");
}

TEST(WindowedCountsTest, AlternatingConfigsEachMatchFreshWindow) {
  // Thresholds select a row's entries, so a build under new thresholds
  // must not reuse rows built under the old ones.
  DependencyConfig loose;
  loose.min_support = 1;
  loose.min_probability = 0.02;
  DependencyConfig strict;
  strict.min_support = 3;
  strict.min_probability = 0.3;
  Rng rng(41);
  const size_t num_docs = 40;
  WindowedCounts slid(num_docs);
  std::deque<DayCounts> window;
  for (uint32_t day = 0; day < 20; ++day) {
    const DayCounts dc = MakeDay(Scenario::kPopularityChurn, day, num_docs,
                                 &rng);
    slid.Add(dc);
    window.push_back(dc);
    if (window.size() > 5) {
      slid.Remove(window.front());
      window.pop_front();
    }
    // Some days build under both configs, in either order; some under one.
    std::vector<const DependencyConfig*> builds = {&loose, &strict};
    if (day % 2 == 1) std::swap(builds[0], builds[1]);
    if (day % 3 == 2) builds.pop_back();
    for (const DependencyConfig* config : builds) {
      WindowedCounts fresh(num_docs);
      for (const DayCounts& d : window) fresh.Add(d);
      ExpectMatricesEq(fresh.BuildMatrix(*config), slid.BuildMatrix(*config),
                       "day " + std::to_string(day) + " min_support " +
                           std::to_string(config->min_support));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(WindowedCountsTest, RowEmptiedByRemoveReadsEmpty) {
  DayCounts lead;  // doc 0 leads doc 1 three times; doc 2 leads doc 3 once
  lead.pair_counts = {{PairKey(0, 1), 3}, {PairKey(2, 3), 1}};
  lead.occurrences = {{0, 3}, {2, 1}};
  DayCounts more;  // only doc 2's row changes
  more.pair_counts = {{PairKey(2, 3), 2}};
  more.occurrences = {{2, 2}};
  WindowedCounts window(4);
  window.Add(lead);
  window.Add(more);
  DependencyConfig config;
  config.min_support = 1;
  ASSERT_EQ(window.BuildMatrix(config).Row(0).size(), 1u);
  window.Remove(lead);
  const SparseProbMatrix p = window.BuildMatrix(config);
  EXPECT_TRUE(p.Row(0).empty());
  EXPECT_DOUBLE_EQ(p.Get(0, 1), 0.0);
  ASSERT_EQ(p.Row(2).size(), 1u);
  EXPECT_EQ(p.Row(2)[0].doc, 3u);
  EXPECT_FLOAT_EQ(p.Row(2)[0].probability, 1.0f);
  EXPECT_EQ(p.NumEntries(), 1u);
}

TEST(DependencyTest, ProbabilitiesAreValid) {
  const core::Workload w = core::MakeWorkload(core::SmallConfig());
  const auto p = EstimateDependencies(w.clean(), w.corpus().size(),
                                      DependencyConfig{});
  EXPECT_GT(p.NumEntries(), 0u);
  for (trace::DocumentId i = 0; i < p.num_docs(); ++i) {
    for (const auto& e : p.Row(i)) {
      EXPECT_GT(e.probability, 0.0f);
      EXPECT_LE(e.probability, 1.0f);
      EXPECT_NE(e.doc, i);
      EXPECT_LT(e.doc, p.num_docs());
    }
  }
}


// ---------------------------------------------------------------------------
// Every counting entry point against the brute-force reference scan
// (reference_dependencies.h): CountDailyDependencies on a trace and on a
// cursor, and EstimateDependencies over a time range.
// ---------------------------------------------------------------------------

void ExpectDaysEq(const std::vector<DayCounts>& want,
                  const std::vector<DayCounts>& got, const std::string& ctx) {
  ASSERT_EQ(want.size(), got.size()) << ctx;
  for (size_t d = 0; d < want.size(); ++d) {
    EXPECT_EQ(want[d].pair_counts, got[d].pair_counts) << ctx << " day " << d;
    EXPECT_EQ(want[d].occurrences, got[d].occurrences) << ctx << " day " << d;
  }
}

void ExpectMatchesReference(const trace::Trace& t, size_t num_docs,
                            const DependencyConfig& c, const std::string& ctx,
                            SimTime t_begin = 0.0,
                            SimTime t_end = kInfiniteTime) {
  const auto want = reference::DailyCounts(t, c);
  ExpectDaysEq(want, reference::Sorted(CountDailyDependencies(t, c)),
               ctx + " (trace)");
  trace::VectorCursor cursor(&t);
  ExpectDaysEq(want, reference::Sorted(CountDailyDependencies(&cursor, c)),
               ctx + " (cursor)");

  const auto rows = reference::MatrixRows(t, num_docs, c, t_begin, t_end);
  const SparseProbMatrix p =
      EstimateDependencies(t, num_docs, c, t_begin, t_end);
  size_t entries = 0;
  for (trace::DocumentId i = 0; i < num_docs; ++i) {
    ExpectRowsEq(SparseProbMatrix::RowView(rows[i]), p.Row(i),
                 ctx + " (P) row " + std::to_string(i));
    entries += rows[i].size();
  }
  EXPECT_EQ(p.NumEntries(), entries) << ctx;
}

trace::Request Access(trace::ClientId client, double time,
                      trace::DocumentId doc,
                      trace::RequestKind kind = trace::RequestKind::kDocument) {
  trace::Request r;
  r.client = client;
  r.time = time;
  r.doc = doc;
  r.bytes = 100;
  r.kind = kind;
  return r;
}

TEST(DependencyReferenceTest, HandBuiltTraces) {
  DependencyConfig wide = Loose();
  wide.window = 10.0;
  wide.stride_timeout = 5.0;
  struct Case {
    std::string name;
    trace::Trace trace;
    DependencyConfig config;
  };
  std::vector<Case> cases;
  cases.push_back({"simple", MakeTrace({{0, 0.0, 0}, {0, 1.0, 1},
                                        {0, 100.0, 0}, {0, 101.0, 1},
                                        {0, 200.0, 0}, {0, 300.0, 0}}),
                   Loose()});
  cases.push_back({"chain", MakeTrace({{0, 0.0, 0}, {0, 4.0, 1}, {0, 8.0, 2}}),
                   wide});
  cases.push_back({"duplicate-follower",
                   MakeTrace({{0, 0.0, 0}, {0, 1.0, 1}, {0, 2.0, 1}}),
                   Loose()});
  cases.push_back({"self-pair", MakeTrace({{0, 0.0, 0}, {0, 1.0, 0}}),
                   Loose()});
  cases.push_back({"interleaved-clients",
                   MakeTrace({{0, 0.0, 0}, {1, 0.5, 2}, {0, 1.0, 1},
                              {1, 1.0, 0}, {2, 1.0, 1}, {0, 1.5, 2},
                              {1, 3.0, 1}, {2, 4.0, 0}, {0, 7.0, 0},
                              {1, 7.5, 2}, {0, 9.0, 1}}),
                   wide});
  // A pair led late on day 0 and completed after midnight belongs to
  // day 0; day 2 has no traffic; day 3 opens with a fresh stride.
  cases.push_back({"across-midnight",
                   MakeTrace({{0, kDay - 2.0, 0}, {1, kDay - 1.0, 1},
                              {0, kDay + 1.0, 1}, {1, kDay + 2.0, 2},
                              {0, 3 * kDay, 2}, {0, 3 * kDay + 1.0, 0}}),
                   wide});
  // Noise kinds never count but separate nothing: the pair 0 -> 1 spans
  // a 404 and a script request. Aliases count like documents.
  trace::Trace noisy;
  noisy.num_clients = 2;
  noisy.requests = {Access(0, 0.0, 0),
                    Access(0, 1.0, trace::kInvalidDocument,
                           trace::RequestKind::kNotFound),
                    Access(1, 1.5, 2, trace::RequestKind::kAlias),
                    Access(0, 2.0, trace::kInvalidDocument,
                           trace::RequestKind::kScript),
                    Access(0, 3.0, 1, trace::RequestKind::kAlias),
                    Access(1, 4.0, 1)};
  cases.push_back({"noise-and-aliases", noisy, wide});
  trace::Trace empty;
  cases.push_back({"empty", empty, Loose()});

  for (const Case& c : cases) {
    ExpectMatchesReference(c.trace, 3, c.config, c.name);
    ExpectMatchesReference(c.trace, 3, c.config, c.name + " [1 s, 2 days)",
                           1.0, 2 * kDay);
  }
}

TEST(DependencyReferenceTest, SmallConfigWorkload) {
  const core::Workload w = core::MakeWorkload(core::SmallConfig());
  DependencyConfig wide_window;
  wide_window.window = 60.0;
  wide_window.stride_timeout = 300.0;
  DependencyConfig tight_stride;
  tight_stride.window = 30.0;
  tight_stride.stride_timeout = 2.0;
  for (const auto& [name, config] :
       {std::pair{"default", DependencyConfig{}},
        std::pair{"wide-window", wide_window},
        std::pair{"tight-stride", tight_stride}}) {
    ExpectMatchesReference(w.clean(), w.corpus().size(), config,
                           std::string(name) + " clean");
    ExpectMatchesReference(w.clean(), w.corpus().size(), config,
                           std::string(name) + " clean [2, 9) days",
                           2 * kDay, 9 * kDay);
    // The raw trace: noise kinds interleaved, aliases not yet renamed.
    ExpectMatchesReference(w.generated().trace, w.corpus().size(), config,
                           std::string(name) + " raw");
  }
}

// Streams a trace one request per chunk, so the range cut of
// EstimateDependencies falls on chunk boundaries at both ends.
class OneRequestCursor : public trace::RequestCursor {
 public:
  explicit OneRequestCursor(const trace::Trace* trace) : trace_(trace) {}

  std::span<const trace::Request> NextChunk() override {
    if (pos_ == trace_->size()) return {};
    return {&trace_->requests[pos_++], 1};
  }
  void Rewind() override { pos_ = 0; }
  uint32_t num_clients() const override { return trace_->num_clients; }
  uint32_t num_servers() const override { return trace_->num_servers; }

  size_t handed_out() const { return pos_; }

 private:
  const trace::Trace* trace_;
  size_t pos_ = 0;
};

TEST(DependencyReferenceTest, OneRequestChunksMatchTraceEstimate) {
  const core::Workload w = core::MakeWorkload(core::SmallConfig());
  const trace::Trace& t = w.clean();
  const size_t num_docs = w.corpus().size();
  const DependencyConfig c;
  for (const auto& [t_begin, t_end] :
       {std::pair{2 * kDay + 3600.0, 9 * kDay},
        std::pair{0.5 * kDay, kInfiniteTime}}) {
    const std::string ctx = "[" + std::to_string(t_begin) + ", " +
                            std::to_string(t_end) + ")";
    OneRequestCursor cursor(&t);
    const SparseProbMatrix got =
        EstimateDependencies(&cursor, num_docs, c, t_begin, t_end);
    const SparseProbMatrix want =
        EstimateDependencies(t, num_docs, c, t_begin, t_end);
    const auto rows = reference::MatrixRows(t, num_docs, c, t_begin, t_end);
    ASSERT_GT(got.NumEntries(), 0u) << ctx;
    EXPECT_EQ(got.NumEntries(), want.NumEntries()) << ctx;
    for (trace::DocumentId i = 0; i < num_docs; ++i) {
      ExpectRowsEq(want.Row(i), got.Row(i), ctx + " row " + std::to_string(i));
      ExpectRowsEq(SparseProbMatrix::RowView(rows[i]), got.Row(i),
                   ctx + " reference row " + std::to_string(i));
    }
    // A finite t_end stops the read one request past it.
    if (t_end != kInfiniteTime) {
      EXPECT_LT(cursor.handed_out(), t.size()) << ctx;
    }
  }
}

TEST(DependencyReferenceTest, GeneratedCursorMatchesReference) {
  // A streaming workload's clean cursor generates the stream on the fly;
  // its counts must equal the reference scan of the materialised trace.
  core::WorkloadConfig config = core::SmallConfig();
  const core::Workload batch = core::MakeWorkload(config);
  config.streaming = true;
  const core::Workload streaming = core::MakeWorkload(config);
  const DependencyConfig dependency;
  const auto cursor = streaming.NewCleanCursor();
  ExpectDaysEq(
      reference::DailyCounts(batch.clean(), dependency),
      reference::Sorted(CountDailyDependencies(cursor.get(), dependency)),
      "generated cursor");
}

}  // namespace
}  // namespace sds::spec
