/// Property tests: accounting invariants of the speculation simulator must
/// hold across the whole configuration space (cache models x modes x
/// thresholds), and closure properties must hold on random matrices.

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/workload.h"
#include "spec/closure.h"
#include "spec/simulator.h"
#include "util/rng.h"

namespace sds::spec {
namespace {

// ---------------------------------------------------------------------------
// Simulator invariants under a parameter sweep
// ---------------------------------------------------------------------------

class SimulatorInvariantsTest
    : public ::testing::TestWithParam<
          std::tuple<double /*tp*/, double /*session_timeout*/,
                     int /*mode*/, bool /*cooperative*/>> {
 protected:
  static void SetUpTestSuite() {
    workload_ = new core::Workload(core::MakeWorkload(core::SmallConfig()));
    sim_ = new SpeculationSimulator(&workload_->corpus(), &workload_->clean());
  }
  static void TearDownTestSuite() {
    delete sim_;
    delete workload_;
    sim_ = nullptr;
    workload_ = nullptr;
  }
  static core::Workload* workload_;
  static SpeculationSimulator* sim_;
};

core::Workload* SimulatorInvariantsTest::workload_ = nullptr;
SpeculationSimulator* SimulatorInvariantsTest::sim_ = nullptr;

TEST_P(SimulatorInvariantsTest, AccountingHolds) {
  const auto [tp, session_timeout, mode_int, cooperative] = GetParam();
  SpeculationConfig config = core::BaselineSpecConfig();
  config.policy.threshold = tp;
  config.cache.session_timeout = session_timeout;
  config.mode = static_cast<ServiceMode>(mode_int);
  config.cooperative_clients = cooperative;

  const RunTotals t = sim_->Run(config);

  // Every replayed request is accounted.
  EXPECT_GT(t.client_requests, 0u);
  // Requests that reached the server do not exceed client requests plus
  // background prefetch/hint fetches.
  EXPECT_LE(t.server_requests, t.client_requests + t.prefetch_requests);
  EXPECT_LE(t.prefetch_requests, t.server_requests);
  // Byte accounting.
  EXPECT_LE(t.miss_bytes, t.requested_bytes + 1e-6);
  EXPECT_GE(t.bytes_sent, t.miss_bytes - 1e-6);
  EXPECT_GE(t.speculative_bytes, 0.0);
  EXPECT_LE(t.speculative_hits, t.speculative_docs_sent);
  EXPECT_GE(t.total_latency, 0.0);
  // Wasted bytes cannot exceed what was speculated.
  EXPECT_LE(t.wasted_speculative_bytes, t.speculative_bytes + 1e-6);

  // Comparing against the plain run: speculation never increases server
  // load for push modes (it can only turn misses into hits), and never
  // sends fewer bytes than the plain protocol.
  SpeculationConfig plain = config;
  plain.mode = ServiceMode::kNone;
  const RunTotals base = sim_->Run(plain);
  EXPECT_EQ(t.client_requests, base.client_requests);
  EXPECT_DOUBLE_EQ(t.requested_bytes, base.requested_bytes);
  EXPECT_GE(t.bytes_sent, base.bytes_sent - 1e-6);
  if (config.mode == ServiceMode::kSpeculativePush) {
    EXPECT_LE(t.server_requests, base.server_requests);
    EXPECT_LE(t.miss_bytes, base.miss_bytes + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimulatorInvariantsTest,
    ::testing::Combine(
        ::testing::Values(1.0, 0.5, 0.1),
        ::testing::Values(0.0, 3600.0, kInfiniteTime),
        ::testing::Values(static_cast<int>(ServiceMode::kSpeculativePush),
                          static_cast<int>(ServiceMode::kServerHints),
                          static_cast<int>(ServiceMode::kHybrid)),
        ::testing::Bool()));

TEST(SimulatorExactnessTest, PlainRunLatencyIsClosedForm) {
  const core::Workload w = core::MakeWorkload(core::SmallConfig());
  SpeculationSimulator sim(&w.corpus(), &w.clean());
  SpeculationConfig config = core::BaselineSpecConfig();
  config.mode = ServiceMode::kNone;
  const RunTotals t = sim.Run(config);
  // Without speculation: latency = ServCost per miss + CommCost per missed
  // byte, exactly.
  EXPECT_NEAR(t.total_latency,
              config.serv_cost * static_cast<double>(t.server_requests) +
                  config.comm_cost * t.miss_bytes,
              1e-6);
  EXPECT_DOUBLE_EQ(t.bytes_sent, t.miss_bytes);
}

// ---------------------------------------------------------------------------
// Closure properties on random sparse matrices
// ---------------------------------------------------------------------------

SparseProbMatrix RandomMatrix(uint64_t seed, size_t docs, size_t edges) {
  Rng rng(seed);
  SparseProbMatrix p(docs);
  std::set<std::pair<trace::DocumentId, trace::DocumentId>> used;
  for (size_t e = 0; e < edges; ++e) {
    const auto i = static_cast<trace::DocumentId>(rng.NextBounded(docs));
    const auto j = static_cast<trace::DocumentId>(rng.NextBounded(docs));
    if (i == j || !used.insert({i, j}).second) continue;
    p.Add(i, j, 0.05 + 0.95 * rng.NextDouble());
  }
  p.SortRows();
  return p;
}

/// p*[row source, doc], or 0 when the row has no entry for `doc`.
double Prob(SparseProbMatrix::RowView row, trace::DocumentId doc) {
  for (const auto& e : row) {
    if (e.doc == doc) return e.probability;
  }
  return 0.0;
}

class ClosurePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClosurePropertyTest, ClosureInvariants) {
  const SparseProbMatrix p = RandomMatrix(GetParam(), 40, 160);
  ClosureConfig config;
  config.min_probability = 0.05;
  const ClosureEpoch closure(p, config);
  ClosureScratch scratch;

  for (trace::DocumentId i = 0; i < p.num_docs(); ++i) {
    const auto row = closure.ClosureRow(i, &scratch);
    // Dominates direct edges (that survive the pruning threshold).
    for (const auto& e : p.Row(i)) {
      if (e.probability >= config.min_probability) {
        EXPECT_GE(Prob(row, e.doc) + 1e-6, e.probability);
      }
    }
    float prev = 1.0f;
    for (const auto& e : row) {
      EXPECT_GT(e.probability, 0.0f);
      EXPECT_LE(e.probability, 1.0f);
      EXPECT_LE(e.probability, prev);  // sorted
      EXPECT_NE(e.doc, i);             // no self loops
      prev = e.probability;
    }
  }
}

TEST_P(ClosurePropertyTest, DepthOneEqualsDirectEdges) {
  const SparseProbMatrix p = RandomMatrix(GetParam() + 100, 30, 90);
  ClosureConfig config;
  config.min_probability = 0.05;
  config.max_depth = 1;
  const ClosureEpoch closure(p, config);
  ClosureScratch scratch;
  for (trace::DocumentId i = 0; i < p.num_docs(); ++i) {
    const auto row = closure.ClosureRow(i, &scratch);
    for (const auto& e : p.Row(i)) {
      if (e.probability >= config.min_probability) {
        EXPECT_FLOAT_EQ(Prob(row, e.doc), e.probability);
      }
    }
    // Nothing beyond the direct successors.
    for (const auto& e : row) {
      EXPECT_GT(p.Get(i, e.doc), 0.0);
    }
  }
}

TEST_P(ClosurePropertyTest, HigherThresholdPrunesMonotonically) {
  const SparseProbMatrix p = RandomMatrix(GetParam() + 200, 30, 120);
  ClosureConfig loose;
  loose.min_probability = 0.05;
  ClosureConfig strict;
  strict.min_probability = 0.3;
  const ClosureEpoch l(p, loose);
  const ClosureEpoch s(p, strict);
  ClosureScratch scratch;
  // Every strict entry appears in the loose closure with the same value
  // (pruning cannot *create* chains; it can lower values only by cutting
  // intermediate hops, so >= is the invariant for the entry value).
  for (trace::DocumentId i = 0; i < p.num_docs(); ++i) {
    const auto l_row = l.ClosureRow(i, &scratch);
    const auto s_row = s.ClosureRow(i, &scratch);
    for (const auto& e : s_row) {
      EXPECT_GE(Prob(l_row, e.doc) + 1e-6, e.probability);
    }
    EXPECT_LE(s_row.size(), l_row.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosurePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace sds::spec
