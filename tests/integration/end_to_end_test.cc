/// End-to-end pipeline tests: workload synthesis -> preprocessing ->
/// analysis -> both protocols, with cross-module consistency checks.

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/workload.h"
#include "dissem/allocation.h"
#include "dissem/expfit.h"
#include "dissem/popularity.h"
#include "dissem/simulator.h"
#include "spec/simulator.h"
#include "trace/clf.h"
#include "trace/sessionizer.h"
#include "util/rng.h"

namespace sds {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new core::Workload(core::MakeWorkload(core::SmallConfig()));
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }
  static core::Workload* workload_;
};

core::Workload* EndToEndTest::workload_ = nullptr;

TEST_F(EndToEndTest, WorkloadIsDeterministic) {
  const core::Workload again = core::MakeWorkload(core::SmallConfig());
  ASSERT_EQ(again.clean().size(), workload_->clean().size());
  for (size_t i = 0; i < again.clean().size(); i += 97) {
    EXPECT_EQ(again.clean().requests[i].doc,
              workload_->clean().requests[i].doc);
    EXPECT_EQ(again.clean().requests[i].time,
              workload_->clean().requests[i].time);
  }
}

TEST_F(EndToEndTest, FilterStatsAddUp) {
  const auto& stats = workload_->filter_stats();
  EXPECT_EQ(stats.kept, workload_->clean().size());
  EXPECT_EQ(stats.kept + stats.dropped_not_found + stats.dropped_script,
            workload_->generated().trace.size());
}

TEST_F(EndToEndTest, SessionsRoughlyMatchGeneratorCount) {
  // Sessionizing the trace with a 30-minute timeout should roughly recover
  // the number of generated sessions (browser caching removes some
  // sessions entirely, and back-to-back sessions merge).
  const uint64_t measured =
      trace::CountSegments(workload_->clean(), 30.0 * kMinute);
  const uint64_t generated = workload_->generated().num_sessions;
  EXPECT_GT(measured, generated / 3);
  EXPECT_LT(measured, generated * 2);
}

TEST_F(EndToEndTest, CleanTraceThroughClfRoundTrips) {
  const auto lines = TraceToClf(workload_->clean(), workload_->corpus());
  const auto round = trace::ClfToTrace(lines, workload_->corpus());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().size(), workload_->clean().size());
}

TEST_F(EndToEndTest, LambdaFitFeedsAllocationSensibly) {
  // Fit lambda on the single-server workload, then pretend 10 such servers
  // share a proxy and check the symmetric-allocation storage matches the
  // empirical storage needed for the same hit fraction.
  const auto pop =
      dissem::AnalyzeServer(workload_->corpus(), workload_->clean(), 0);
  const auto fit = dissem::FitExponentialPopularity(pop, workload_->corpus());
  ASSERT_GT(fit.lambda, 0.0);
  const double alpha = 0.8;
  const double per_server =
      dissem::SymmetricStorageForHitFraction(10, fit.lambda, alpha) / 10.0;
  const double empirical_h =
      pop.EmpiricalH(per_server, workload_->corpus());
  // Model and measurement agree within a generous band.
  EXPECT_NEAR(empirical_h, alpha, 0.25);
}

TEST_F(EndToEndTest, BothProtocolsComposeOnOneWorkload) {
  // Run dissemination and speculation on the same workload: the savings
  // are complementary (one cuts bytes x hops, the other server requests).
  Rng rng(5);
  dissem::DisseminationConfig dconfig;
  dconfig.num_proxies = 4;
  const auto dresult = core::SimulateServer0(
      *workload_, core::PrepareServer0(*workload_), dconfig, &rng);
  EXPECT_GT(dresult.saved_fraction, 0.0);

  spec::SpeculationSimulator sim(&workload_->corpus(), &workload_->clean());
  spec::SpeculationConfig sconfig = core::BaselineSpecConfig();
  sconfig.policy.threshold = 0.3;
  const auto metrics = sim.Evaluate(sconfig);
  EXPECT_LT(metrics.server_load_ratio, 1.0);
}

TEST_F(EndToEndTest, MultiServerClusterAllocationPipeline) {
  const core::Workload cluster =
      core::MakeWorkload(core::ClusterConfig(/*num_servers=*/4));
  const auto pops =
      dissem::AnalyzeAllServers(cluster.corpus(), cluster.clean());
  std::vector<dissem::ServerDemand> demands;
  for (const auto& pop : pops) {
    const auto fit = dissem::FitExponentialPopularity(pop, cluster.corpus());
    demands.push_back({pop.remote_bytes_per_day, fit.lambda});
  }
  // Request volume skew must show up in R_i.
  EXPECT_GT(demands[0].rate, demands[3].rate);

  const double budget = 0.2 * cluster.corpus().TotalBytes();
  const auto alloc = dissem::AllocateExponential(demands, budget);
  double total = 0.0;
  for (const double b : alloc) total += b;
  EXPECT_NEAR(total, budget, budget * 1e-6);

  // The closed-form allocation must beat or match naive equal split and
  // the empirical greedy must be at least as good as the model predicts
  // on its own training data.
  const std::vector<double> equal(4, budget / 4.0);
  EXPECT_GE(dissem::HitFraction(demands, alloc),
            dissem::HitFraction(demands, equal) - 1e-9);

  const auto greedy = dissem::AllocateGreedyEmpirical(
      pops, cluster.corpus(), budget);
  EXPECT_GT(greedy.hit_fraction, 0.3);
  EXPECT_LE(greedy.used_bytes, budget);
}

TEST_F(EndToEndTest, GreedyEmpiricalExcludesMutable) {
  const auto pops =
      dissem::AnalyzeAllServers(workload_->corpus(), workload_->clean());
  std::vector<bool> is_mutable(workload_->corpus().size(), false);
  // Mark the top documents mutable; they must not be chosen.
  const auto unrestricted = dissem::AllocateGreedyEmpirical(
      pops, workload_->corpus(), 1e6);
  ASSERT_FALSE(unrestricted.docs.empty());
  for (size_t i = 0; i < 5 && i < unrestricted.docs.size(); ++i) {
    is_mutable[unrestricted.docs[i]] = true;
  }
  const auto restricted = dissem::AllocateGreedyEmpirical(
      pops, workload_->corpus(), 1e6, /*exclude_mutable=*/true, &is_mutable);
  for (const auto doc : restricted.docs) {
    EXPECT_FALSE(is_mutable[doc]);
  }
  EXPECT_LE(restricted.hit_fraction, unrestricted.hit_fraction + 1e-9);
}

}  // namespace
}  // namespace sds
