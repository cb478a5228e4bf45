/// Property tests: invariants of the dissemination stack across the
/// configuration space, and KKT optimality of the allocator on random
/// instances.

#include <cmath>

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/workload.h"
#include "dissem/allocation.h"
#include "dissem/simulator.h"
#include "util/rng.h"

namespace sds::dissem {
namespace {

class DisseminationInvariantsTest
    : public ::testing::TestWithParam<
          std::tuple<double /*fraction*/, uint32_t /*proxies*/,
                     int /*placement*/, bool /*tailored*/>> {
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

core::Workload* DisseminationInvariantsTest::workload_ = nullptr;

TEST_P(DisseminationInvariantsTest, AccountingHolds) {
  const auto [fraction, proxies, placement_int, tailored] = GetParam();
  DisseminationConfig config;
  config.dissemination_fraction = fraction;
  config.num_proxies = proxies;
  config.placement = static_cast<PlacementStrategy>(placement_int);
  config.tailored_per_proxy = tailored;
  Rng rng(7);
  const auto result = core::SimulateServer0(
      *workload_, core::PrepareServer0(*workload_), config, &rng);

  EXPECT_GE(result.saved_fraction, 0.0);
  EXPECT_LE(result.saved_fraction, 1.0);
  EXPECT_LE(result.with_proxies_bytes_hops,
            result.baseline_bytes_hops + 1e-6);
  EXPECT_GE(result.proxy_hit_fraction, 0.0);
  EXPECT_LE(result.proxy_hit_fraction, 1.0);
  EXPECT_LE(result.proxy_requests.size(), proxies);
  const double budget =
      fraction * static_cast<double>(workload_->corpus().ServerBytes(0));
  EXPECT_LE(static_cast<double>(result.storage_per_proxy_bytes),
            budget * 1.01);
  EXPECT_LE(result.stale_fraction, 1.0);
  EXPECT_GE(result.stale_fraction, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DisseminationInvariantsTest,
    ::testing::Combine(
        ::testing::Values(0.02, 0.10, 0.40),
        ::testing::Values(1u, 4u, 12u),
        ::testing::Values(static_cast<int>(PlacementStrategy::kGreedy),
                          static_cast<int>(PlacementStrategy::kRegional),
                          static_cast<int>(PlacementStrategy::kRandom)),
        ::testing::Bool()));

/// KKT check on random instances: at the computed optimum, every *active*
/// server has equal marginal value density R_j h_j(B_j), and every clamped
/// server's marginal at zero is below that level.
class AllocationKktTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocationKktTest, MarginalsEqualizeAcrossActiveServers) {
  Rng rng(GetParam());
  std::vector<ServerDemand> servers;
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    servers.push_back({std::pow(10.0, 4.0 + 3.0 * rng.NextDouble()),
                       std::pow(10.0, -7.0 + 1.5 * rng.NextDouble())});
  }
  const double budget = 2e6;
  const auto alloc = AllocateExponential(servers, budget);

  double active_level = -1.0;
  for (int j = 0; j < n; ++j) {
    const double marginal = servers[j].rate * servers[j].lambda *
                            std::exp(-servers[j].lambda * alloc[j]);
    if (alloc[j] > 1.0) {  // active
      if (active_level < 0.0) {
        active_level = marginal;
      } else {
        EXPECT_NEAR(marginal / active_level, 1.0, 1e-6)
            << "server " << j << " marginal off the common level";
      }
    }
  }
  ASSERT_GE(active_level, 0.0) << "no active servers";
  for (int j = 0; j < n; ++j) {
    if (alloc[j] <= 1.0) {
      const double marginal_at_zero = servers[j].rate * servers[j].lambda;
      EXPECT_LE(marginal_at_zero, active_level * (1.0 + 1e-6))
          << "clamped server " << j << " should have been active";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocationKktTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace sds::dissem
