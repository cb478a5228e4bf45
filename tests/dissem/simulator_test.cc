#include "dissem/simulator.h"

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/workload.h"
#include "net/faults.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace sds::dissem {
namespace {

class DisseminationSimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new core::Workload(core::MakeWorkload(core::SmallConfig()));
    prepared_ = new PreparedDissemination(core::PrepareServer0(*workload_));
  }
  static void TearDownTestSuite() {
    delete prepared_;
    prepared_ = nullptr;
    delete workload_;
    workload_ = nullptr;
  }

  DisseminationResult Run(const DisseminationConfig& config,
                          uint64_t seed = 1) {
    Rng rng(seed);
    return core::SimulateServer0(*workload_, *prepared_, config, &rng);
  }

  static core::Workload* workload_;
  static PreparedDissemination* prepared_;
};

core::Workload* DisseminationSimTest::workload_ = nullptr;
PreparedDissemination* DisseminationSimTest::prepared_ = nullptr;

TEST_F(DisseminationSimTest, SavesBandwidth) {
  DisseminationConfig config;
  config.num_proxies = 4;
  config.dissemination_fraction = 0.10;
  const auto result = Run(config);
  EXPECT_GT(result.saved_fraction, 0.05);
  EXPECT_LT(result.saved_fraction, 1.0);
  EXPECT_GT(result.proxy_hit_fraction, 0.0);
  EXPECT_LT(result.with_proxies_bytes_hops, result.baseline_bytes_hops);
}

TEST_F(DisseminationSimTest, MoreProxiesNeverHurt) {
  DisseminationConfig config;
  double prev = -1.0;
  for (const uint32_t k : {1u, 2u, 4u, 8u}) {
    config.num_proxies = k;
    const auto result = Run(config);
    EXPECT_GE(result.saved_fraction, prev - 0.02) << k;
    prev = result.saved_fraction;
  }
}

TEST_F(DisseminationSimTest, MoreDataNeverHurts) {
  DisseminationConfig config;
  config.num_proxies = 4;
  config.dissemination_fraction = 0.04;
  const double low = Run(config).saved_fraction;
  config.dissemination_fraction = 0.20;
  const double high = Run(config).saved_fraction;
  EXPECT_GE(high, low - 0.02);
}

TEST_F(DisseminationSimTest, StorageRespectsBudget) {
  DisseminationConfig config;
  config.num_proxies = 3;
  config.dissemination_fraction = 0.10;
  const auto result = Run(config);
  const double budget =
      0.10 * static_cast<double>(workload_->corpus().ServerBytes(0));
  EXPECT_LE(static_cast<double>(result.storage_per_proxy_bytes),
            budget * 1.01);
}

TEST_F(DisseminationSimTest, LoadSplitsBetweenServerAndProxies) {
  DisseminationConfig config;
  config.num_proxies = 4;
  const auto result = Run(config);
  uint64_t proxy_total = 0;
  for (const uint64_t n : result.proxy_requests) proxy_total += n;
  EXPECT_GT(proxy_total, 0u);
  EXPECT_GT(result.server_requests, 0u);
  const double hit = static_cast<double>(proxy_total) /
                     static_cast<double>(proxy_total + result.server_requests);
  EXPECT_NEAR(hit, result.proxy_hit_fraction, 1e-9);
}

TEST_F(DisseminationSimTest, TailoredAtLeastAsGoodAsUniform) {
  DisseminationConfig config;
  config.num_proxies = 6;
  config.dissemination_fraction = 0.04;
  const double uniform = Run(config).saved_fraction;
  config.tailored_per_proxy = true;
  const double tailored = Run(config).saved_fraction;
  EXPECT_GE(tailored, uniform - 0.05);
}

TEST_F(DisseminationSimTest, DynamicShieldingLimitsProxyLoad) {
  DisseminationConfig config;
  config.num_proxies = 4;
  config.proxy_daily_request_capacity = 5;
  const auto result = Run(config);
  EXPECT_GT(result.shielding_overflow_requests, 0u);
  // Savings shrink but stay non-negative.
  config.proxy_daily_request_capacity = 0;
  const auto unlimited = Run(config);
  EXPECT_LT(result.saved_fraction, unlimited.saved_fraction);
  EXPECT_GE(result.saved_fraction, 0.0);
}

TEST_F(DisseminationSimTest, ExcludeMutableStillSaves) {
  DisseminationConfig config;
  config.num_proxies = 4;
  config.exclude_mutable = true;
  const auto result = Run(config);
  EXPECT_GT(result.saved_fraction, 0.0);
}

TEST_F(DisseminationSimTest, StalenessAccountingShapes) {
  DisseminationConfig config;
  config.num_proxies = 4;
  const auto never = Run(config);
  EXPECT_GT(never.stale_proxy_requests, 0u);
  EXPECT_GT(never.stale_fraction, 0.0);
  EXPECT_LE(never.stale_fraction, 1.0);

  // Daily re-dissemination removes staleness entirely.
  config.redisseminate_every_days = 1;
  const auto daily = Run(config);
  EXPECT_EQ(daily.stale_proxy_requests, 0u);

  // Weekly re-push sits in between.
  config.redisseminate_every_days = 7;
  const auto weekly = Run(config);
  EXPECT_LE(weekly.stale_proxy_requests, never.stale_proxy_requests);
  EXPECT_GE(weekly.stale_proxy_requests, daily.stale_proxy_requests);

  // Excluding mutable documents cuts staleness without re-pushing.
  config.redisseminate_every_days = 0;
  config.exclude_mutable = true;
  const auto excluded = Run(config);
  EXPECT_LT(excluded.stale_fraction, never.stale_fraction);
}

TEST_F(DisseminationSimTest, DepthRestrictedPlacementWorks) {
  DisseminationConfig config;
  config.num_proxies = 4;
  config.placement_depths = {1};
  const auto regional = Run(config);
  config.placement_depths.clear();
  const auto free_placement = Run(config);
  EXPECT_GT(regional.saved_fraction, 0.0);
  EXPECT_GE(free_placement.saved_fraction, regional.saved_fraction - 0.02);
}

TEST_F(DisseminationSimTest, ShieldingOverflowConservesRequestAccounting) {
  // Every evaluated request is served exactly once: by a proxy, by the home
  // server directly, or by the home server after shielding overflow. The
  // total must not depend on the capacity limit (regression: overflowed
  // requests used to be double-counted as server requests).
  DisseminationConfig config;
  config.num_proxies = 4;
  uint64_t expected_total = 0;
  for (const uint64_t capacity : {uint64_t{0}, uint64_t{5}, uint64_t{1} << 40}) {
    config.proxy_daily_request_capacity = capacity;
    const auto result = Run(config);
    uint64_t total = result.server_requests + result.shielding_overflow_requests;
    for (const uint64_t n : result.proxy_requests) total += n;
    if (expected_total == 0) {
      expected_total = total;
    } else {
      EXPECT_EQ(total, expected_total) << "capacity " << capacity;
    }
    if (capacity == 5) {
      EXPECT_GT(result.shielding_overflow_requests, 0u);
    } else {
      EXPECT_EQ(result.shielding_overflow_requests, 0u);
    }
    // Overflowed requests pay the full home-server hop cost, so shielding
    // can only lose bandwidth relative to unlimited proxies.
    EXPECT_GE(result.with_proxies_bytes_hops, 0.0);
    EXPECT_LE(result.with_proxies_bytes_hops,
              result.baseline_bytes_hops * (1.0 + 1e-9));
  }
}

TEST_F(DisseminationSimTest, BaselineCostIndependentOfConfig) {
  DisseminationConfig a;
  a.num_proxies = 1;
  DisseminationConfig b;
  b.num_proxies = 8;
  b.dissemination_fraction = 0.5;
  EXPECT_DOUBLE_EQ(Run(a).baseline_bytes_hops, Run(b).baseline_bytes_hops);
}

// --- Randomized d-choice replica selection ---

TEST_F(DisseminationSimTest, DChoiceD1IsBitIdenticalAcrossSeeds) {
  // selection_d = 1 must make zero extra RNG draws, so the result cannot
  // depend on the seed and is bit-identical to the legacy static path.
  DisseminationConfig config;
  config.num_proxies = 4;
  config.dissemination_fraction = 0.10;
  const auto legacy = Run(config, /*seed=*/1);
  config.selection_d = 1;
  const auto d1 = Run(config, /*seed=*/987654321);
  EXPECT_EQ(legacy.with_proxies_bytes_hops, d1.with_proxies_bytes_hops);
  EXPECT_EQ(legacy.saved_fraction, d1.saved_fraction);
  EXPECT_EQ(legacy.proxy_hit_fraction, d1.proxy_hit_fraction);
  EXPECT_EQ(legacy.proxy_requests, d1.proxy_requests);
  EXPECT_EQ(legacy.server_requests, d1.server_requests);
  EXPECT_EQ(legacy.load_imbalance_max_mean, d1.load_imbalance_max_mean);
  EXPECT_EQ(legacy.load_imbalance_p99_mean, d1.load_imbalance_p99_mean);
  EXPECT_EQ(legacy.per_level_imbalance, d1.per_level_imbalance);
}

TEST_F(DisseminationSimTest, DChoiceDeterministicGivenSeed) {
  DisseminationConfig config;
  config.num_proxies = 4;
  config.dissemination_fraction = 0.10;
  config.selection_d = 2;
  const auto a = Run(config, /*seed=*/7);
  const auto b = Run(config, /*seed=*/7);
  EXPECT_EQ(a.proxy_requests, b.proxy_requests);
  EXPECT_EQ(a.with_proxies_bytes_hops, b.with_proxies_bytes_hops);
  EXPECT_EQ(a.load_imbalance_max_mean, b.load_imbalance_max_mean);
}

TEST_F(DisseminationSimTest, DChoiceReducesLoadImbalance) {
  DisseminationConfig config;
  config.num_proxies = 4;
  config.dissemination_fraction = 0.10;
  const auto static_opt = Run(config);
  config.selection_d = 2;
  const auto d2 = Run(config);
  EXPECT_LT(d2.load_imbalance_max_mean, static_opt.load_imbalance_max_mean);
  EXPECT_LE(d2.load_imbalance_p99_mean, static_opt.load_imbalance_p99_mean);
  EXPECT_GE(d2.load_imbalance_max_mean, 1.0);  // max/mean is >= 1 by definition
}

TEST_F(DisseminationSimTest, DChoiceConservesRequestAccounting) {
  // d-choice only re-routes requests among holders; every evaluated
  // request is still served exactly once.
  DisseminationConfig config;
  config.num_proxies = 4;
  config.dissemination_fraction = 0.10;
  uint64_t expected_total = 0;
  for (const uint32_t d : {1u, 2u, 4u, 16u}) {
    config.selection_d = d;
    const auto result = Run(config);
    uint64_t total =
        result.server_requests + result.shielding_overflow_requests;
    for (const uint64_t n : result.proxy_requests) total += n;
    if (expected_total == 0) {
      expected_total = total;
    } else {
      EXPECT_EQ(total, expected_total) << "d=" << d;
    }
  }
}

TEST_F(DisseminationSimTest, DChoiceServesNoFartherThanHomeServer) {
  // Candidate holders are capped at the home-server distance, so d-choice
  // can shift bytes x hops but never above the no-proxy baseline.
  DisseminationConfig config;
  config.num_proxies = 4;
  config.dissemination_fraction = 0.10;
  config.selection_d = 4;
  const auto result = Run(config);
  EXPECT_LE(result.with_proxies_bytes_hops,
            result.baseline_bytes_hops * (1.0 + 1e-9));
  EXPECT_GT(result.proxy_hit_fraction, 0.0);
}

TEST_F(DisseminationSimTest, DChoiceWithShieldingStillConserves) {
  DisseminationConfig config;
  config.num_proxies = 4;
  config.dissemination_fraction = 0.10;
  config.selection_d = 2;
  config.proxy_daily_request_capacity = 5;
  const auto result = Run(config);
  EXPECT_GT(result.shielding_overflow_requests, 0u);
  uint64_t total =
      result.server_requests + result.shielding_overflow_requests;
  for (const uint64_t n : result.proxy_requests) total += n;
  config.selection_d = 1;
  config.proxy_daily_request_capacity = 0;
  const auto unlimited = Run(config);
  uint64_t unlimited_total = unlimited.server_requests;
  for (const uint64_t n : unlimited.proxy_requests) unlimited_total += n;
  EXPECT_EQ(total, unlimited_total);
}

TEST_F(DisseminationSimTest, DChoiceUnderFaultsIsDeterministicAndServes) {
  net::FaultInjectionConfig fault_config;
  fault_config.horizon_days =
      workload_->clean().Span() / kDay + 1.0;
  fault_config.node_failure_rate_per_day = 0.05;
  fault_config.server_failure_rate_per_day = 0.05;
  fault_config.mean_outage_days = 0.5;
  Rng fault_rng(31337);
  const net::FaultSchedule schedule = net::GenerateFaultSchedule(
      workload_->topology(), fault_config, &fault_rng);

  DisseminationConfig config;
  config.num_proxies = 4;
  config.dissemination_fraction = 0.10;
  config.selection_d = 2;
  config.faults = &schedule;
  config.retry.max_attempts = 6;
  config.retry.jitter = 0.0;
  const auto a = Run(config, /*seed=*/11);
  const auto b = Run(config, /*seed=*/11);
  EXPECT_EQ(a.proxy_requests, b.proxy_requests);
  EXPECT_EQ(a.unavailable_requests, b.unavailable_requests);
  EXPECT_LT(a.unavailable_fraction, 0.5);
  EXPECT_GT(a.proxy_hit_fraction, 0.0);
}

// --- Proximity placement + allocation policy ---

TEST_F(DisseminationSimTest, ProximityStrategySavesBandwidth) {
  DisseminationConfig config;
  config.num_proxies = 4;
  config.dissemination_fraction = 0.10;
  config.placement = PlacementStrategy::kProximity;
  config.proximity_allocation = true;
  const auto result = Run(config);
  EXPECT_GT(result.saved_fraction, 0.0);
  EXPECT_LT(result.saved_fraction, 1.0);
  EXPECT_GT(result.proxy_hit_fraction, 0.0);
  EXPECT_EQ(result.proxy_nodes.size(), result.proxy_requests.size());
}

TEST_F(DisseminationSimTest, ProximityAllocationRespectsTotalBudget) {
  // The proximity allocator redistributes the pooled budget; per-proxy
  // stores may differ but the total must not exceed k x per-proxy budget.
  DisseminationConfig config;
  config.num_proxies = 4;
  config.dissemination_fraction = 0.10;
  config.proximity_allocation = true;
  const auto prox = Run(config);
  config.proximity_allocation = false;
  const auto uniform = Run(config);
  EXPECT_LE(prox.total_storage_bytes,
            uniform.total_storage_bytes + uniform.storage_per_proxy_bytes);
  EXPECT_GT(prox.saved_fraction, 0.0);
}

TEST_F(DisseminationSimTest, ProximityStrategyDeterministic) {
  DisseminationConfig config;
  config.num_proxies = 4;
  config.dissemination_fraction = 0.10;
  config.placement = PlacementStrategy::kProximity;
  config.proximity_allocation = true;
  const auto a = Run(config, /*seed=*/3);
  const auto b = Run(config, /*seed=*/99);  // no RNG dependence either
  EXPECT_EQ(a.with_proxies_bytes_hops, b.with_proxies_bytes_hops);
  EXPECT_EQ(a.proxy_requests, b.proxy_requests);
}

}  // namespace
}  // namespace sds::dissem
