#include "dissem/pull_cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/experiments.h"
#include "core/workload.h"
#include "dissem/simulator.h"
#include "trace/cursor.h"
#include "util/rng.h"

namespace sds::dissem {
namespace {

PullCacheResult RunPull(const core::Workload& workload,
                        const PreparedDissemination& prepared,
                        const PullCacheConfig& config, uint64_t seed) {
  Rng rng(seed);
  return SimulatePullThroughCache(prepared, config, &rng, &workload.updates(),
                                  workload.NewCleanCursor().get());
}

class PullCacheTest : public ::testing::Test {
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

  PullCacheResult Run(const PullCacheConfig& config, uint64_t seed = 1) {
    return RunPull(*workload_, *prepared_, config, seed);
  }

  static core::Workload* workload_;
  static PreparedDissemination* prepared_;
};

core::Workload* PullCacheTest::workload_ = nullptr;
PreparedDissemination* PullCacheTest::prepared_ = nullptr;

/// One pull-through replay on the small workload (4 proxies, seed 7),
/// recorded when the replay still rebuilt its own training split, tree,
/// placement and routes: the prepared context must reproduce it exactly.
struct PullGolden {
  PlacementStrategy placement;
  bool invalidate;
  double storage;
  double baseline_bytes_hops;
  double with_proxies_bytes_hops;
  double saved_fraction;
  double proxy_hit_fraction;
  uint64_t storage_per_proxy_bytes;
  uint64_t evictions;
  uint64_t invalidations;
  std::vector<net::NodeId> proxy_nodes;
};

const PullGolden kPullGoldens[] = {
    {PlacementStrategy::kGreedy, true, 0.01, 89945458, 84277347,
     0.063017200935260087, 0.18417639429312582, 46224u, 1107u, 0u,
     {0, 59, 9, 56}},
    {PlacementStrategy::kGreedy, true, 0.5, 89945458, 47853702,
     0.46796977786249083, 0.80544747081712065, 1516255u, 0u, 10u,
     {0, 59, 9, 56}},
    {PlacementStrategy::kGreedy, false, 0.01, 89945458, 84277347,
     0.063017200935260087, 0.18417639429312582, 46224u, 1107u, 0u,
     {0, 59, 9, 56}},
    {PlacementStrategy::kGreedy, false, 0.5, 89945458, 47767597,
     0.46892708023122187, 0.80933852140077822, 1539361u, 0u, 0u,
     {0, 59, 9, 56}},
    {PlacementStrategy::kRegional, true, 0.01, 89945458, 86045276,
     0.043361633669150912, 0.14656290531776914, 42546u, 1219u, 0u,
     {1, 52, 18, 69}},
    {PlacementStrategy::kRegional, true, 0.5, 89945458, 50021158,
     0.44387232982903924, 0.78534370946822307, 1463737u, 0u, 14u,
     {1, 52, 18, 69}},
    {PlacementStrategy::kRegional, false, 0.01, 89945458, 86045276,
     0.043361633669150912, 0.14656290531776914, 42546u, 1219u, 0u,
     {1, 52, 18, 69}},
    {PlacementStrategy::kRegional, false, 0.5, 89945458, 49963882,
     0.44450911573544938, 0.78858625162127105, 1479823u, 0u, 0u,
     {1, 52, 18, 69}},
    {PlacementStrategy::kRandom, true, 0.01, 89945458, 89570989,
     0.0041632897127501511, 0.01232166018158236, 45452u, 117u, 1u,
     {61, 26, 70, 81}},
    {PlacementStrategy::kRandom, true, 0.5, 89945458, 85359129,
     0.050990112252249586, 0.048638132295719845, 462735u, 0u, 3u,
     {61, 26, 70, 81}},
    {PlacementStrategy::kRandom, false, 0.01, 89945458, 89562879,
     0.0042534554663116175, 0.012970168612191959, 45452u, 117u, 0u,
     {61, 26, 70, 81}},
    {PlacementStrategy::kRandom, false, 0.5, 89945458, 85342909,
     0.051170443759372519, 0.049935149156939043, 469755u, 0u, 0u,
     {61, 26, 70, 81}},
    {PlacementStrategy::kProximity, true, 0.01, 89945458, 87064486,
     0.032030211019660415, 0.05901426718547341, 43060u, 453u, 0u,
     {59, 56, 24, 58}},
    {PlacementStrategy::kProximity, true, 0.5, 89945458, 67306576,
     0.25169566650046971, 0.25097276264591439, 947144u, 0u, 9u,
     {59, 56, 24, 58}},
    {PlacementStrategy::kProximity, false, 0.01, 89945458, 87064486,
     0.032030211019660415, 0.05901426718547341, 43060u, 453u, 0u,
     {59, 56, 24, 58}},
    {PlacementStrategy::kProximity, false, 0.5, 89945458, 67244992,
     0.25238034809940046, 0.25291828793774318, 969411u, 0u, 0u,
     {59, 56, 24, 58}},
};

void ExpectPullGoldens(const core::Workload& workload,
                       const PreparedDissemination& prepared) {
  for (const PullGolden& g : kPullGoldens) {
    SCOPED_TRACE(::testing::Message()
                 << "placement " << static_cast<int>(g.placement)
                 << " invalidate " << g.invalidate << " storage "
                 << g.storage);
    PullCacheConfig config;
    config.placement = g.placement;
    config.invalidate_on_update = g.invalidate;
    config.storage_fraction = g.storage;
    const PullCacheResult r = RunPull(workload, prepared, config, 7);
    EXPECT_EQ(r.baseline_bytes_hops, g.baseline_bytes_hops);
    EXPECT_EQ(r.with_proxies_bytes_hops, g.with_proxies_bytes_hops);
    EXPECT_EQ(r.saved_fraction, g.saved_fraction);
    EXPECT_EQ(r.proxy_hit_fraction, g.proxy_hit_fraction);
    EXPECT_EQ(r.storage_per_proxy_bytes, g.storage_per_proxy_bytes);
    EXPECT_EQ(r.evictions, g.evictions);
    EXPECT_EQ(r.invalidations, g.invalidations);
    EXPECT_EQ(r.proxy_nodes, g.proxy_nodes);
  }
}

TEST_F(PullCacheTest, MatchesGoldensUnderEveryPlacement) {
  ExpectPullGoldens(*workload_, *prepared_);
}

TEST_F(PullCacheTest, StreamingTwinMatchesGoldens) {
  core::WorkloadConfig config = core::SmallConfig();
  config.streaming = true;
  const core::Workload workload = core::MakeWorkload(config);
  ExpectPullGoldens(workload, core::PrepareServer0(workload));
}

TEST_F(PullCacheTest, SavesBandwidth) {
  PullCacheConfig config;
  config.num_proxies = 4;
  config.storage_fraction = 0.10;
  const auto result = Run(config);
  EXPECT_GT(result.saved_fraction, 0.0);
  EXPECT_LT(result.saved_fraction, 1.0);
  EXPECT_GT(result.proxy_hit_fraction, 0.0);
}

TEST_F(PullCacheTest, MoreStorageNeverHurts) {
  PullCacheConfig config;
  config.num_proxies = 4;
  config.storage_fraction = 0.02;
  const double small = Run(config).saved_fraction;
  config.storage_fraction = 0.20;
  const double large = Run(config).saved_fraction;
  EXPECT_GE(large, small - 0.02);
}

TEST_F(PullCacheTest, StorageRespectsBudget) {
  PullCacheConfig config;
  config.storage_fraction = 0.05;
  const auto result = Run(config);
  const double budget =
      0.05 * static_cast<double>(workload_->corpus().ServerBytes(0));
  EXPECT_LE(static_cast<double>(result.storage_per_proxy_bytes),
            budget * 1.01);
}

TEST_F(PullCacheTest, TightBudgetEvicts) {
  PullCacheConfig config;
  config.storage_fraction = 0.01;
  const auto tight = Run(config);
  config.storage_fraction = 0.50;
  const auto lax = Run(config);
  EXPECT_GT(tight.evictions, lax.evictions);
}

TEST_F(PullCacheTest, InvalidationDropsCopies) {
  PullCacheConfig config;
  config.invalidate_on_update = true;
  const auto with = Run(config);
  EXPECT_GT(with.invalidations, 0u);
  config.invalidate_on_update = false;
  const auto without = Run(config);
  EXPECT_EQ(without.invalidations, 0u);
  // Invalidation can only reduce hits.
  EXPECT_LE(with.saved_fraction, without.saved_fraction + 0.02);
}

TEST_F(PullCacheTest, PushBeatsPullAtEqualStorage) {
  // The paper's core claim: server-initiated dissemination uses its
  // knowledge of the popularity profile, while pull caching pays
  // compulsory misses. At modest storage push must not lose.
  PullCacheConfig pull;
  pull.num_proxies = 4;
  pull.storage_fraction = 0.10;
  const auto pull_result = Run(pull);

  DisseminationConfig push;
  push.num_proxies = 4;
  push.dissemination_fraction = 0.10;
  Rng rng(1);
  const auto push_result =
      core::SimulateServer0(*workload_, *prepared_, push, &rng);
  EXPECT_GE(push_result.saved_fraction, pull_result.saved_fraction - 0.03);
}

TEST_F(PullCacheTest, EmptyTraceYieldsZero) {
  trace::Trace empty;
  empty.num_clients = workload_->num_clients();
  const PreparedDissemination prepared = PrepareDissemination(
      workload_->corpus(), empty, workload_->topology(), 0,
      DisseminationConfig{}.train_fraction);
  trace::VectorCursor cursor(&empty);
  Rng rng(2);
  const auto result = SimulatePullThroughCache(prepared, PullCacheConfig{},
                                               &rng, nullptr, &cursor);
  EXPECT_EQ(result.baseline_bytes_hops, 0.0);
  EXPECT_DOUBLE_EQ(result.saved_fraction, 0.0);
  EXPECT_TRUE(result.proxy_nodes.empty());
}

}  // namespace
}  // namespace sds::dissem
