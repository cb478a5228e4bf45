#include "core/combined.h"

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/workload.h"
#include "util/rng.h"

namespace sds::core {
namespace {

CombinedResult RunCombined(const Workload& workload,
                           const dissem::PreparedDissemination& prepared,
                           uint32_t proxies, double tp) {
  CombinedConfig config;
  config.dissemination.num_proxies = proxies;
  config.dissemination.dissemination_fraction = 0.10;
  config.speculation = BaselineSpecConfig();
  config.speculation.policy.threshold = tp;
  Rng rng(3);
  return SimulateCombined(prepared, config, &rng,
                          workload.NewCleanCursor().get());
}

class CombinedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new Workload(MakeWorkload(SmallConfig()));
    prepared_ = new dissem::PreparedDissemination(PrepareServer0(*workload_));
  }
  static void TearDownTestSuite() {
    delete prepared_;
    prepared_ = nullptr;
    delete workload_;
    workload_ = nullptr;
  }

  static CombinedResult Run(uint32_t proxies, double tp) {
    return RunCombined(*workload_, *prepared_, proxies, tp);
  }

  static Workload* workload_;
  static dissem::PreparedDissemination* prepared_;
};

Workload* CombinedTest::workload_ = nullptr;
dissem::PreparedDissemination* CombinedTest::prepared_ = nullptr;

/// The four abl_combined cases on the small workload (10% storage),
/// recorded when the combined replay still rebuilt its own training split,
/// tree and routes: the prepared context must reproduce them exactly.
struct CombinedGolden {
  uint32_t proxies;
  double tp;
  CombinedResult result;
};

const CombinedGolden kCombinedGoldens[] = {
    {4, 1.01, {0.64630333183005395, 0.15655233069481089,
              0.73578948502107977, 0.84344766930518911, 0.26264591439688717}},
    {0, 0.3, {1.1244082340600801, 0.49604221635883905,
              0.46312045688838088, 0, 0.63424124513618674}},
    {4, 0.3, {0.69371659312487555, 0.12489006156552331,
              0.47380421296020209, 0.76174496644295298, 0.61348897535667968}},
    {8, 0.2, {0.63879769541219733, 0.12225153913808268,
              0.44538051514753729, 0.75, 0.6394293125810635}},
};

void ExpectCombinedGoldens(const Workload& workload,
                           const dissem::PreparedDissemination& prepared) {
  for (const CombinedGolden& g : kCombinedGoldens) {
    SCOPED_TRACE(::testing::Message()
                 << g.proxies << " proxies, Tp " << g.tp);
    const CombinedResult r = RunCombined(workload, prepared, g.proxies, g.tp);
    EXPECT_EQ(r.bytes_hops_ratio, g.result.bytes_hops_ratio);
    EXPECT_EQ(r.server_load_ratio, g.result.server_load_ratio);
    EXPECT_EQ(r.service_time_ratio, g.result.service_time_ratio);
    EXPECT_EQ(r.proxy_share, g.result.proxy_share);
    EXPECT_EQ(r.cache_hit_share, g.result.cache_hit_share);
  }
}

TEST_F(CombinedTest, MatchesAblationGoldens) {
  ExpectCombinedGoldens(*workload_, *prepared_);
}

TEST_F(CombinedTest, StreamingTwinMatchesAblationGoldens) {
  WorkloadConfig config = SmallConfig();
  config.streaming = true;
  const Workload workload = MakeWorkload(config);
  ExpectCombinedGoldens(workload, PrepareServer0(workload));
}

TEST_F(CombinedTest, RatiosWithinBounds) {
  const CombinedResult r = Run(4, 0.3);
  EXPECT_GT(r.bytes_hops_ratio, 0.0);
  EXPECT_GT(r.server_load_ratio, 0.0);
  EXPECT_GT(r.service_time_ratio, 0.0);
  EXPECT_GE(r.proxy_share, 0.0);
  EXPECT_LE(r.proxy_share, 1.0);
  EXPECT_GE(r.cache_hit_share, 0.0);
  EXPECT_LE(r.cache_hit_share, 1.0);
}

TEST_F(CombinedTest, CombinedBeatsPlainOnEveryAxis) {
  const CombinedResult r = Run(4, 0.3);
  EXPECT_LT(r.server_load_ratio, 1.0);
  EXPECT_LT(r.service_time_ratio, 1.0);
  // bytes x hops can exceed 1 only with very aggressive speculation; at
  // Tp = 0.3 the proxy shortcuts dominate the extra pushed bytes.
  EXPECT_LT(r.bytes_hops_ratio, 1.0);
}

TEST_F(CombinedTest, CombinedLoadBelowEitherAlone) {
  const CombinedResult dissem_only = Run(4, 1.01);  // Tp > 1: no pushes
  const CombinedResult spec_only = Run(0, 0.3);     // no proxies
  const CombinedResult both = Run(4, 0.3);
  EXPECT_LT(both.server_load_ratio, dissem_only.server_load_ratio);
  EXPECT_LT(both.server_load_ratio, spec_only.server_load_ratio + 0.02);
}

TEST_F(CombinedTest, NoProxiesMeansNoProxyShare) {
  const CombinedResult r = Run(0, 0.3);
  EXPECT_DOUBLE_EQ(r.proxy_share, 0.0);
}

TEST_F(CombinedTest, SpeculationRaisesCacheHits) {
  const CombinedResult quiet = Run(4, 1.01);
  const CombinedResult pushy = Run(4, 0.2);
  EXPECT_GT(pushy.cache_hit_share, quiet.cache_hit_share);
}

}  // namespace
}  // namespace sds::core
