/// Shape tests for every paper artefact runner: each experiment must
/// reproduce the qualitative result the paper reports (who wins, rough
/// factors, crossovers) on a small workload.

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "core/experiments.h"
#include "core/workload.h"

namespace sds::core {
namespace {

/// Every shape test runs on both trace sources of SmallConfig: the
/// materialised trace and the on-the-fly generated one.
class ExperimentsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (const bool streaming : {false, true}) {
      WorkloadConfig config = SmallConfig();
      config.streaming = streaming;
      workloads_[streaming] = new Workload(MakeWorkload(config));
    }
  }
  static void TearDownTestSuite() {
    for (Workload*& workload : workloads_) {
      delete workload;
      workload = nullptr;
    }
  }
  /// Runs `body` on the batch workload, then on the streaming one.
  template <typename Body>
  static void ForEachMode(Body&& body) {
    for (const bool streaming : {false, true}) {
      SCOPED_TRACE(streaming ? "streaming" : "batch");
      body(*workloads_[streaming]);
    }
  }
  static Workload* workloads_[2];
};

Workload* ExperimentsTest::workloads_[2] = {nullptr, nullptr};

TEST_F(ExperimentsTest, Fig1PopularityIsSkewed) {
  ForEachMode([](const Workload& workload) {
    const Fig1Result result = RunFig1(workload);
    ASSERT_FALSE(result.cumulative_requests.empty());
    // Strong concentration: top 10% of bytes covers over half the requests,
    // and the cumulative curve is monotone ending at ~1.
    EXPECT_GT(result.top_ten_percent_coverage, 0.5);
    EXPECT_GT(result.top_ten_percent_coverage,
              result.top_half_percent_coverage);
    for (size_t i = 1; i < result.cumulative_requests.size(); ++i) {
      EXPECT_GE(result.cumulative_requests[i],
                result.cumulative_requests[i - 1] - 1e-9);
    }
    EXPECT_NEAR(result.cumulative_requests.back(), 1.0, 1e-6);
    EXPECT_LT(result.accessed_docs, result.total_docs);
    EXPECT_EQ(result.ToTable().num_columns(), 4u);
  });
}

TEST_F(ExperimentsTest, Tab1ClassesMatchPaperShape) {
  ForEachMode([](const Workload& workload) {
    const Tab1Result result = RunTab1(workload);
    const auto& c = result.classification;
    // Paper: locally popular is the largest class; remotely popular the
    // smallest of the three; locals update most.
    EXPECT_GT(c.locally_popular, c.remotely_popular);
    EXPECT_GT(c.globally_popular, 0u);
    EXPECT_GT(result.local_mean_update_rate, result.remote_mean_update_rate);
    EXPECT_EQ(result.ToTable().num_rows(), 4u);
  });
}

TEST(ExperimentsMathTest, Fig2AllocationShape) {
  const Fig2Result result = RunFig2(10);
  ASSERT_GT(result.lambda_ratio.size(), 10u);
  const size_t n = result.lambda_ratio.size();
  // With B_0 = 10/lambda_i and n = 10, B_0 is *not* >> n/lambda_i, so both
  // curves peak at an intermediate lambda_j (the paper's "if the storage
  // capacity is not big enough, intermediate values are favored"); the lax
  // curve dominates the tight one and peaks further left (more uniform
  // servers favored as storage grows).
  auto argmax = [&](const std::vector<double>& v) {
    size_t best = 0;
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i] > v[best]) best = i;
    }
    return best;
  };
  const size_t tight_peak = argmax(result.tight_allocation);
  const size_t lax_peak = argmax(result.lax_allocation);
  EXPECT_GT(tight_peak, 0u);
  EXPECT_LT(tight_peak, n - 1);
  EXPECT_LE(lax_peak, tight_peak);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GE(result.lax_allocation[i], result.tight_allocation[i] - 1e-9);
    EXPECT_GE(result.tight_allocation[i], 0.0);
  }
  // At lambda_j = lambda_i the allocation is exactly B_0 / n.
  size_t at_one = 0;
  for (size_t i = 0; i < n; ++i) {
    if (std::abs(result.lambda_ratio[i] - 1.0) <
        std::abs(result.lambda_ratio[at_one] - 1.0)) {
      at_one = i;
    }
  }
  EXPECT_NEAR(result.lax_allocation[at_one], 1.0, 0.15);
}

TEST(ExperimentsMathTest, Tab2WorkedNumbers) {
  const Tab2Result result = RunTab2();
  EXPECT_NEAR(result.storage_10_servers_90pct / (1024.0 * 1024.0), 36.0, 1.5);
  EXPECT_NEAR(result.shield_100_servers_500mb, 0.96, 0.01);
}

TEST_F(ExperimentsTest, Fig3SavingsGrowAndSaturate) {
  ForEachMode([](const Workload& workload) {
    const Fig3Result result = RunFig3(workload, /*max_proxies=*/8);
    ASSERT_EQ(result.num_proxies.size(), 8u);
    // More proxies never hurt (within noise), 10% curve dominates 4% curve.
    EXPECT_GT(result.saved_top10.back(), result.saved_top10.front() - 0.02);
    for (size_t i = 0; i < result.num_proxies.size(); ++i) {
      EXPECT_GE(result.saved_top10[i], result.saved_top4[i] - 0.03) << i;
      EXPECT_GE(result.saved_top10[i], 0.0);
      EXPECT_LE(result.saved_top10[i], 1.0);
    }
    // Saturation: the marginal gain of the last proxy is smaller than that
    // of the first.
    const double first_gain = result.saved_top10[0];
    const double last_gain =
        result.saved_top10.back() -
        result.saved_top10[result.num_proxies.size() - 2];
    EXPECT_GT(first_gain, last_gain);
    // Storage grows linearly with proxies.
    EXPECT_NEAR(result.storage_top10.back() / result.storage_top10.front(),
                8.0, 0.5);
  });
}

TEST_F(ExperimentsTest, Fig4HistogramHasEmbeddingPeakAndInversePeaks) {
  ForEachMode([](const Workload& workload) {
    const Fig4Result result = RunFig4(workload, 5.0, 40, 14);
    EXPECT_GT(result.total_pairs, 100u);
    ASSERT_FALSE(result.peak_centers.empty());
    // The rightmost peak must be near p = 1 (embedding dependencies).
    EXPECT_GT(result.peak_centers.back(), 0.8);
    // And there must be at least one peak below 0.6 (traversal, ~1/k).
    EXPECT_LT(result.peak_centers.front(), 0.6);
  });
}

TEST_F(ExperimentsTest, Fig5And6ShapesMatchPaper) {
  ForEachMode([](const Workload& workload) {
    const Fig5Result result =
        RunFig5(workload, {1.0, 0.8, 0.5, 0.3, 0.15});
    ASSERT_EQ(result.points.size(), 5u);
    // Traffic grows monotonically as Tp drops.
    for (size_t i = 1; i < result.points.size(); ++i) {
      EXPECT_GE(result.points[i].metrics.bandwidth_ratio,
                result.points[i - 1].metrics.bandwidth_ratio - 1e-6);
      // All reductions stay in [0, 1].
      EXPECT_LE(result.points[i].metrics.server_load_ratio, 1.0 + 1e-6);
      EXPECT_GT(result.points[i].metrics.server_load_ratio, 0.0);
    }
    // Embedding-only speculation (Tp = 1) is nearly free.
    EXPECT_LT(result.points[0].metrics.extra_traffic, 0.05);
    // Aggressive speculation cuts load by a large factor.
    EXPECT_LT(result.points.back().metrics.server_load_ratio, 0.8);
    // Diminishing returns: load reduction per unit extra traffic shrinks.
    const auto& mid = result.points[2].metrics;
    const auto& end = result.points.back().metrics;
    const double mid_eff =
        (1.0 - mid.server_load_ratio) / std::max(0.01, mid.extra_traffic);
    const double end_eff =
        (1.0 - end.server_load_ratio) / std::max(0.01, end.extra_traffic);
    EXPECT_GT(mid_eff, end_eff);
    EXPECT_EQ(result.ToTable().num_rows(), 5u);
    EXPECT_EQ(result.ToFig6Table().num_rows(), 5u);
  });
}

TEST_F(ExperimentsTest, ExpMaxSizeHasInteriorSweetSpot) {
  ForEachMode([](const Workload& workload) {
    const ExpMaxSizeResult result = RunExpMaxSize(workload, 0.2);
    ASSERT_GE(result.rows.size(), 4u);
    // Traffic grows with MaxSize; unlimited uses the most.
    EXPECT_LT(result.rows.front().metrics.bandwidth_ratio,
              result.rows.back().metrics.bandwidth_ratio + 1e-6);
    // Small MaxSize keeps most of the load reduction at a fraction of the
    // traffic (the paper's "speculation pays off for small documents").
    const auto& small = result.rows[3].metrics;   // 15 KB
    const auto& unlimited = result.rows.back().metrics;
    EXPECT_LT(small.extra_traffic, unlimited.extra_traffic);
    EXPECT_LT(small.server_load_ratio, 1.0);
  });
}

TEST_F(ExperimentsTest, ExpClientCachingShapes) {
  ForEachMode([](const Workload& workload) {
    const ExpClientCachingResult result = RunExpClientCaching(workload, 0.25);
    ASSERT_EQ(result.rows.size(), 4u);
    // Without any cache, pushed documents cannot be retained, so speculation
    // is neutral (ratio ~1). Under every *caching* model gains exist.
    EXPECT_NEAR(result.rows[0].metrics.server_load_ratio, 1.0, 0.01);
    for (size_t i = 1; i < result.rows.size(); ++i) {
      EXPECT_LT(result.rows[i].metrics.server_load_ratio, 1.0)
          << result.rows[i].label;
    }
  });
}

/// Every field of a SpeculationMetrics in declaration order: the four
/// ratios, extra traffic and unavailability, then both runs' totals (the
/// counts are far below 2^53, so they are exact as doubles).
std::vector<double> MetricsFields(const spec::SpeculationMetrics& m) {
  std::vector<double> fields = {m.bandwidth_ratio,   m.server_load_ratio,
                                m.service_time_ratio, m.miss_rate_ratio,
                                m.extra_traffic,
                                m.unavailable_request_fraction};
  for (const spec::RunTotals* t :
       {&m.with_speculation, &m.without_speculation}) {
    fields.insert(
        fields.end(),
        {t->bytes_sent, static_cast<double>(t->server_requests),
         static_cast<double>(t->client_requests), t->total_latency,
         t->miss_bytes, t->requested_bytes,
         static_cast<double>(t->speculative_docs_sent), t->speculative_bytes,
         static_cast<double>(t->speculative_hits), t->wasted_speculative_bytes,
         static_cast<double>(t->prefetch_requests),
         static_cast<double>(t->cache_hits),
         static_cast<double>(t->demand_server_responses),
         t->demand_bytes_sent,
         static_cast<double>(t->wasted_speculative_docs),
         static_cast<double>(t->unused_resident_speculative_docs),
         static_cast<double>(t->unavailable_requests),
         static_cast<double>(t->retry_attempts), t->retry_wait_seconds,
         static_cast<double>(t->brownout_responses),
         static_cast<double>(t->suppressed_speculative_docs),
         static_cast<double>(t->emergent_brownouts),
         static_cast<double>(t->breaker_open_transitions),
         static_cast<double>(t->retries_suppressed_by_budget),
         static_cast<double>(t->shed_speculative_docs),
         static_cast<double>(t->breaker_fast_fails)});
  }
  return fields;
}

/// Every metrics field of the four client-caching rows on SmallConfig at
/// T_p = 0.25, recorded before the client cache became a hash table. The
/// finite-LRU and single-session rows are the only replays of eviction and
/// session purging that the goldens pin.
const std::vector<double> kClientCachingPins[] = {
    // no cache
    {2.5279091977260491, 1, 1, 1, 1.5279091977260491, 0, 264209339, 11512,
     11512, 219636942, 104516942, 104516942, 15474, 159692397, 0, 0, 0, 0,
     11512, 104516942, 15474, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 104516942, 11512,
     11512, 219636942, 104516942, 104516942, 0, 0, 0, 0, 0, 0, 11512, 104516942,
     0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
    // single-session 1 h
    {1.2363974269480376, 0.56064880112834981, 0.53107098739157876,
     0.49860920529145747, 0.23639742694803756, 0, 127796224, 6360, 11512,
     115137129, 51537129, 104516942, 8369, 76259095, 4984, 21768217, 0, 5152,
     6360, 51537129, 3071, 314, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 103361768, 11344,
     11512, 216801768, 103361768, 104516942, 0, 0, 0, 0, 0, 168, 11344,
     103361768, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
    // finite LRU 256 KB
    {1.2628266161048327, 0.6009790528233151, 0.56753802178101465,
     0.53350716280806143, 0.26282661610483271, 0, 109004092, 5279, 11512,
     98841028, 46051028, 104516942, 6913, 62953064, 3689, 16390267, 0, 6233,
     5279, 46051028, 2757, 467, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 86317544, 8784,
     11512, 174157544, 86317544, 104516942, 0, 0, 0, 0, 0, 2728, 8784, 86317544,
     0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
    // infinite
    {1.2372149596372073, 0.61023033203709243, 0.5840339337879159,
     0.55772908291261636, 0.23721495963720729, 0, 82379144, 4080, 11512,
     77936024, 37136024, 104516942, 5002, 45243120, 2606, 9771431, 0, 7432,
     4080, 37136024, 1874, 522, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 66584342, 6686,
     11512, 133444342, 66584342, 104516942, 0, 0, 0, 0, 0, 4826, 6686, 66584342,
     0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
};

TEST_F(ExperimentsTest, ExpClientCachingMatchesPins) {
  ForEachMode([](const Workload& workload) {
    const ExpClientCachingResult result = RunExpClientCaching(workload, 0.25);
    ASSERT_EQ(result.rows.size(), std::size(kClientCachingPins));
    for (size_t i = 0; i < result.rows.size(); ++i) {
      SCOPED_TRACE(result.rows[i].label);
      const std::vector<double> fields = MetricsFields(result.rows[i].metrics);
      ASSERT_EQ(fields.size(), kClientCachingPins[i].size());
      for (size_t f = 0; f < fields.size(); ++f) {
        EXPECT_EQ(fields[f], kClientCachingPins[i][f]) << "field " << f;
      }
    }
  });
}

TEST_F(ExperimentsTest, ExpCooperativeSavesBandwidth) {
  ForEachMode([](const Workload& workload) {
    const ExpCooperativeResult result = RunExpCooperative(workload);
    ASSERT_EQ(result.rows.size(), 6u);
    for (size_t i = 0; i + 1 < result.rows.size(); i += 2) {
      const auto& blind = result.rows[i];
      const auto& coop = result.rows[i + 1];
      ASSERT_FALSE(blind.cooperative);
      ASSERT_TRUE(coop.cooperative);
      EXPECT_LE(coop.metrics.bandwidth_ratio,
                blind.metrics.bandwidth_ratio + 1e-6);
    }
  });
}

TEST_F(ExperimentsTest, ExpPrefetchModesAllHelp) {
  ForEachMode([](const Workload& workload) {
    const ExpPrefetchResult result = RunExpPrefetch(workload, 0.25);
    ASSERT_EQ(result.rows.size(), 4u);
    for (const auto& row : result.rows) {
      EXPECT_LT(row.metrics.miss_rate_ratio, 1.0);
    }
    // Server push covers newly traversed documents, so it beats pure
    // client-side prefetching on miss rate; server hints match push on miss
    // rate (same candidates reach the cache) without duplicate bytes.
    EXPECT_LT(result.rows[0].metrics.miss_rate_ratio,
              result.rows[2].metrics.miss_rate_ratio);
    EXPECT_NEAR(result.rows[1].metrics.miss_rate_ratio,
                result.rows[0].metrics.miss_rate_ratio, 0.1);
    EXPECT_LE(result.rows[1].metrics.bandwidth_ratio,
              result.rows[0].metrics.bandwidth_ratio + 1e-6);
  });
}

TEST_F(ExperimentsTest, ExpUpdateCycleStaleModelsDegrade) {
  ForEachMode([](const Workload& workload) {
    const ExpUpdateCycleResult result = RunExpUpdateCycle(workload, 0.25);
    ASSERT_GE(result.rows.size(), 3u);
    // D = 1 is the reference; the D = 60 row (never re-estimated within a
    // 14-day trace) must not be better than D = 1.
    EXPECT_GE(result.MeanDegradation(2), -0.02);
  });
}

}  // namespace
}  // namespace sds::core
