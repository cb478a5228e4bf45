/// Asserts that the paper-scale synthetic workload actually reproduces the
/// statistical properties the reproduction depends on (DESIGN.md §2's
/// substitution argument). These run at paper scale and are the slowest
/// tests in the suite; they are what licenses every other experiment to
/// claim "shape holds".

#include <gtest/gtest.h>

#include "core/fidelity.h"
#include "core/workload.h"

namespace sds::core {
namespace {

/// Every property is measured on both trace sources of the paper-scale
/// workload: the materialised trace and the on-the-fly generated one.
class FidelityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (const bool streaming : {false, true}) {
      WorkloadConfig config = PaperScaleConfig();
      config.streaming = streaming;
      reports_[streaming] =
          new FidelityReport(ComputeFidelityReport(MakeWorkload(config)));
    }
  }
  static void TearDownTestSuite() {
    for (FidelityReport*& report : reports_) {
      delete report;
      report = nullptr;
    }
  }
  /// Runs `body` on the batch report, then on the streaming one.
  template <typename Body>
  static void ForEachMode(Body&& body) {
    for (const bool streaming : {false, true}) {
      SCOPED_TRACE(streaming ? "streaming" : "batch");
      body(*reports_[streaming]);
    }
  }
  static FidelityReport* reports_[2];
};

FidelityReport* FidelityTest::reports_[2] = {nullptr, nullptr};

TEST_F(FidelityTest, TraceVolumeInPaperBallpark) {
  ForEachMode([](const FidelityReport& report) {
    // Paper: 205,925 accesses, 8,474 clients, 20k+ sessions / ~90 days.
    // The synthetic default uses 2,000 clients; volumes scale accordingly.
    EXPECT_GT(report.accesses, 50000u);
    EXPECT_LT(report.accesses, 500000u);
    EXPECT_GT(report.sessions, 8000u);
    EXPECT_NEAR(report.days, 90.0, 2.0);
    EXPECT_GT(report.requests_per_session, 3.0);
    EXPECT_LT(report.requests_per_session, 20.0);
  });
}

TEST_F(FidelityTest, PopularityConcentrationMatchesFigure1) {
  ForEachMode([](const FidelityReport& report) {
    // Paper: 69% at 0.5% of bytes, 91% at 10%.
    EXPECT_NEAR(report.top_half_percent_coverage, 0.69, 0.12);
    EXPECT_GT(report.top_ten_percent_coverage, 0.85);
    // Roughly half the documents are ever accessed (paper: 974 of 2000+,
    // 656 remotely).
    EXPECT_GT(report.docs_remotely_accessed, 300u);
    EXPECT_LT(report.docs_remotely_accessed, report.docs_total);
    EXPECT_GT(report.accessed_bytes_fraction, 0.4);
  });
}

TEST_F(FidelityTest, ClassSharesMatchSection2) {
  ForEachMode([](const FidelityReport& report) {
    // Paper: ~10% / 52% / 37%. Locally popular must dominate; remotely
    // popular must be the smallest class.
    EXPECT_GT(report.local_class_share, 0.40);
    EXPECT_GT(report.global_class_share, 0.15);
    EXPECT_LT(report.remote_class_share, report.global_class_share);
    EXPECT_LT(report.remote_class_share, report.local_class_share);
    EXPECT_NEAR(report.remote_class_share + report.local_class_share +
                    report.global_class_share,
                1.0, 1e-6);
  });
}

TEST_F(FidelityTest, UpdateRatesMatchSection2) {
  ForEachMode([](const FidelityReport& report) {
    // Paper: ~2%/day for locally popular, <0.5%/day otherwise; at minimum
    // an unambiguous ordering with locals well above the rest.
    EXPECT_GT(report.local_update_rate, 0.01);
    EXPECT_LT(report.other_update_rate, report.local_update_rate);
  });
}

TEST_F(FidelityTest, DependencyStructureMatchesFigure4) {
  ForEachMode([](const FidelityReport& report) {
    EXPECT_GT(report.dependency_pairs, 500u);
    EXPECT_GE(report.peaks_detected, 3u);
    // The embedding peak sits at the right edge.
    EXPECT_GT(report.rightmost_peak, 0.85);
  });
}

}  // namespace
}  // namespace sds::core
