#include "dissem/classify.h"

#include <gtest/gtest.h>

#include "core/workload.h"
#include "dissem/popularity.h"
#include "util/sim_time.h"

namespace sds::dissem {
namespace {

class ClassifyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new core::Workload(core::MakeWorkload(core::SmallConfig()));
    const auto pops =
        AnalyzeAllServers(workload_->corpus(), workload_->clean());
    const uint32_t days =
        static_cast<uint32_t>(workload_->clean().Span() / kDay) + 1;
    result_ = new DocumentClassification(
        ClassifyDocuments(workload_->corpus(), pops,
                          workload_->generated().updates, days));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete workload_;
    result_ = nullptr;
    workload_ = nullptr;
  }

  static core::Workload* workload_;
  static DocumentClassification* result_;
};

core::Workload* ClassifyTest::workload_ = nullptr;
DocumentClassification* ClassifyTest::result_ = nullptr;

TEST_F(ClassifyTest, CountsSumToCorpus) {
  EXPECT_EQ(result_->remotely_popular + result_->locally_popular +
                result_->globally_popular + result_->unaccessed,
            workload_->corpus().size());
}

TEST_F(ClassifyTest, AllClassesPresent) {
  EXPECT_GT(result_->remotely_popular, 0u);
  EXPECT_GT(result_->locally_popular, 0u);
  EXPECT_GT(result_->globally_popular, 0u);
}

TEST_F(ClassifyTest, InferenceMatchesGeneratorIntent) {
  // The analyzer should recover the generator's audience classes far
  // better than chance: among documents classified remotely-popular, the
  // dominant ground-truth class must be kRemote, and similarly for local.
  const auto& corpus = workload_->corpus();
  const auto pops = AnalyzeAllServers(workload_->corpus(), workload_->clean());
  int remote_correct = 0, remote_total = 0;
  int local_correct = 0, local_total = 0;
  for (trace::DocumentId id = 0; id < corpus.size(); ++id) {
    // Restrict to documents with enough accesses for the remote-to-local
    // ratio to be statistically meaningful.
    if (pops[corpus.doc(id).server].stats[id].total_requests() < 5) {
      continue;
    }
    if (result_->pop_class[id] == PopularityClass::kRemotelyPopular) {
      ++remote_total;
      if (corpus.doc(id).audience == trace::AudienceClass::kRemote ||
          corpus.doc(id).audience == trace::AudienceClass::kGlobal) {
        ++remote_correct;
      }
    }
    if (result_->pop_class[id] == PopularityClass::kLocallyPopular) {
      ++local_total;
      if (corpus.doc(id).audience == trace::AudienceClass::kLocal) {
        ++local_correct;
      }
    }
  }
  // Remotely popular documents are rare on a small workload; only check
  // the precision when there are any well-supported ones.
  if (remote_total > 0) {
    EXPECT_GT(remote_correct, remote_total * 0.7);
  }
  ASSERT_GT(local_total, 0);
  EXPECT_GT(local_correct, local_total * 0.7);
}

TEST_F(ClassifyTest, UpdateRatesMatchPaperShape) {
  // Locally popular documents update noticeably more often on average
  // (paper: ~2%/day vs < 0.5%/day).
  const double local =
      result_->MeanUpdateRate(PopularityClass::kLocallyPopular);
  const double remote =
      result_->MeanUpdateRate(PopularityClass::kRemotelyPopular);
  EXPECT_GT(local, remote);
}

TEST_F(ClassifyTest, MutableSubsetIsSmall) {
  EXPECT_GT(result_->mutable_docs, 0u);
  EXPECT_LT(result_->mutable_docs, workload_->corpus().size() / 4);
}

TEST_F(ClassifyTest, UpdateRatesConsistentWithLog) {
  std::vector<double> manual(workload_->corpus().size(), 0.0);
  for (const auto& u : workload_->generated().updates) manual[u.doc] += 1.0;
  const uint32_t days =
      static_cast<uint32_t>(workload_->clean().Span() / kDay) + 1;
  for (size_t i = 0; i < manual.size(); ++i) {
    EXPECT_NEAR(result_->updates_per_day[i], manual[i] / days, 1e-12);
  }
}

TEST(ClassifyNamesTest, Strings) {
  EXPECT_STREQ(PopularityClassToString(PopularityClass::kRemotelyPopular),
               "remotely-popular");
  EXPECT_STREQ(PopularityClassToString(PopularityClass::kUnaccessed),
               "unaccessed");
}

}  // namespace
}  // namespace sds::dissem
