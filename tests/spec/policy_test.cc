#include "spec/policy.h"

#include <gtest/gtest.h>

#include "trace/corpus.h"

namespace sds::spec {
namespace {

trace::Corpus MakeCorpus() {
  std::vector<trace::DocumentInfo> docs;
  const uint64_t sizes[] = {1000, 5000, 20000, 100000};
  for (trace::DocumentId id = 0; id < 4; ++id) {
    trace::DocumentInfo d;
    d.id = id;
    d.server = 0;
    d.size_bytes = sizes[id];
    d.path = "/d" + std::to_string(id);
    docs.push_back(d);
  }
  return trace::Corpus(std::move(docs));
}

std::vector<SparseProbMatrix::Entry> Row() {
  return {{0, 0.9f}, {1, 0.6f}, {2, 0.4f}, {3, 0.3f}};
}

TEST(PolicyTest, ThresholdKeepsAboveTp) {
  PolicyConfig config;
  config.threshold = 0.5;
  const auto out = SelectCandidates(Row(), MakeCorpus(), config);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc, 0u);
  EXPECT_EQ(out[1].doc, 1u);
}

TEST(PolicyTest, ThresholdOneKeepsOnlyCertain) {
  PolicyConfig config;
  config.threshold = 1.0;
  EXPECT_TRUE(SelectCandidates(Row(), MakeCorpus(), config).empty());
  const std::vector<SparseProbMatrix::Entry> certain = {{2, 1.0f}};
  EXPECT_EQ(SelectCandidates(certain, MakeCorpus(), config).size(), 1u);
}

TEST(PolicyTest, MaxSizeFiltersLargeDocs) {
  PolicyConfig config;
  config.threshold = 0.2;
  config.max_size = 10000;
  const auto out = SelectCandidates(Row(), MakeCorpus(), config);
  for (const auto& c : out) {
    EXPECT_LE(MakeCorpus().doc(c.doc).size_bytes, 10000u);
  }
  EXPECT_EQ(out.size(), 2u);  // docs 0 and 1
}

TEST(PolicyTest, MaxSizeZeroMeansUnlimited) {
  PolicyConfig config;
  config.threshold = 0.2;
  config.max_size = 0;
  EXPECT_EQ(SelectCandidates(Row(), MakeCorpus(), config).size(), 4u);
}

TEST(PolicyTest, TopKLimitsCount) {
  PolicyConfig config;
  config.kind = PolicyKind::kTopK;
  config.threshold = 0.2;
  config.top_k = 2;
  const auto out = SelectCandidates(Row(), MakeCorpus(), config);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc, 0u);
  EXPECT_EQ(out[1].doc, 1u);
}

TEST(PolicyTest, ByteBudgetGreedyFill) {
  PolicyConfig config;
  config.kind = PolicyKind::kByteBudget;
  config.threshold = 0.2;
  config.byte_budget = 7000;
  const auto out = SelectCandidates(Row(), MakeCorpus(), config);
  // 1000 + 5000 fit; 20000 and 100000 do not.
  ASSERT_EQ(out.size(), 2u);
  uint64_t total = 0;
  for (const auto& c : out) total += MakeCorpus().doc(c.doc).size_bytes;
  EXPECT_LE(total, 7000u);
}

TEST(PolicyTest, ByteBudgetSkipsTooBigButContinues) {
  PolicyConfig config;
  config.kind = PolicyKind::kByteBudget;
  config.threshold = 0.2;
  config.byte_budget = 1500;
  // Doc 0 (1000) fits; doc 1 (5000) doesn't; nothing else under 500 left.
  const auto out = SelectCandidates(Row(), MakeCorpus(), config);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].doc, 0u);
}

TEST(PolicyTest, EmptyRow) {
  PolicyConfig config;
  EXPECT_TRUE(SelectCandidates({}, MakeCorpus(), config).empty());
}

TEST(PolicyTest, OutputSortedByProbability) {
  PolicyConfig config;
  config.threshold = 0.2;
  const auto out = SelectCandidates(Row(), MakeCorpus(), config);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i - 1].probability, out[i].probability);
  }
}

TEST(PolicyTest, BufferFormEqualsVectorForm) {
  const trace::Corpus corpus = MakeCorpus();
  // A stale set in the buffer must be replaced, not appended to.
  std::vector<CandidateDoc> buffer = {{3, 0.5}, {2, 0.5}, {1, 0.5}};
  for (const PolicyKind kind :
       {PolicyKind::kThreshold, PolicyKind::kTopK, PolicyKind::kByteBudget}) {
    for (const double threshold : {1.0, 0.5, 0.2}) {
      for (const uint64_t max_size : {uint64_t{0}, uint64_t{10000}}) {
        PolicyConfig config;
        config.kind = kind;
        config.threshold = threshold;
        config.top_k = 2;
        config.byte_budget = 30000;
        config.max_size = max_size;
        const std::vector<CandidateDoc> want =
            SelectCandidates(Row(), corpus, config);
        SelectCandidates(Row(), corpus, config, &buffer);
        ASSERT_EQ(buffer.size(), want.size());
        for (size_t k = 0; k < want.size(); ++k) {
          EXPECT_EQ(buffer[k].doc, want[k].doc);
          EXPECT_EQ(buffer[k].probability, want[k].probability);
        }
      }
    }
  }
}

}  // namespace
}  // namespace sds::spec
