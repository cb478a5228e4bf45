#include "spec/closure.h"

#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace sds::spec {
namespace {

SparseProbMatrix ChainMatrix() {
  // 0 -> 1 (0.8), 1 -> 2 (0.5), 2 -> 3 (0.5), plus 0 -> 2 direct (0.1).
  SparseProbMatrix p(4);
  p.Add(0, 1, 0.8);
  p.Add(1, 2, 0.5);
  p.Add(2, 3, 0.5);
  p.Add(0, 2, 0.1);
  p.SortRows();
  return p;
}

ClosureConfig Config(double min_prob = 0.01) {
  ClosureConfig c;
  c.min_probability = min_prob;
  return c;
}

TEST(ClosureTest, MaxProductPicksBestChain) {
  const auto p = ChainMatrix();
  const auto row = ComputeClosureRow(p, 0, Config());
  // p*(0,1) = 0.8; p*(0,2) = max(0.1, 0.8*0.5) = 0.4; p*(0,3) = 0.4*0.5.
  double p01 = 0.0, p02 = 0.0, p03 = 0.0;
  for (const auto& e : row) {
    if (e.doc == 1) p01 = e.probability;
    if (e.doc == 2) p02 = e.probability;
    if (e.doc == 3) p03 = e.probability;
  }
  EXPECT_NEAR(p01, 0.8, 1e-6);
  EXPECT_NEAR(p02, 0.4, 1e-6);
  EXPECT_NEAR(p03, 0.2, 1e-6);
}

TEST(ClosureTest, ClosureDominatesDirectEdges) {
  const auto p = ChainMatrix();
  const auto closure = ComputeClosure(p, Config());
  for (trace::DocumentId i = 0; i < p.num_docs(); ++i) {
    for (const auto& e : p.Row(i)) {
      EXPECT_GE(closure.Get(i, e.doc) + 1e-6, e.probability);
    }
  }
}

TEST(ClosureTest, MinProbabilityPrunesChains) {
  const auto p = ChainMatrix();
  const auto row = ComputeClosureRow(p, 0, Config(0.3));
  for (const auto& e : row) {
    EXPECT_GE(e.probability, 0.3f);
    EXPECT_NE(e.doc, 3u);  // 0.2 pruned
  }
}

TEST(ClosureTest, MaxDepthLimitsChainLength) {
  ClosureConfig config = Config();
  config.max_depth = 1;
  const auto p = ChainMatrix();
  const auto row = ComputeClosureRow(p, 0, config);
  // Depth 1: only direct successors.
  for (const auto& e : row) {
    EXPECT_TRUE(e.doc == 1 || e.doc == 2);
    if (e.doc == 2) {
      EXPECT_NEAR(e.probability, 0.1, 1e-6);
    }
  }
}

TEST(ClosureTest, CycleTerminates) {
  SparseProbMatrix p(2);
  p.Add(0, 1, 0.9);
  p.Add(1, 0, 0.9);
  p.SortRows();
  const auto row = ComputeClosureRow(p, 0, Config());
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0].doc, 1u);
  EXPECT_NEAR(row[0].probability, 0.9, 1e-6);
}

TEST(ClosureTest, SourceNeverInOwnRow) {
  const auto p = ChainMatrix();
  for (trace::DocumentId i = 0; i < p.num_docs(); ++i) {
    for (const auto& e : ComputeClosureRow(p, i, Config())) {
      EXPECT_NE(e.doc, i);
    }
  }
}

TEST(ClosureTest, RowsSortedDescending) {
  const auto p = ChainMatrix();
  const auto row = ComputeClosureRow(p, 0, Config());
  for (size_t i = 1; i < row.size(); ++i) {
    EXPECT_GE(row[i - 1].probability, row[i].probability);
  }
}

TEST(ClosureTest, SumProductAddsParallelPaths) {
  // Two disjoint 0 -> 2 paths of probability 0.3 each: max-product gives
  // 0.3, sum-product gives 0.51 (1 - (1-0.3)^2 would be noisy-or; plain
  // sum gives 0.6 capped... our sum-product literally adds: 0.3 + 0.3).
  SparseProbMatrix p(4);
  p.Add(0, 1, 0.6);
  p.Add(1, 3, 0.5);
  p.Add(0, 2, 0.6);
  p.Add(2, 3, 0.5);
  p.SortRows();
  ClosureConfig max_config = Config();
  const auto max_row = ComputeClosureRow(p, 0, max_config);
  ClosureConfig sum_config = Config();
  sum_config.semantics = ClosureSemantics::kSumProductCapped;
  const auto sum_row = ComputeClosureRow(p, 0, sum_config);
  double max_p3 = 0.0, sum_p3 = 0.0;
  for (const auto& e : max_row) {
    if (e.doc == 3) max_p3 = e.probability;
  }
  for (const auto& e : sum_row) {
    if (e.doc == 3) sum_p3 = e.probability;
  }
  EXPECT_NEAR(max_p3, 0.3, 1e-6);
  EXPECT_NEAR(sum_p3, 0.6, 1e-6);
}

TEST(ClosureTest, SumProductCapsAtOne) {
  SparseProbMatrix p(3);
  p.Add(0, 1, 1.0);
  p.Add(1, 2, 1.0);
  p.Add(0, 2, 1.0);
  p.SortRows();
  ClosureConfig config = Config();
  config.semantics = ClosureSemantics::kSumProductCapped;
  for (const auto& e : ComputeClosureRow(p, 0, config)) {
    EXPECT_LE(e.probability, 1.0f);
  }
}

TEST(ClosureEpochTest, CachesRowsForTheEpoch) {
  const ClosureEpoch epoch(ChainMatrix(), Config());
  ClosureScratch scratch;
  const auto row1 = epoch.ClosureRow(0, &scratch);
  EXPECT_FALSE(row1.empty());
  // Cached: the second lookup returns the same storage.
  EXPECT_EQ(epoch.ClosureRow(0, &scratch).data(), row1.data());
  const auto direct = ComputeClosureRow(ChainMatrix(), 0, Config());
  ASSERT_EQ(row1.size(), direct.size());
  for (size_t k = 0; k < direct.size(); ++k) {
    EXPECT_EQ(row1[k].doc, direct[k].doc);
    EXPECT_EQ(row1[k].probability, direct[k].probability);
  }

  // A fresh epoch over another P starts with no rows.
  const ClosureEpoch empty(SparseProbMatrix(4), Config());
  EXPECT_TRUE(empty.ClosureRow(0, &scratch).empty());
  // Documents past the matrix have no P row, hence an empty closure.
  EXPECT_TRUE(epoch.ClosureRow(17, &scratch).empty());
}

TEST(ClosureTest, EmptyMatrix) {
  SparseProbMatrix p(5);
  const auto closure = ComputeClosure(p, Config());
  EXPECT_EQ(closure.NumEntries(), 0u);
}

TEST(ClosureTest, FullClosureMatchesPerRow) {
  const auto p = ChainMatrix();
  const auto closure = ComputeClosure(p, Config());
  for (trace::DocumentId i = 0; i < p.num_docs(); ++i) {
    const auto row = ComputeClosureRow(p, i, Config());
    ASSERT_EQ(closure.Row(i).size(), row.size());
    for (size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(closure.Row(i)[k].doc, row[k].doc);
      EXPECT_FLOAT_EQ(closure.Row(i)[k].probability, row[k].probability);
    }
  }
}

/// A random P over 200 documents: every fifth has no row, the others
/// 1-8 edges of random probability (repeats allowed, as in real windows).
SparseProbMatrix RandomMatrix(uint64_t seed) {
  Rng rng(seed);
  SparseProbMatrix p(200);
  for (trace::DocumentId i = 0; i < 200; ++i) {
    if (i % 5 == 0) continue;
    const uint64_t edges = 1 + rng.NextBounded(8);
    for (uint64_t e = 0; e < edges; ++e) {
      const auto j = static_cast<trace::DocumentId>(rng.NextBounded(200));
      if (j != i) p.Add(i, j, 0.05 + 0.95 * rng.NextDouble());
    }
  }
  p.SortRows();
  return p;
}

void ExpectSameRow(SparseProbMatrix::RowView got,
                   const std::vector<SparseProbMatrix::Entry>& want,
                   trace::DocumentId doc) {
  ASSERT_EQ(got.size(), want.size()) << doc;
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].doc, want[k].doc) << doc;
    EXPECT_EQ(got[k].probability, want[k].probability) << doc;
  }
}

std::vector<ClosureConfig> BothSemantics() {
  ClosureConfig max_product = Config(0.02);
  ClosureConfig sum_product = Config(0.02);
  sum_product.semantics = ClosureSemantics::kSumProductCapped;
  return {max_product, sum_product};
}

TEST(ClosureRowsTest, RowsEqualComputeClosureRow) {
  const SparseProbMatrix p = RandomMatrix(5);
  for (const ClosureConfig& config : BothSemantics()) {
    ClosureRows rows(p.num_docs());
    ClosureScratch scratch;
    size_t empty = 0;
    for (trace::DocumentId doc = 0; doc < p.num_docs(); ++doc) {
      const std::vector<SparseProbMatrix::Entry> want =
          ComputeClosureRow(p, doc, config);
      empty += want.empty() ? 1 : 0;
      const SparseProbMatrix::RowView row = rows.Get(p, doc, config, &scratch);
      ExpectSameRow(row, want, doc);
      // Published once: a second lookup reads the same block.
      EXPECT_EQ(rows.Get(p, doc, config, &scratch).data(), row.data());
    }
    EXPECT_GE(empty, p.num_docs() / 5);  // the rowless documents
    EXPECT_TRUE(rows.Get(p, 999, config, &scratch).empty());
    // Dropped rows are computed again, equal to the first ones.
    rows.DropAll();
    for (trace::DocumentId doc = 0; doc < p.num_docs(); doc += 7) {
      ExpectSameRow(rows.Get(p, doc, config, &scratch),
                    ComputeClosureRow(p, doc, config), doc);
    }
  }
}

TEST(ClosureRowsTest, ConcurrentPublicationAgrees) {
  // Threads race to publish every row; each reads the winner's block, and
  // it equals the directly computed row.
  const SparseProbMatrix p = RandomMatrix(9);
  for (const ClosureConfig& config : BothSemantics()) {
    const ClosureRows rows(p.num_docs());
    constexpr size_t kThreads = 4;
    const size_t n = p.num_docs();
    std::vector<std::vector<SparseProbMatrix::RowView>> seen(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ClosureScratch scratch;
        for (size_t k = 0; k < n; ++k) {
          const auto doc = static_cast<trace::DocumentId>((k + t) % n);
          seen[t].push_back(rows.Get(p, doc, config, &scratch));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t t = 0; t < kThreads; ++t) {
      for (size_t k = 0; k < n; ++k) {
        const auto doc = static_cast<trace::DocumentId>((k + t) % n);
        EXPECT_EQ(seen[t][k].data(), seen[0][doc].data()) << doc;
        ExpectSameRow(seen[t][k], ComputeClosureRow(p, doc, config), doc);
      }
    }
  }
}

}  // namespace
}  // namespace sds::spec
