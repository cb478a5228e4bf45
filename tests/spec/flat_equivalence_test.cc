/// Golden equivalence suite for the flat-layout hot paths: the CSR
/// SparseProbMatrix, the epoch-stamped closure scratch and the flat
/// dependency counters must reproduce map-based reference algorithms
/// exactly — same keys, same counts, same entry order, bit-identical
/// probabilities — on a paper-scale workload. The dependency references
/// are the brute-force scans of reference_dependencies.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <queue>
#include <unordered_map>
#include <vector>

#include "core/workload.h"
#include "spec/closure.h"
#include "spec/dependency.h"
#include "reference_dependencies.h"

namespace sds::spec {
namespace {

class FlatEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ =
        new core::Workload(core::MakeWorkload(core::PaperScaleConfig()));
    matrix_ = new SparseProbMatrix(EstimateDependencies(
        workload_->clean(), workload_->corpus().size(), DependencyConfig{}));
  }
  static void TearDownTestSuite() {
    delete matrix_;
    matrix_ = nullptr;
    delete workload_;
    workload_ = nullptr;
  }
  static core::Workload* workload_;
  static SparseProbMatrix* matrix_;
};

core::Workload* FlatEquivalenceTest::workload_ = nullptr;
SparseProbMatrix* FlatEquivalenceTest::matrix_ = nullptr;

void SortByProbability(std::vector<SparseProbMatrix::Entry>* out) {
  std::sort(out->begin(), out->end(),
            [](const SparseProbMatrix::Entry& a,
               const SparseProbMatrix::Entry& b) {
              if (a.probability != b.probability)
                return a.probability > b.probability;
              return a.doc < b.doc;
            });
}

/// The pre-refactor max-product closure row: std::priority_queue frontier
/// and an unordered_map of best chain probabilities.
std::vector<SparseProbMatrix::Entry> LegacyMapClosureRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config) {
  struct Item {
    double prob;
    uint32_t depth;
    trace::DocumentId doc;
    bool operator<(const Item& other) const { return prob < other.prob; }
  };
  std::priority_queue<Item> queue;
  std::unordered_map<trace::DocumentId, double> best;
  queue.push({1.0, 0, source});
  best[source] = 1.0;
  uint32_t expansions = 0;
  std::vector<SparseProbMatrix::Entry> out;
  while (!queue.empty() && expansions < config.max_expansions) {
    const Item item = queue.top();
    queue.pop();
    if (item.prob < best[item.doc]) continue;
    ++expansions;
    if (item.doc != source) {
      out.push_back({item.doc, static_cast<float>(item.prob)});
    }
    if (item.depth >= config.max_depth) continue;
    if (item.doc >= p.num_docs()) continue;
    for (const auto& e : p.Row(item.doc)) {
      const double cand = item.prob * e.probability;
      if (cand < config.min_probability) break;
      auto [it, inserted] = best.emplace(e.doc, cand);
      if (!inserted) {
        if (cand <= it->second) continue;
        it->second = cand;
      }
      queue.push({cand, item.depth + 1, e.doc});
    }
  }
  SortByProbability(&out);
  return out;
}

TEST_F(FlatEquivalenceTest, ClosureRowsMatchLegacyMapExactly) {
  const SparseProbMatrix& p = *matrix_;
  ASSERT_GT(p.NumEntries(), 0u);
  const ClosureConfig config;
  ClosureScratch scratch;
  size_t nonempty = 0;
  for (trace::DocumentId doc = 0; doc < p.num_docs(); ++doc) {
    const auto flat = ComputeClosureRow(p, doc, config, &scratch);
    const auto legacy = LegacyMapClosureRow(p, doc, config);
    ASSERT_EQ(flat.size(), legacy.size()) << "row " << doc;
    for (size_t k = 0; k < flat.size(); ++k) {
      ASSERT_EQ(flat[k].doc, legacy[k].doc) << "row " << doc << " entry " << k;
      // Bit-identical: both run the same arithmetic in the same order.
      ASSERT_EQ(flat[k].probability, legacy[k].probability)
          << "row " << doc << " entry " << k;
    }
    if (!flat.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0u) << "degenerate corpus: no closure rows to compare";
}

TEST_F(FlatEquivalenceTest, DailyPairCountsMatchLegacyMapExactly) {
  const DependencyConfig config;
  // Reference aggregation over the brute-force scan, into ordered maps
  // (sorted by key by construction).
  struct DayMaps {
    std::map<uint64_t, uint32_t> pairs;
    std::map<trace::DocumentId, uint32_t> occurrences;
  };
  std::vector<DayMaps> expected;
  reference::Scan(
      workload_->clean(), config, 0.0, kInfiniteTime,
      [&](uint32_t day, trace::DocumentId doc) {
        if (day >= expected.size()) expected.resize(day + 1);
        ++expected[day].occurrences[doc];
      },
      [&](uint32_t day, trace::DocumentId i, trace::DocumentId j) {
        if (day >= expected.size()) expected.resize(day + 1);
        ++expected[day].pairs[PairKey(i, j)];
      });

  std::vector<DayCounts> flat =
      CountDailyDependencies(workload_->clean(), config);
  ASSERT_GE(flat.size(), expected.size());
  size_t total_pairs = 0;
  for (uint32_t d = 0; d < flat.size(); ++d) {
    // Runs come out in first-seen order; Normalize sorts by key so they
    // line up with the ordered reference maps.
    flat[d].Normalize();
    const DayMaps empty;
    const DayMaps& ref = d < expected.size() ? expected[d] : empty;
    ASSERT_EQ(flat[d].pair_counts.size(), ref.pairs.size()) << "day " << d;
    size_t k = 0;
    for (const auto& [key, n] : ref.pairs) {
      EXPECT_EQ(flat[d].pair_counts[k].first, key) << "day " << d;
      EXPECT_EQ(flat[d].pair_counts[k].second, n) << "day " << d;
      ++k;
    }
    ASSERT_EQ(flat[d].occurrences.size(), ref.occurrences.size())
        << "day " << d;
    k = 0;
    for (const auto& [doc, n] : ref.occurrences) {
      EXPECT_EQ(flat[d].occurrences[k].first, doc) << "day " << d;
      EXPECT_EQ(flat[d].occurrences[k].second, n) << "day " << d;
      ++k;
    }
    total_pairs += flat[d].pair_counts.size();
  }
  EXPECT_GT(total_pairs, 0u) << "degenerate trace: no pairs counted";
}

TEST_F(FlatEquivalenceTest, EstimatedMatrixMatchesLegacyMapPipeline) {
  const DependencyConfig config;
  const auto rows = reference::MatrixRows(
      workload_->clean(), workload_->corpus().size(), config);
  size_t reference_entries = 0;
  for (const auto& row : rows) reference_entries += row.size();

  const SparseProbMatrix& flat = *matrix_;
  EXPECT_EQ(flat.NumEntries(), reference_entries);
  for (trace::DocumentId i = 0; i < flat.num_docs(); ++i) {
    const auto view = flat.Row(i);
    ASSERT_EQ(view.size(), rows[i].size()) << "row " << i;
    for (size_t k = 0; k < view.size(); ++k) {
      ASSERT_EQ(view[k].doc, rows[i][k].doc) << "row " << i << " entry " << k;
      ASSERT_EQ(view[k].probability, rows[i][k].probability)
          << "row " << i << " entry " << k;
    }
  }
  EXPECT_GT(reference_entries, 0u) << "degenerate trace: empty matrix";
}

TEST_F(FlatEquivalenceTest, CsrMatrixIsInsertOrderIndependent) {
  // The CSR finalisation (counting sort + total-order row sort) must
  // produce the same matrix no matter the order entries were staged in.
  const SparseProbMatrix& flat = *matrix_;
  SparseProbMatrix reversed(flat.num_docs());
  std::vector<std::pair<trace::DocumentId, SparseProbMatrix::Entry>> all;
  for (trace::DocumentId i = 0; i < flat.num_docs(); ++i) {
    for (const auto& e : flat.Row(i)) all.push_back({i, e});
  }
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    reversed.Add(it->first, it->second.doc, it->second.probability);
  }
  reversed.SortRows();
  ASSERT_EQ(reversed.NumEntries(), flat.NumEntries());
  for (trace::DocumentId i = 0; i < flat.num_docs(); ++i) {
    const auto a = flat.Row(i);
    const auto b = reversed.Row(i);
    ASSERT_EQ(a.size(), b.size()) << "row " << i;
    for (size_t k = 0; k < a.size(); ++k) {
      ASSERT_EQ(a[k].doc, b[k].doc) << "row " << i;
      ASSERT_EQ(a[k].probability, b[k].probability) << "row " << i;
    }
  }
}

}  // namespace
}  // namespace sds::spec
