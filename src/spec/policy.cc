#include "spec/policy.h"

namespace sds::spec {

void SelectCandidates(SparseProbMatrix::RowView closure_row,
                      const trace::Corpus& corpus, const PolicyConfig& config,
                      std::vector<CandidateDoc>* out) {
  out->clear();
  uint64_t budget_used = 0;
  for (const auto& e : closure_row) {
    if (e.probability < config.threshold) break;  // sorted descending
    const uint64_t size = corpus.doc(e.doc).size_bytes;
    if (config.max_size > 0 && size > config.max_size) continue;
    switch (config.kind) {
      case PolicyKind::kThreshold:
        break;
      case PolicyKind::kTopK:
        if (out->size() >= config.top_k) return;
        break;
      case PolicyKind::kByteBudget:
        if (budget_used + size > config.byte_budget) continue;
        budget_used += size;
        break;
    }
    out->push_back({e.doc, e.probability});
  }
}

std::vector<CandidateDoc> SelectCandidates(
    SparseProbMatrix::RowView closure_row, const trace::Corpus& corpus,
    const PolicyConfig& config) {
  std::vector<CandidateDoc> out;
  SelectCandidates(closure_row, corpus, config, &out);
  return out;
}

}  // namespace sds::spec
