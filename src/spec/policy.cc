#include "spec/policy.h"

namespace sds::spec {

void SelectCandidates(SparseProbMatrix::RowView closure_row,
                      const trace::Corpus& corpus, const PolicyConfig& config,
                      std::vector<CandidateDoc>* out) {
  out->clear();
  for (const auto& e : closure_row) {
    if (e.probability < config.threshold) break;  // sorted descending
    if (config.max_size > 0 && corpus.doc(e.doc).size_bytes > config.max_size) {
      continue;
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
