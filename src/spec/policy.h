#ifndef SDS_SPEC_POLICY_H_
#define SDS_SPEC_POLICY_H_

#include <cstdint>
#include <vector>

#include "spec/dependency.h"
#include "trace/corpus.h"

namespace sds::spec {

/// \brief The paper's speculation policy: along with a requested D_i the
/// server sends every D_j with p*[i,j] >= T_p that MaxSize admits.
struct PolicyConfig {
  /// T_p in (0, 1].
  double threshold = 0.25;
  /// MaxSize: documents larger than this are never speculated (0 = no
  /// limit).
  uint64_t max_size = 0;
};

/// \brief A document the server speculates will be requested.
struct CandidateDoc {
  trace::DocumentId doc = trace::kInvalidDocument;
  double probability = 0.0;
};

/// \brief Applies T_p and the MaxSize filter to a closure row (sorted by
/// descending probability) and replaces `*out` with the speculation set,
/// most probable first. Cooperative cache filtering is the
/// simulator's job (it needs client state).
void SelectCandidates(SparseProbMatrix::RowView closure_row,
                      const trace::Corpus& corpus, const PolicyConfig& config,
                      std::vector<CandidateDoc>* out);

/// The speculation set as a new vector (for tests and one-off callers).
std::vector<CandidateDoc> SelectCandidates(
    SparseProbMatrix::RowView closure_row, const trace::Corpus& corpus,
    const PolicyConfig& config);

}  // namespace sds::spec

#endif  // SDS_SPEC_POLICY_H_
