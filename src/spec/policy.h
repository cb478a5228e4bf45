#ifndef SDS_SPEC_POLICY_H_
#define SDS_SPEC_POLICY_H_

#include <cstdint>
#include <vector>

#include "spec/dependency.h"
#include "trace/corpus.h"

namespace sds::spec {

/// \brief How the server decides what to send along with a requested
/// document, given the closure row of that document.
enum class PolicyKind : uint8_t {
  /// The paper's policy: every D_j with p*[i,j] >= T_p.
  kThreshold = 0,
  /// The k most probable documents with p* >= T_p.
  kTopK = 1,
  /// Most probable documents until a per-response speculation byte budget
  /// is exhausted (p* >= T_p as a floor).
  kByteBudget = 2,
};

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kThreshold;
  /// T_p in (0, 1].
  double threshold = 0.25;
  uint32_t top_k = 4;
  uint64_t byte_budget = 64 * 1024;
  /// MaxSize: documents larger than this are never speculated (0 = no
  /// limit).
  uint64_t max_size = 0;
};

/// \brief A document the server speculates will be requested.
struct CandidateDoc {
  trace::DocumentId doc = trace::kInvalidDocument;
  double probability = 0.0;
};

/// \brief Applies the policy and the MaxSize filter to a closure row
/// (sorted by descending probability) and replaces `*out` with the
/// speculation set, most probable first. Cooperative cache filtering is the
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
