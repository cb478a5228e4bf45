#ifndef SDS_SPEC_CLOSURE_H_
#define SDS_SPEC_CLOSURE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "spec/dependency.h"

namespace sds::spec {

/// \brief Interpretation of the paper's closure P* = P^N.
///
/// The paper's formula is under-specified (a literal stochastic power is
/// neither a per-pair probability nor bounded by 1), so we provide the two
/// standard readings of "probability of a request chain from D_i to D_j":
enum class ClosureSemantics : uint8_t {
  /// p*[i,j] = max over chains of the product of edge probabilities (the
  /// probability of the single most likely chain). Default.
  kMaxProduct = 0,
  /// Depth-limited sum-product with a cap at 1: probabilities of distinct
  /// chains add up (a literal reading of P^N, capped to stay a
  /// probability).
  kSumProductCapped = 1,
};

struct ClosureConfig {
  ClosureSemantics semantics = ClosureSemantics::kMaxProduct;
  /// Chains with probability below this are pruned; also the floor of
  /// emitted entries. Must be > 0 for termination.
  double min_probability = 0.02;
  /// Maximum chain length in edges (the paper's N is the document count;
  /// pruning makes long chains vanish far earlier in practice).
  uint32_t max_depth = 8;
  /// Safety cap on expanded nodes per source row.
  uint32_t max_expansions = 4096;
};

/// \brief Reusable dense scratch for closure-row computation: per-document
/// accumulators are flat arrays invalidated in O(1) by bumping an epoch
/// stamp, so computing a row allocates nothing and touches no hash map.
/// One scratch serves any number of sequential row computations; it is not
/// thread-safe (each thread that computes rows owns its own).
class ClosureScratch {
 public:
  struct HeapItem {
    double prob;
    uint32_t depth;
    trace::DocumentId doc;
    bool operator<(const HeapItem& other) const { return prob < other.prob; }
  };

  /// Grows the arrays to cover `num_docs` documents and starts a new row
  /// (old entries are invalidated by the epoch bump, not cleared).
  void Prepare(size_t num_docs);

  uint32_t epoch = 0;
  /// Best chain probability per doc (max-product), stamped by `stamp`.
  std::vector<double> best;
  std::vector<uint32_t> stamp;
  /// Accumulated chain mass per doc (sum-product), stamped separately.
  std::vector<double> total;
  std::vector<uint32_t> total_stamp;
  /// Binary heap storage (std::push_heap/pop_heap — the same algorithms
  /// std::priority_queue uses, so pop order is bit-identical to it).
  std::vector<HeapItem> heap;
  /// Sum-product frontier and per-depth expansion events.
  std::vector<std::pair<trace::DocumentId, double>> frontier;
  std::vector<std::pair<trace::DocumentId, double>> events;
  /// Docs with accumulated mass this row, in first-touch order.
  std::vector<trace::DocumentId> touched;
  /// The row computed last, sorted by descending probability.
  std::vector<SparseProbMatrix::Entry> row;
};

/// \brief Lazily computed closure rows of one P, one slot per document.
///
/// A slot is filled once: the row is computed into the caller's scratch,
/// copied into one exact-size block (its length, then its entries; empty
/// rows share one static block) and published with a release
/// compare-and-swap, and readers load slots with acquire. Any number of
/// threads may therefore look rows up at once (each with its own scratch);
/// a thread that loses the race to fill a slot frees its copy and returns
/// the winner's, which is bit-identical because a row is a pure function
/// of (P, source, config). Dropping rows is not thread-safe. Views stay valid until their row is dropped.
class ClosureRows {
 public:
  explicit ClosureRows(size_t num_docs);
  ~ClosureRows();

  ClosureRows(const ClosureRows&) = delete;
  ClosureRows& operator=(const ClosureRows&) = delete;

  /// The closure row of `doc` in `p`, sorted by descending probability;
  /// computed on first use. Documents past the table have no P row, so
  /// their closure is empty and is returned without a slot.
  SparseProbMatrix::RowView Get(const SparseProbMatrix& p,
                                trace::DocumentId doc,
                                const ClosureConfig& config,
                                ClosureScratch* scratch) const;

  void DropAll();

 private:
  /// One published row in one heap block.
  struct Row {
    uint32_t count = 0;
    SparseProbMatrix::Entry entries[];  // `count` entries follow.
  };
  static const Row kEmptyRow;

  static const Row* NewRow(const std::vector<SparseProbMatrix::Entry>& entries);
  static void FreeRow(const Row* row);

  std::unique_ptr<std::atomic<const Row*>[]> slots_;
  size_t size_;
};

/// \brief One update cycle's model: an immutable P plus its lazily
/// computed P* rows. Nothing but row fills ever changes it, and those are
/// thread-safe (ClosureRows), so every run at the same epoch can share one
/// instance.
class ClosureEpoch {
 public:
  ClosureEpoch(SparseProbMatrix p, const ClosureConfig& config)
      : p_(std::move(p)), config_(config), rows_(p_.num_docs()) {}

  /// Row of P.
  SparseProbMatrix::RowView PRow(trace::DocumentId doc) const {
    return p_.Row(doc);
  }
  /// Closure row of `doc`, computed on first use with the caller's scratch
  /// and kept for the epoch's lifetime; sorted by descending probability.
  SparseProbMatrix::RowView ClosureRow(trace::DocumentId doc,
                                       ClosureScratch* scratch) const {
    return rows_.Get(p_, doc, config_, scratch);
  }

  const SparseProbMatrix& matrix() const { return p_; }

 private:
  SparseProbMatrix p_;
  ClosureConfig config_;
  ClosureRows rows_;
};

/// \brief How the speculation simulator maintains P and P* across update
/// cycles. kBatch is the only value: each UpdateCycle builds P from the
/// whole window into a fresh ClosureEpoch with no closure rows yet.
/// Nothing reads SpeculationConfig::closure_mode; the enum stays so that
/// code naming kBatch keeps compiling.
enum class ClosureMode : uint8_t {
  kBatch = 0,
};

/// \brief Computes one closure row (exposed for tests and benchmarks). The
/// overload with a scratch reuses its buffers across calls and leaves the
/// row in `scratch->row` too.
std::vector<SparseProbMatrix::Entry> ComputeClosureRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config);
std::vector<SparseProbMatrix::Entry> ComputeClosureRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config, ClosureScratch* scratch);

}  // namespace sds::spec

#endif  // SDS_SPEC_CLOSURE_H_
