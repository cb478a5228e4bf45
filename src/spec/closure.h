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
};

/// \brief Computes the full closure P* of P (every row). For large
/// matrices prefer ClosureEpoch, which computes rows lazily.
SparseProbMatrix ComputeClosure(const SparseProbMatrix& p,
                                const ClosureConfig& config);

/// \brief Lazily computed closure rows of one P, one slot per document.
///
/// A slot is filled once: the row is computed into a fresh allocation and
/// published with a release compare-and-swap, and readers load slots with
/// acquire. Any number of threads may therefore look rows up at once (each
/// with its own scratch); a thread that loses the race to fill a slot frees
/// its copy and returns the winner's, which is bit-identical because a row
/// is a pure function of (P, source, config). Dropping rows is not
/// thread-safe. Views stay valid until their row is dropped.
class ClosureRows {
 public:
  ClosureRows() = default;
  explicit ClosureRows(size_t num_docs);
  ~ClosureRows();

  ClosureRows(ClosureRows&& other) noexcept;
  ClosureRows& operator=(ClosureRows&& other) noexcept;

  /// The closure row of `doc` in `p`, sorted by descending probability;
  /// computed on first use. `*computed` (if non-null) reports whether this
  /// call filled the slot. Documents past the table have no P row, so
  /// their closure is empty and is returned without a slot.
  SparseProbMatrix::RowView Get(const SparseProbMatrix& p,
                                trace::DocumentId doc,
                                const ClosureConfig& config,
                                ClosureScratch* scratch,
                                bool* computed = nullptr) const;

  /// Drops the cached row of `doc`; returns whether one was cached.
  bool Drop(trace::DocumentId doc);
  void DropAll();

  size_t size() const { return size_; }

 private:
  using Row = std::vector<SparseProbMatrix::Entry>;

  std::unique_ptr<std::atomic<const Row*>[]> slots_;
  size_t size_ = 0;
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
/// cycles (§3.4: P drifts slowly, so a from-scratch rebuild every cycle is
/// almost entirely redundant work).
enum class ClosureMode : uint8_t {
  /// Rebuild P from the whole window at each UpdateCycle, into a fresh
  /// epoch with no closure rows yet (the original behavior).
  kBatch = 0,
  /// Semi-naive maintenance: rebuild only the P rows whose windowed counts
  /// changed, and invalidate only the cached closure rows whose dirty-row
  /// frontier reaches a changed row. Bit-identical to kBatch by
  /// construction (pinned by tests/spec/incremental_equivalence_test.cc).
  kIncremental = 1,
};

const char* ClosureModeToString(ClosureMode mode);

/// \brief Incrementally maintained P plus lazily computed, selectively
/// invalidated closure rows — the engine behind ClosureMode::kIncremental.
///
/// Rebuild() installs a freshly built P (the first build of the
/// incremental path). ApplyDelta() drains the WindowedCounts dirty
/// set, rebuilds exactly those P rows, and drops only the cached closure
/// rows that could see a changed row: a closure row of source s explores
/// rows at most max_depth - 1 edges from s, so s is affected only if a
/// changed row is reachable from s within max_depth hops in the old or new
/// P. That set is found by a depth-limited reverse BFS from the changed
/// rows over the reverse column index of new P, augmented with the changed
/// rows' old out-edges (old and new P differ nowhere else). Everything a
/// consumer can observe — PRow, ClosureRow — is bit-identical to a batch
/// rebuild; only the amount of recomputation differs.
class DeltaClosure {
 public:
  struct Stats {
    uint64_t full_rebuilds = 0;
    uint64_t delta_cycles = 0;
    /// P rows recomputed by ApplyDelta, and how many actually changed.
    uint64_t rows_rebuilt = 0;
    uint64_t rows_changed = 0;
    /// Cached closure rows invalidated / retained across delta cycles.
    uint64_t closure_rows_dropped = 0;
    uint64_t closure_rows_kept = 0;
    /// Closure rows computed lazily by ClosureRow().
    uint64_t closure_rows_computed = 0;
  };

  explicit DeltaClosure(const ClosureConfig& config) : config_(config) {}

  /// Replaces P wholesale and drops every cached closure row.
  void Rebuild(SparseProbMatrix p);

  /// Semi-naive update from the counts' dirty rows (see class comment).
  /// Requires a prior Rebuild() and counts->row_tracking().
  void ApplyDelta(WindowedCounts* counts, const DependencyConfig& dependency);

  /// Row of P (valid until the next Rebuild/ApplyDelta).
  SparseProbMatrix::RowView PRow(trace::DocumentId doc) const {
    return p_.Row(doc);
  }
  /// Closure row of `doc`, computed on first use and cached until
  /// invalidated; sorted by descending probability.
  SparseProbMatrix::RowView ClosureRow(trace::DocumentId doc);

  const SparseProbMatrix& matrix() const { return p_; }
  size_t CachedRows() const { return cached_; }
  const Stats& stats() const { return stats_; }
  bool ready() const { return ready_; }

 private:
  ClosureConfig config_;
  SparseProbMatrix p_;
  ClosureScratch scratch_;
  bool ready_ = false;
  ClosureRows rows_;
  size_t cached_ = 0;
  Stats stats_;

  void RebuildReverseIndex();

  // Persistent reverse column index: rev_adj_[j] lists rows i with an
  // edge i -> j in P at some point since the last index (re)build. It is
  // append-only — edges a changed row *loses* are kept — so the BFS sees
  // a superset of old ∪ new adjacency, which can only over-invalidate
  // (conservative, still bit-identical). fwd_cols_[i] (sorted) dedups the
  // appends; when the accumulated slack exceeds the live entry count the
  // index is rebuilt from the current P. Built lazily on the first
  // ApplyDelta, so pure-batch users never pay for it.
  bool index_ready_ = false;
  size_t index_extra_ = 0;
  std::vector<std::vector<trace::DocumentId>> rev_adj_;
  std::vector<std::vector<trace::DocumentId>> fwd_cols_;

  // ApplyDelta scratch, reused across cycles.
  std::vector<std::vector<SparseProbMatrix::Entry>> new_rows_;
  std::vector<trace::DocumentId> changed_;
  std::vector<uint32_t> visit_stamp_;
  uint32_t visit_epoch_ = 0;
  std::vector<trace::DocumentId> visited_;
  std::vector<trace::DocumentId> frontier_;
  std::vector<trace::DocumentId> next_frontier_;
};

/// \brief Computes one closure row (exposed for tests). The overload with
/// a scratch reuses its buffers across calls.
std::vector<SparseProbMatrix::Entry> ComputeClosureRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config);
std::vector<SparseProbMatrix::Entry> ComputeClosureRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config, ClosureScratch* scratch);

}  // namespace sds::spec

#endif  // SDS_SPEC_CLOSURE_H_
