#include "spec/closure.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace sds::spec {
namespace {

void SortByProbability(std::vector<SparseProbMatrix::Entry>* out) {
  std::sort(out->begin(), out->end(),
            [](const SparseProbMatrix::Entry& a,
               const SparseProbMatrix::Entry& b) {
              if (a.probability != b.probability)
                return a.probability > b.probability;
              return a.doc < b.doc;
            });
}

std::vector<SparseProbMatrix::Entry> MaxProductRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config, ClosureScratch& s) {
  // Best-first search: edge weights are probabilities in (0, 1], so the
  // first time a node is popped its chain probability is maximal
  // (Dijkstra in -log space without the logs). `best` is a dense
  // epoch-stamped array; the heap reuses the scratch vector with
  // push_heap/pop_heap, matching std::priority_queue pop order exactly.
  s.Prepare(std::max(p.num_docs(), static_cast<size_t>(source) + 1));
  const uint32_t epoch = s.epoch;
  auto& heap = s.heap;
  heap.push_back({1.0, 0, source});
  s.best[source] = 1.0;
  s.stamp[source] = epoch;
  uint32_t expansions = 0;

  std::vector<SparseProbMatrix::Entry> out;
  while (!heap.empty() && expansions < config.max_expansions) {
    std::pop_heap(heap.begin(), heap.end());
    const ClosureScratch::HeapItem item = heap.back();
    heap.pop_back();
    if (item.prob < s.best[item.doc]) continue;  // stale entry
    ++expansions;
    if (item.doc != source) {
      out.push_back({item.doc, static_cast<float>(item.prob)});
    }
    if (item.depth >= config.max_depth) continue;
    if (item.doc >= p.num_docs()) continue;
    for (const auto& e : p.Row(item.doc)) {
      const double cand = item.prob * e.probability;
      if (cand < config.min_probability) break;  // rows sorted descending
      if (s.stamp[e.doc] == epoch) {
        if (cand <= s.best[e.doc]) continue;
      } else {
        s.stamp[e.doc] = epoch;
      }
      s.best[e.doc] = cand;
      heap.push_back({cand, item.depth + 1, e.doc});
      std::push_heap(heap.begin(), heap.end());
    }
  }
  // Out is produced in pop order == descending probability already; sort
  // for deterministic tie order.
  SortByProbability(&out);
  return out;
}

std::vector<SparseProbMatrix::Entry> SumProductRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config, ClosureScratch& s) {
  s.Prepare(std::max(p.num_docs(), static_cast<size_t>(source) + 1));
  const uint32_t epoch = s.epoch;
  s.frontier.push_back({source, 1.0});
  for (uint32_t depth = 0; depth < config.max_depth && !s.frontier.empty();
       ++depth) {
    s.events.clear();
    for (const auto& [doc, mass] : s.frontier) {
      if (doc >= p.num_docs()) continue;
      for (const auto& e : p.Row(doc)) {
        const double add = mass * e.probability;
        if (add < config.min_probability * 0.1) break;  // sorted rows
        s.events.push_back({e.doc, add});
      }
    }
    // Merge the expansion events into the next frontier in ascending doc
    // order: a fixed summation order keeps the floating-point result
    // deterministic, unlike hash-map iteration.
    std::sort(s.events.begin(), s.events.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    s.frontier.clear();
    for (size_t i = 0; i < s.events.size();) {
      const trace::DocumentId doc = s.events[i].first;
      double mass = 0.0;
      for (; i < s.events.size() && s.events[i].first == doc; ++i) {
        mass += s.events[i].second;
      }
      s.frontier.push_back({doc, mass});
      if (doc != source) {
        if (s.total_stamp[doc] != epoch) {
          s.total_stamp[doc] = epoch;
          s.total[doc] = 0.0;
          s.touched.push_back(doc);
        }
        s.total[doc] += mass;
      }
    }
    if (s.touched.size() > config.max_expansions) break;
  }
  std::vector<SparseProbMatrix::Entry> out;
  out.reserve(s.touched.size());
  for (const trace::DocumentId doc : s.touched) {
    const double prob = std::min(1.0, s.total[doc]);
    if (prob >= config.min_probability) {
      out.push_back({doc, static_cast<float>(prob)});
    }
  }
  SortByProbability(&out);
  return out;
}

}  // namespace

void ClosureScratch::Prepare(size_t num_docs) {
  if (best.size() < num_docs) {
    best.resize(num_docs, 0.0);
    stamp.resize(num_docs, 0);
    total.resize(num_docs, 0.0);
    total_stamp.resize(num_docs, 0);
  }
  if (++epoch == 0) {
    // Epoch wrapped: clear the stamps so stale entries cannot alias.
    std::fill(stamp.begin(), stamp.end(), 0u);
    std::fill(total_stamp.begin(), total_stamp.end(), 0u);
    epoch = 1;
  }
  heap.clear();
  frontier.clear();
  events.clear();
  touched.clear();
}

std::vector<SparseProbMatrix::Entry> ComputeClosureRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config, ClosureScratch* scratch) {
  switch (config.semantics) {
    case ClosureSemantics::kMaxProduct:
      return MaxProductRow(p, source, config, *scratch);
    case ClosureSemantics::kSumProductCapped:
      return SumProductRow(p, source, config, *scratch);
  }
  return {};
}

std::vector<SparseProbMatrix::Entry> ComputeClosureRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config) {
  ClosureScratch scratch;
  return ComputeClosureRow(p, source, config, &scratch);
}

SparseProbMatrix ComputeClosure(const SparseProbMatrix& p,
                                const ClosureConfig& config) {
  SparseProbMatrix closure(p.num_docs());
  ClosureScratch scratch;
  for (trace::DocumentId i = 0; i < p.num_docs(); ++i) {
    if (p.Row(i).empty()) continue;
    for (const auto& e : ComputeClosureRow(p, i, config, &scratch)) {
      closure.Add(i, e.doc, e.probability);
    }
  }
  closure.SortRows();
  return closure;
}

ClosureRows::ClosureRows(size_t num_docs)
    : slots_(std::make_unique<std::atomic<const Row*>[]>(num_docs)),
      size_(num_docs) {}

ClosureRows::~ClosureRows() { DropAll(); }

ClosureRows::ClosureRows(ClosureRows&& other) noexcept
    : slots_(std::move(other.slots_)), size_(std::exchange(other.size_, 0)) {}

ClosureRows& ClosureRows::operator=(ClosureRows&& other) noexcept {
  if (this != &other) {
    DropAll();
    slots_ = std::move(other.slots_);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

SparseProbMatrix::RowView ClosureRows::Get(const SparseProbMatrix& p,
                                           trace::DocumentId doc,
                                           const ClosureConfig& config,
                                           ClosureScratch* scratch,
                                           bool* computed) const {
  if (computed != nullptr) *computed = false;
  if (doc >= size_) return {};
  std::atomic<const Row*>& slot = slots_[doc];
  const Row* row = slot.load(std::memory_order_acquire);
  if (row == nullptr) {
    const Row* mine = new Row(ComputeClosureRow(p, doc, config, scratch));
    if (slot.compare_exchange_strong(row, mine, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      row = mine;
      if (computed != nullptr) *computed = true;
    } else {
      delete mine;  // another thread published the same row first
    }
  }
  return SparseProbMatrix::RowView(row->data(), row->size());
}

bool ClosureRows::Drop(trace::DocumentId doc) {
  if (doc >= size_) return false;
  const Row* row = slots_[doc].exchange(nullptr, std::memory_order_relaxed);
  delete row;
  return row != nullptr;
}

void ClosureRows::DropAll() {
  for (size_t i = 0; i < size_; ++i) {
    delete slots_[i].exchange(nullptr, std::memory_order_relaxed);
  }
}

const char* ClosureModeToString(ClosureMode mode) {
  switch (mode) {
    case ClosureMode::kBatch:
      return "batch";
    case ClosureMode::kIncremental:
      return "incremental";
  }
  return "unknown";
}

void DeltaClosure::Rebuild(SparseProbMatrix p) {
  p_ = std::move(p);
  if (rows_.size() == p_.num_docs()) {
    rows_.DropAll();
  } else {
    rows_ = ClosureRows(p_.num_docs());
  }
  cached_ = 0;
  ready_ = true;
  index_ready_ = false;  // rebuilt lazily on the next ApplyDelta
  ++stats_.full_rebuilds;
}

void DeltaClosure::RebuildReverseIndex() {
  const size_t n = p_.num_docs();
  rev_adj_.assign(n, {});
  fwd_cols_.assign(n, {});
  for (trace::DocumentId i = 0; i < n; ++i) {
    const auto row = p_.Row(i);
    auto& cols = fwd_cols_[i];
    cols.reserve(row.size());
    for (const auto& e : row) {
      if (e.doc >= n) continue;
      cols.push_back(e.doc);
      rev_adj_[e.doc].push_back(i);
    }
    std::sort(cols.begin(), cols.end());
  }
  index_extra_ = 0;
  index_ready_ = true;
}

SparseProbMatrix::RowView DeltaClosure::ClosureRow(trace::DocumentId doc) {
  bool computed = false;
  const SparseProbMatrix::RowView row =
      rows_.Get(p_, doc, config_, &scratch_, &computed);
  if (computed) {
    ++cached_;
    ++stats_.closure_rows_computed;
  }
  return row;
}

void DeltaClosure::ApplyDelta(WindowedCounts* counts,
                              const DependencyConfig& dependency) {
  SDS_CHECK(ready_) << "ApplyDelta before Rebuild";
  SDS_CHECK(counts->row_tracking()) << "row tracking disabled";
  ++stats_.delta_cycles;

  std::vector<trace::DocumentId> dirty = counts->DrainDirtyRows();
  const size_t n = p_.num_docs();
  // Occurrence-only rows past the matrix (never seen as a pair source)
  // have no P row in either mode; drop them from the delta.
  std::erase_if(dirty, [n](trace::DocumentId id) { return id >= n; });
  stats_.rows_rebuilt += dirty.size();

  // Rebuild each dirty P row and keep only the ones that actually changed
  // (bit-identical comparison: same entries in the same order).
  changed_.clear();
  new_rows_.clear();
  std::vector<SparseProbMatrix::Entry> rebuilt;
  for (const trace::DocumentId id : dirty) {
    counts->RebuildRow(id, dependency, &rebuilt);
    const SparseProbMatrix::RowView old_row = p_.Row(id);
    bool same = old_row.size() == rebuilt.size();
    for (size_t k = 0; same && k < rebuilt.size(); ++k) {
      same = old_row[k].doc == rebuilt[k].doc &&
             old_row[k].probability == rebuilt[k].probability;
    }
    if (same) continue;
    changed_.push_back(id);
    new_rows_.push_back(std::move(rebuilt));
    rebuilt = {};
  }
  stats_.rows_changed += changed_.size();
  if (changed_.empty()) {
    stats_.closure_rows_kept += cached_;
    return;
  }

  // The reverse index must cover the pre-splice P too; building it before
  // the splice (from the old rows) keeps the lost edges in the index.
  if (!index_ready_) RebuildReverseIndex();

  p_.ReplaceRows(changed_, new_rows_);

  // Fold the changed rows' *new* edges into the append-only index. Their
  // old edges stay (over-invalidation is conservative); the index is
  // compacted once the stale slack exceeds the live entry count.
  for (size_t k = 0; k < changed_.size(); ++k) {
    const trace::DocumentId i = changed_[k];
    auto& cols = fwd_cols_[i];
    for (const auto& e : new_rows_[k]) {
      if (e.doc >= n) continue;
      const auto it = std::lower_bound(cols.begin(), cols.end(), e.doc);
      if (it != cols.end() && *it == e.doc) continue;
      cols.insert(it, e.doc);
      rev_adj_[e.doc].push_back(i);
      ++index_extra_;
    }
  }

  // Depth-limited reverse BFS: a cached closure row of source s reads the
  // P rows of docs at most max_depth - 1 forward edges from s, so s stays
  // valid unless a changed row is within max_depth reverse hops.
  if (visit_stamp_.size() < n) visit_stamp_.resize(n, 0);
  if (++visit_epoch_ == 0) {
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0u);
    visit_epoch_ = 1;
  }
  visited_.clear();
  frontier_.clear();
  for (const trace::DocumentId id : changed_) {
    visit_stamp_[id] = visit_epoch_;
    visited_.push_back(id);
    frontier_.push_back(id);
  }
  for (uint32_t depth = 0; depth < config_.max_depth && !frontier_.empty();
       ++depth) {
    next_frontier_.clear();
    for (const trace::DocumentId v : frontier_) {
      for (const trace::DocumentId u : rev_adj_[v]) {
        if (visit_stamp_[u] == visit_epoch_) continue;
        visit_stamp_[u] = visit_epoch_;
        visited_.push_back(u);
        next_frontier_.push_back(u);
      }
    }
    std::swap(frontier_, next_frontier_);
  }

  uint64_t dropped = 0;
  for (const trace::DocumentId v : visited_) {
    if (rows_.Drop(v)) {
      --cached_;
      ++dropped;
    }
  }
  stats_.closure_rows_dropped += dropped;
  stats_.closure_rows_kept += cached_;

  // Compact the index once the accumulated stale edges rival the live
  // ones: rebuilding from the current P restores a tight baseline
  // (future deltas only need edges from this point on).
  if (index_extra_ > p_.NumEntries() + 64) RebuildReverseIndex();
}

}  // namespace sds::spec
