#include "spec/closure.h"

#include <algorithm>
#include <memory>

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

void MaxProductRow(const SparseProbMatrix& p, trace::DocumentId source,
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

  std::vector<SparseProbMatrix::Entry>& out = s.row;
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
}

void SumProductRow(const SparseProbMatrix& p, trace::DocumentId source,
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
  for (const trace::DocumentId doc : s.touched) {
    const double prob = std::min(1.0, s.total[doc]);
    if (prob >= config.min_probability) {
      s.row.push_back({doc, static_cast<float>(prob)});
    }
  }
  SortByProbability(&s.row);
}

/// Computes the closure row of `source` into `scratch->row`.
void FillClosureRow(const SparseProbMatrix& p, trace::DocumentId source,
                    const ClosureConfig& config, ClosureScratch* scratch) {
  switch (config.semantics) {
    case ClosureSemantics::kMaxProduct:
      MaxProductRow(p, source, config, *scratch);
      return;
    case ClosureSemantics::kSumProductCapped:
      SumProductRow(p, source, config, *scratch);
      return;
  }
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
  row.clear();
}

std::vector<SparseProbMatrix::Entry> ComputeClosureRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config, ClosureScratch* scratch) {
  FillClosureRow(p, source, config, scratch);
  return scratch->row;
}

std::vector<SparseProbMatrix::Entry> ComputeClosureRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config) {
  ClosureScratch scratch;
  return ComputeClosureRow(p, source, config, &scratch);
}

const ClosureRows::Row ClosureRows::kEmptyRow{};

ClosureRows::ClosureRows(size_t num_docs)
    : slots_(std::make_unique<std::atomic<const Row*>[]>(num_docs)),
      size_(num_docs) {}

ClosureRows::~ClosureRows() { DropAll(); }

SparseProbMatrix::RowView ClosureRows::Get(const SparseProbMatrix& p,
                                           trace::DocumentId doc,
                                           const ClosureConfig& config,
                                           ClosureScratch* scratch) const {
  if (doc >= size_) return {};
  std::atomic<const Row*>& slot = slots_[doc];
  const Row* row = slot.load(std::memory_order_acquire);
  if (row == nullptr) {
    FillClosureRow(p, doc, config, scratch);
    const Row* mine = NewRow(scratch->row);
    if (slot.compare_exchange_strong(row, mine, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      row = mine;
    } else {
      FreeRow(mine);  // another thread published the same row first
    }
  }
  return SparseProbMatrix::RowView(row->entries, row->count);
}

const ClosureRows::Row* ClosureRows::NewRow(
    const std::vector<SparseProbMatrix::Entry>& entries) {
  if (entries.empty()) return &kEmptyRow;
  void* block = ::operator new(sizeof(Row) +
                               entries.size() * sizeof(SparseProbMatrix::Entry));
  // Row is an implicit-lifetime aggregate: the allocation creates it.
  Row* row = static_cast<Row*>(block);
  row->count = static_cast<uint32_t>(entries.size());
  std::uninitialized_copy(entries.begin(), entries.end(), row->entries);
  return row;
}

void ClosureRows::FreeRow(const Row* row) {
  if (row != &kEmptyRow) ::operator delete(const_cast<Row*>(row));
}

void ClosureRows::DropAll() {
  for (size_t i = 0; i < size_; ++i) {
    const Row* row = slots_[i].exchange(nullptr, std::memory_order_relaxed);
    if (row != nullptr) FreeRow(row);
  }
}

}  // namespace sds::spec
