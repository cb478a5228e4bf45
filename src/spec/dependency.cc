#include "spec/dependency.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"

namespace sds::spec {
namespace {

/// Byte-wise stable LSD radix sort of `*v` by `extract(element)`. Keys
/// here are document ids / packed id pairs / day numbers, so the occupied
/// width is far below 64 bits and constant digits get skipped; unlike a
/// comparison sort there is no data-dependent branching, which is what
/// made std::sort the hot spot of dependency counting.
template <typename T, typename Extract>
void RadixSortBy(std::vector<T>* v, std::vector<T>* tmp, Extract&& extract) {
  uint64_t max_key = 0;
  for (const T& e : *v) max_key = std::max(max_key, extract(e));
  tmp->resize(v->size());
  std::vector<T>* src = v;
  std::vector<T>* dst = tmp;
  for (uint32_t shift = 0; (max_key >> shift) != 0; shift += 8) {
    uint32_t counts[256] = {};
    for (const T& e : *src) ++counts[(extract(e) >> shift) & 0xff];
    if (counts[(max_key >> shift) & 0xff] == src->size()) continue;
    uint32_t offset = 0;
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t n = counts[b];
      counts[b] = offset;
      offset += n;
    }
    for (const T& e : *src) {
      (*dst)[counts[(extract(e) >> shift) & 0xff]++] = e;
    }
    std::swap(src, dst);
  }
  if (src != v) *v = std::move(*tmp);
}

/// Sorts a (key, count) run by key and merges duplicates by summing.
template <typename Key, typename Count>
void NormalizeRun(std::vector<std::pair<Key, Count>>* run) {
  using Item = std::pair<Key, Count>;
  if (run->size() < 64) {
    std::sort(run->begin(), run->end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  } else {
    std::vector<Item> tmp;
    RadixSortBy(run, &tmp,
                [](const Item& e) { return static_cast<uint64_t>(e.first); });
  }
  size_t out = 0;
  for (size_t i = 0; i < run->size();) {
    Key key = (*run)[i].first;
    Count total = 0;
    for (; i < run->size() && (*run)[i].first == key; ++i) {
      total += (*run)[i].second;
    }
    (*run)[out++] = {key, total};
  }
  run->resize(out);
}

}  // namespace

double SparseProbMatrix::Get(trace::DocumentId i, trace::DocumentId j) const {
  if (i >= num_docs_) return 0.0;
  if (offsets_.empty()) {
    // Not finalised: scan the staged triplets.
    for (const auto& [row, e] : staging_) {
      if (row == i && e.doc == j) return e.probability;
    }
    return 0.0;
  }
  for (const auto& e : Row(i)) {
    if (e.doc == j) return e.probability;
  }
  return 0.0;
}

void SparseProbMatrix::Definalize() {
  staging_.reserve(staging_.size() + entries_.size());
  for (trace::DocumentId i = 0; i < num_docs_; ++i) {
    for (uint32_t k = offsets_[i]; k < offsets_[i + 1]; ++k) {
      staging_.push_back({i, entries_[k]});
    }
  }
  offsets_.clear();
  entries_.clear();
}

void SparseProbMatrix::SortRows() {
  if (!offsets_.empty()) return;  // already finalised, rows stay sorted
  // Counting sort into CSR: per-row counts, prefix sums, then placement.
  offsets_.assign(num_docs_ + 1, 0);
  for (const auto& [row, e] : staging_) {
    SDS_CHECK(row < num_docs_) << "row out of range";
    ++offsets_[row + 1];
  }
  for (size_t i = 1; i <= num_docs_; ++i) offsets_[i] += offsets_[i - 1];
  entries_.resize(staging_.size());
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [row, e] : staging_) entries_[cursor[row]++] = e;
  staging_.clear();
  staging_.shrink_to_fit();
  for (trace::DocumentId i = 0; i < num_docs_; ++i) {
    std::sort(entries_.begin() + offsets_[i],
              entries_.begin() + offsets_[i + 1],
              [](const Entry& a, const Entry& b) {
                if (a.probability != b.probability)
                  return a.probability > b.probability;
                return a.doc < b.doc;
              });
  }
}

void DayCounts::Normalize() {
  NormalizeRun(&pair_counts);
  NormalizeRun(&occurrences);
}

std::vector<DayCounts> CountDailyDependencies(const trace::Trace& trace,
                                              const DependencyConfig& config) {
  const uint32_t days =
      trace.empty() ? 1
                    : static_cast<uint32_t>(DayOfTime(trace.Span())) + 1;
  std::vector<DayCounts> out(days);
  // Stage raw emissions per day, then aggregate day-by-day through shared
  // presized flat scratch: an open-addressing table for pair keys and a
  // dense per-document count array for occurrences. Presizing from the
  // staged emission counts means no rehash growth, and the emitted runs
  // keep the deterministic first-seen key order (downstream consumers
  // never depend on run order beyond determinism), so no comparison sort
  // runs anywhere on this path.
  std::vector<std::vector<uint64_t>> staged_pairs(days);
  std::vector<std::vector<trace::DocumentId>> staged_occs(days);
  trace::DocumentId max_doc = 0;
  ScanDependencies(
      trace, config, 0.0, kInfiniteTime,
      [&](uint32_t day, trace::DocumentId doc) {
        staged_occs[day].push_back(doc);
        max_doc = std::max(max_doc, doc);
      },
      [&](uint32_t day, trace::DocumentId i, trace::DocumentId j) {
        staged_pairs[day].push_back(PairKey(i, j));
      });
  PairTable<uint32_t> pair_scratch;
  std::vector<uint64_t> pair_order;
  std::vector<uint32_t> occ_counts(static_cast<size_t>(max_doc) + 1, 0);
  std::vector<trace::DocumentId> occ_order;
  for (uint32_t d = 0; d < days; ++d) {
    pair_scratch.Reset(staged_pairs[d].size());
    pair_order.clear();
    for (const uint64_t key : staged_pairs[d]) {
      uint32_t& n = pair_scratch[key];
      if (n == 0) pair_order.push_back(key);
      ++n;
    }
    out[d].pair_counts.reserve(pair_order.size());
    for (const uint64_t key : pair_order) {
      out[d].pair_counts.push_back({key, *pair_scratch.Find(key)});
    }
    occ_order.clear();
    for (const trace::DocumentId doc : staged_occs[d]) {
      uint32_t& n = occ_counts[doc];
      if (n == 0) occ_order.push_back(doc);
      ++n;
    }
    out[d].occurrences.reserve(occ_order.size());
    for (const trace::DocumentId doc : occ_order) {
      out[d].occurrences.push_back({doc, occ_counts[doc]});
      occ_counts[doc] = 0;  // scratch stays zeroed for the next day
    }
  }
  return out;
}

DailyDependencyAccumulator::DailyDependencyAccumulator(
    const DependencyConfig& config, uint32_t num_clients)
    : config_(config), clients_(num_clients) {}

DayCounts& DailyDependencyAccumulator::Staging(uint32_t day) {
  SDS_CHECK(day >= floor_) << "day " << day
                           << " is below the DropBefore floor " << floor_;
  while (day - floor_ >= days_.size()) days_.emplace_back();
  return days_[day - floor_].counts;
}

void DailyDependencyAccumulator::OnRequest(const trace::Request& r) {
  SDS_CHECK(r.time >= last_time_) << "dependency stream not time-ordered";
  last_time_ = r.time;
  if (r.kind != trace::RequestKind::kDocument &&
      r.kind != trace::RequestKind::kAlias) {
    return;
  }
  SDS_CHECK(r.client < clients_.size()) << "client id out of range";
  ClientState& cs = clients_[r.client];
  // Stride break: the batch scan stops pairing every active leader at the
  // first consecutive gap >= StrideTimeout, and that gap is shared by all
  // of them, so the whole buffer clears at once.
  if (!cs.leaders.empty() && r.time - cs.last >= config_.stride_timeout) {
    cs.leaders.clear();
  }
  // Window eviction: leaders are in ascending time order, so expired ones
  // form a prefix.
  size_t expired = 0;
  while (expired < cs.leaders.size() &&
         r.time - cs.leaders[expired].time > config_.window) {
    ++expired;
  }
  if (expired > 0) {
    cs.leaders.erase(cs.leaders.begin(), cs.leaders.begin() + expired);
  }
  const uint32_t day_now = static_cast<uint32_t>(DayOfTime(r.time));
  DayCounts& today = Staging(day_now);
  // The oldest leader has the earliest day; Staging checked day_now.
  SDS_CHECK(cs.leaders.empty() || cs.leaders.front().day >= floor_)
      << "pair led on day " << cs.leaders.front().day
      << ", below the DropBefore floor " << floor_;
  // Newest to oldest: r pairs with a leader unless r's doc is the leader's
  // own or already followed it, i.e. is the doc of a later leader.
  bool followed = false;
  for (size_t k = cs.leaders.size(); k-- > 0;) {
    const Leader& a = cs.leaders[k];
    if (a.doc == r.doc) {
      followed = true;
      continue;
    }
    if (followed) continue;
    DayCounts& lead_day =
        a.day == day_now ? today : days_[a.day - floor_].counts;
    lead_day.pair_counts.push_back({PairKey(a.doc, r.doc), 1});
  }
  today.occurrences.push_back({r.doc, 1});
  cs.leaders.push_back({r.time, day_now, r.doc});
  cs.last = r.time;
}

void DailyDependencyAccumulator::FinishStream() { finished_ = true; }

const DayCounts* DailyDependencyAccumulator::Counts(uint32_t day) {
  SDS_CHECK(DayFinal(day)) << "day " << day << " not final yet";
  if (day < floor_ || day - floor_ >= days_.size()) {
    static const DayCounts kEmpty;
    return &kEmpty;
  }
  Day& d = days_[day - floor_];
  if (!d.final) {
    d.counts.Normalize();
    d.counts.pair_counts.shrink_to_fit();
    d.counts.occurrences.shrink_to_fit();
    d.final = true;
  }
  return &d.counts;
}

void DailyDependencyAccumulator::DropBefore(uint32_t day) {
  if (day <= floor_) return;
  const size_t n = std::min<size_t>(day - floor_, days_.size());
  days_.erase(days_.begin(), days_.begin() + n);
  floor_ = day;
}

std::vector<DayCounts> CountDailyDependenciesStream(
    trace::RequestCursor* cursor, const DependencyConfig& config) {
  DailyDependencyAccumulator acc(config, cursor->num_clients());
  SimTime span = 0.0;
  bool any = false;
  for (auto chunk = cursor->NextChunk(); !chunk.empty();
       chunk = cursor->NextChunk()) {
    for (const auto& r : chunk) {
      acc.OnRequest(r);
      span = r.time;
      any = true;
    }
  }
  acc.FinishStream();
  const uint32_t days =
      any ? static_cast<uint32_t>(DayOfTime(span)) + 1 : 1;
  std::vector<DayCounts> out(days);
  for (uint32_t d = 0; d < days; ++d) out[d] = *acc.Counts(d);
  return out;
}

void WindowedCounts::Add(const DayCounts& day) {
  for (const auto& [key, n] : day.pair_counts) {
    pair_counts_[key] += n;
    total_pairs_ += n;
  }
  for (const auto& [doc, n] : day.occurrences) {
    if (doc >= occurrences_.size()) occurrences_.resize(doc + 1, 0);
    occurrences_[doc] += n;
  }
}

void WindowedCounts::Remove(const DayCounts& day) {
  for (const auto& [key, n] : day.pair_counts) {
    int64_t* count = pair_counts_.Find(key);
    SDS_CHECK(count != nullptr && *count >= n) << "window underflow";
    *count -= n;
    total_pairs_ -= n;
  }
  for (const auto& [doc, n] : day.occurrences) {
    SDS_CHECK(doc < occurrences_.size() && occurrences_[doc] >= n)
        << "window underflow";
    occurrences_[doc] -= n;
  }
}

SparseProbMatrix WindowedCounts::BuildMatrix(
    const DependencyConfig& config) const {
  SparseProbMatrix matrix(num_docs_);
  matrix.Reserve(pair_counts_.size());
  pair_counts_.ForEach([&](uint64_t key, int64_t n) {
    if (n <= 0 || n < config.min_support) return;
    const trace::DocumentId i = static_cast<trace::DocumentId>(key >> 32);
    const trace::DocumentId j =
        static_cast<trace::DocumentId>(key & 0xffffffffu);
    if (i >= occurrences_.size() || occurrences_[i] == 0) return;
    const double p = std::min(
        1.0, static_cast<double>(n) / static_cast<double>(occurrences_[i]));
    if (p < config.min_probability) return;
    matrix.Add(i, j, p);
  });
  matrix.SortRows();
  return matrix;
}

SparseProbMatrix EstimateDependencies(const trace::Trace& trace,
                                      size_t num_docs,
                                      const DependencyConfig& config,
                                      SimTime t_begin, SimTime t_end) {
  WindowedCounts window(num_docs);
  ScanDependencies(
      trace, config, t_begin, t_end,
      [&](uint32_t, trace::DocumentId doc) { window.AddOccurrence(doc); },
      [&](uint32_t, trace::DocumentId i, trace::DocumentId j) {
        window.AddPair(i, j);
      });
  return window.BuildMatrix(config);
}

}  // namespace sds::spec
