#include "spec/dependency.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

#include "util/logging.h"

namespace sds::spec {
namespace {

/// The row order of a finalised matrix: descending probability, ties by
/// doc id (a total order, since a row holds each doc once).
bool RowOrder(const SparseProbMatrix::Entry& a,
              const SparseProbMatrix::Entry& b) {
  if (a.probability != b.probability) return a.probability > b.probability;
  return a.doc < b.doc;
}

/// Sorts a (key, count) run by key and merges duplicates by summing.
template <typename Key, typename Count>
void NormalizeRun(std::vector<std::pair<Key, Count>>* run) {
  std::sort(run->begin(), run->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
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

/// Counts raw observation keys into `*out` as unique (key, count) runs in
/// first-seen order, allocated once at their exact size. `count_of(key)` is
/// the key's scratch counter, zero on entry and zeroed again on return;
/// `order` is scratch for the first-seen keys.
template <typename Key, typename CountOf>
void CountKeys(const std::vector<Key>& raw, CountOf&& count_of,
               std::vector<uint64_t>* order,
               std::vector<std::pair<Key, uint32_t>>* out) {
  order->clear();
  for (const Key key : raw) {
    if (count_of(key)++ == 0) order->push_back(key);
  }
  out->reserve(order->size());
  for (const uint64_t key : *order) {
    uint32_t& n = count_of(static_cast<Key>(key));
    out->push_back({static_cast<Key>(key), n});
    n = 0;
  }
}

/// Runs a DailyDependencyAccumulator over a time-ordered request stream
/// and hands every day's final counts to `on_day` in day order, releasing
/// each day from the accumulator as soon as it is final, so only the days
/// still open stay staged.
template <typename OnDay>
class DayPump {
 public:
  DayPump(const DependencyConfig& config, uint32_t num_clients, OnDay on_day)
      : acc_(config, num_clients), on_day_(std::move(on_day)) {}

  void Feed(std::span<const trace::Request> requests) {
    for (const trace::Request& r : requests) {
      acc_.OnRequest(r);
      last_time_ = r.time;
      if (acc_.DayFinal(next_day_)) Release(UINT32_MAX);
    }
  }

  /// Ends the stream and releases the days up to the last request's (day 0
  /// for an empty stream).
  void Finish() {
    acc_.FinishStream();
    Release(static_cast<uint32_t>(DayOfTime(last_time_)) + 1);
  }

 private:
  void Release(uint32_t end_day) {
    for (; next_day_ < end_day && acc_.DayFinal(next_day_); ++next_day_) {
      on_day_(acc_.TakeCounts(next_day_));
      acc_.DropBefore(next_day_ + 1);
    }
  }

  DailyDependencyAccumulator acc_;
  OnDay on_day_;
  SimTime last_time_ = 0.0;
  uint32_t next_day_ = 0;
};

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

SparseProbMatrix::SparseProbMatrix(size_t num_docs,
                                   std::vector<uint32_t> offsets,
                                   std::vector<Entry> entries)
    : num_docs_(num_docs),
      offsets_(std::move(offsets)),
      entries_(std::move(entries)) {
  SDS_CHECK(offsets_.size() == num_docs_ + 1 &&
            offsets_.back() == entries_.size())
      << "malformed CSR";
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
              entries_.begin() + offsets_[i + 1], RowOrder);
  }
}

void DayCounts::Normalize() {
  NormalizeRun(&pair_counts);
  NormalizeRun(&occurrences);
}

DailyDependencyAccumulator::DailyDependencyAccumulator(
    const DependencyConfig& config, uint32_t num_clients)
    : config_(config), clients_(num_clients) {}

DailyDependencyAccumulator::Day& DailyDependencyAccumulator::Staging(
    uint32_t day) {
  SDS_CHECK(day >= floor_) << "day " << day
                           << " is below the DropBefore floor " << floor_;
  while (day - floor_ >= days_.size()) days_.emplace_back();
  return days_[day - floor_];
}

void DailyDependencyAccumulator::OnRequest(const trace::Request& r) {
  SDS_CHECK(r.time >= last_time_) << "dependency stream not time-ordered";
  last_time_ = r.time;
  if (r.kind != trace::RequestKind::kDocument &&
      r.kind != trace::RequestKind::kAlias) {
    return;
  }
  if (r.client >= clients_.size()) clients_.resize(r.client + 1);
  ClientState& cs = clients_[r.client];
  // Stride break: a gap >= StrideTimeout ends the stride of every active
  // leader (they all share the gap), so the whole buffer clears at once.
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
  if (today_ == nullptr || day_now != today_index_) {
    today_ = &Staging(day_now);
    today_index_ = day_now;
  }
  Day& today = *today_;
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
    Day& lead_day = a.day == day_now ? today : days_[a.day - floor_];
    lead_day.pair_keys.push_back(PairKey(a.doc, r.doc));
  }
  today.docs.push_back(r.doc);
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
    // One probe per observation: a flat table presized for the day's pair
    // keys, and a dense per-document array.
    pair_slots_.Reset(d.pair_keys.size());
    CountKeys(
        d.pair_keys,
        [&](uint64_t key) -> uint32_t& { return pair_slots_[key]; },
        &order_, &d.counts.pair_counts);
    CountKeys(
        d.docs,
        [&](trace::DocumentId doc) -> uint32_t& {
          if (doc >= doc_slots_.size()) doc_slots_.resize(doc + 1, 0);
          return doc_slots_[doc];
        },
        &order_, &d.counts.occurrences);
    std::vector<uint64_t>().swap(d.pair_keys);
    std::vector<trace::DocumentId>().swap(d.docs);
    d.final = true;
  }
  return &d.counts;
}

DayCounts DailyDependencyAccumulator::TakeCounts(uint32_t day) {
  Counts(day);
  if (day < floor_ || day - floor_ >= days_.size()) return {};
  return std::move(days_[day - floor_].counts);
}

void DailyDependencyAccumulator::DropBefore(uint32_t day) {
  if (day <= floor_) return;
  const size_t n = std::min<size_t>(day - floor_, days_.size());
  days_.erase(days_.begin(), days_.begin() + n);
  floor_ = day;
  today_ = nullptr;
}

std::vector<DayCounts> CountDailyDependencies(const trace::Trace& trace,
                                              const DependencyConfig& config) {
  std::vector<DayCounts> out;
  DayPump pump(config, trace.num_clients,
               [&](DayCounts day) { out.push_back(std::move(day)); });
  pump.Feed(trace.requests);
  pump.Finish();
  return out;
}

std::vector<DayCounts> CountDailyDependencies(trace::RequestCursor* cursor,
                                              const DependencyConfig& config) {
  std::vector<DayCounts> out;
  DayPump pump(config, cursor->num_clients(),
               [&](DayCounts day) { out.push_back(std::move(day)); });
  for (auto chunk = cursor->NextChunk(); !chunk.empty();
       chunk = cursor->NextChunk()) {
    pump.Feed(chunk);
  }
  pump.Finish();
  return out;
}

WindowedCounts::Follower* WindowedCounts::Find(uint64_t key, bool insert) {
  const trace::DocumentId i = static_cast<trace::DocumentId>(key >> 32);
  const trace::DocumentId j = static_cast<trace::DocumentId>(key & 0xffffffffu);
  SDS_CHECK(i < num_docs_) << "pair row " << i << " out of range";
  std::vector<Follower>& row = rows_[i];
  auto it = std::lower_bound(
      row.begin(), row.end(), j,
      [](const Follower& f, trace::DocumentId doc) { return f.doc < doc; });
  if (it == row.end() || it->doc != j) {
    if (!insert) return nullptr;
    it = row.insert(it, {j, 0});
  }
  touched_[i] = 1;
  return &*it;
}

void WindowedCounts::Add(const DayCounts& day) {
  for (const auto& [key, n] : day.pair_counts) Find(key, true)->count += n;
  for (const auto& [doc, n] : day.occurrences) {
    SDS_CHECK(doc < num_docs_) << "document " << doc << " out of range";
    occurrences_[doc] += n;
    touched_[doc] = 1;
  }
}

void WindowedCounts::Remove(const DayCounts& day) {
  for (const auto& [key, n] : day.pair_counts) {
    Follower* f = Find(key, false);
    SDS_CHECK(f != nullptr && f->count >= n) << "window underflow";
    f->count -= n;
  }
  for (const auto& [doc, n] : day.occurrences) {
    SDS_CHECK(doc < num_docs_ && occurrences_[doc] >= n)
        << "window underflow";
    occurrences_[doc] -= n;
    touched_[doc] = 1;
  }
}

void WindowedCounts::AppendRow(trace::DocumentId i,
                               const DependencyConfig& config,
                               std::vector<SparseProbMatrix::Entry>* out) const {
  const int64_t occurrences = occurrences_[i];
  if (occurrences == 0) return;
  const size_t begin = out->size();
  for (const Follower& f : rows_[i]) {
    if (f.count <= 0 || f.count < config.min_support) continue;
    const double p = std::min(1.0, static_cast<double>(f.count) /
                                       static_cast<double>(occurrences));
    if (p < config.min_probability) continue;
    out->push_back({f.doc, static_cast<float>(p)});
  }
  std::sort(out->begin() + begin, out->end(), RowOrder);
}

SparseProbMatrix WindowedCounts::BuildMatrix(const DependencyConfig& config) {
  // Rows depend on the thresholds too: new ones invalidate every row.
  const std::array<uint64_t, 2> thresholds = {
      config.min_support, std::bit_cast<uint64_t>(config.min_probability)};
  const bool rebuild_all = built_for_ != thresholds;
  built_for_ = thresholds;
  std::vector<uint32_t> offsets(num_docs_ + 1, 0);
  std::vector<SparseProbMatrix::Entry> entries;
  entries.reserve(entries_.size());
  for (trace::DocumentId i = 0; i < num_docs_; ++i) {
    if (rebuild_all || touched_[i]) {
      AppendRow(i, config, &entries);
    } else {
      entries.insert(entries.end(), entries_.begin() + offsets_[i],
                     entries_.begin() + offsets_[i + 1]);
    }
    offsets[i + 1] = static_cast<uint32_t>(entries.size());
  }
  std::fill(touched_.begin(), touched_.end(), 0);
  offsets_ = std::move(offsets);
  entries_ = std::move(entries);
  // Copies, so the matrix (which an epoch keeps) carries no spare capacity.
  return SparseProbMatrix(num_docs_, offsets_, entries_);
}

SparseProbMatrix EstimateDependencies(trace::RequestCursor* cursor,
                                      size_t num_docs,
                                      const DependencyConfig& config,
                                      SimTime t_begin, SimTime t_end) {
  const auto before = [](SimTime t) {
    return [t](const trace::Request& r) { return r.time < t; };
  };
  WindowedCounts window(num_docs);
  DayPump pump(config, cursor->num_clients(),
               [&](DayCounts day) { window.Add(day); });
  for (auto chunk = cursor->NextChunk(); !chunk.empty();
       chunk = cursor->NextChunk()) {
    const auto begin =
        std::partition_point(chunk.begin(), chunk.end(), before(t_begin));
    const auto end = std::partition_point(begin, chunk.end(), before(t_end));
    pump.Feed(std::span<const trace::Request>(begin, end));
    if (end != chunk.end()) break;  // the rest of the stream is past t_end
  }
  pump.Finish();
  return window.BuildMatrix(config);
}

SparseProbMatrix EstimateDependencies(const trace::Trace& trace,
                                      size_t num_docs,
                                      const DependencyConfig& config,
                                      SimTime t_begin, SimTime t_end) {
  trace::VectorCursor cursor(&trace);
  return EstimateDependencies(&cursor, num_docs, config, t_begin, t_end);
}

}  // namespace sds::spec
