// Test-only brute-force reference for dependency counting (paper §3.1):
// group each client's requests, then for every occurrence of D_i walk
// forward through the client's later requests and pair it once with each
// distinct D_j that follows within T_w inside the same traversal stride.
// It shares no code with DailyDependencyAccumulator, so the library's
// counters can be checked against it.

#ifndef SDS_TESTS_SPEC_REFERENCE_DEPENDENCIES_H_
#define SDS_TESTS_SPEC_REFERENCE_DEPENDENCIES_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "spec/dependency.h"
#include "trace/request.h"
#include "util/sim_time.h"

namespace sds::spec::reference {

/// Calls `on_occurrence(day, doc)` once per kDocument/kAlias request in
/// [t_begin, t_end) and `on_pair(day, i, j)` once per occurrence of i for
/// each distinct j != i that follows it within the window and the stride;
/// `day` is the day of the leading request.
template <typename OccurrenceFn, typename PairFn>
void Scan(const trace::Trace& trace, const DependencyConfig& config,
          SimTime t_begin, SimTime t_end, OccurrenceFn&& on_occurrence,
          PairFn&& on_pair) {
  struct Access {
    SimTime time;
    trace::DocumentId doc;
  };
  std::map<trace::ClientId, std::vector<Access>> by_client;
  for (const trace::Request& r : trace.requests) {
    if (r.time < t_begin || r.time >= t_end) continue;
    if (r.kind != trace::RequestKind::kDocument &&
        r.kind != trace::RequestKind::kAlias) {
      continue;
    }
    by_client[r.client].push_back({r.time, r.doc});
  }
  for (const auto& [client, accesses] : by_client) {
    for (size_t a = 0; a < accesses.size(); ++a) {
      const uint32_t day =
          static_cast<uint32_t>(DayOfTime(accesses[a].time));
      on_occurrence(day, accesses[a].doc);
      std::vector<trace::DocumentId> seen;
      for (size_t b = a + 1; b < accesses.size(); ++b) {
        if (accesses[b].time - accesses[b - 1].time >=
            config.stride_timeout) {
          break;
        }
        if (accesses[b].time - accesses[a].time > config.window) break;
        if (accesses[b].doc == accesses[a].doc) continue;
        if (std::find(seen.begin(), seen.end(), accesses[b].doc) !=
            seen.end()) {
          continue;
        }
        seen.push_back(accesses[b].doc);
        on_pair(day, accesses[a].doc, accesses[b].doc);
      }
    }
  }
}

/// The reference per-day counts: DayOfTime(Span()) + 1 days (the day
/// count CountDailyDependencies promises), each run sorted by key.
inline std::vector<DayCounts> DailyCounts(const trace::Trace& trace,
                                          const DependencyConfig& config) {
  const size_t days = static_cast<size_t>(DayOfTime(trace.Span())) + 1;
  std::vector<std::map<uint64_t, uint32_t>> pairs(days);
  std::vector<std::map<trace::DocumentId, uint32_t>> occurrences(days);
  Scan(
      trace, config, 0.0, kInfiniteTime,
      [&](uint32_t day, trace::DocumentId doc) { ++occurrences[day][doc]; },
      [&](uint32_t day, trace::DocumentId i, trace::DocumentId j) {
        ++pairs[day][PairKey(i, j)];
      });
  std::vector<DayCounts> out(days);
  for (size_t d = 0; d < days; ++d) {
    out[d].pair_counts.assign(pairs[d].begin(), pairs[d].end());
    out[d].occurrences.assign(occurrences[d].begin(), occurrences[d].end());
  }
  return out;
}

/// `days` with every run sorted by key: the counters emit runs in
/// first-seen order, the reference sorted.
inline std::vector<DayCounts> Sorted(std::vector<DayCounts> days) {
  for (DayCounts& day : days) day.Normalize();
  return days;
}

/// The reference P over [t_begin, t_end): hash-map pair counts, dense
/// occurrences, the library's pruning thresholds, and each row sorted by
/// (probability desc, doc asc).
inline std::vector<std::vector<SparseProbMatrix::Entry>> MatrixRows(
    const trace::Trace& trace, size_t num_docs, const DependencyConfig& config,
    SimTime t_begin = 0.0, SimTime t_end = kInfiniteTime) {
  std::unordered_map<uint64_t, int64_t> pair_counts;
  std::vector<int64_t> occurrences(num_docs, 0);
  Scan(
      trace, config, t_begin, t_end,
      [&](uint32_t, trace::DocumentId doc) {
        if (doc >= occurrences.size()) occurrences.resize(doc + 1, 0);
        ++occurrences[doc];
      },
      [&](uint32_t, trace::DocumentId i, trace::DocumentId j) {
        ++pair_counts[PairKey(i, j)];
      });
  std::vector<std::vector<SparseProbMatrix::Entry>> rows(num_docs);
  for (const auto& [key, n] : pair_counts) {
    if (n < config.min_support) continue;
    const trace::DocumentId i = static_cast<trace::DocumentId>(key >> 32);
    const trace::DocumentId j =
        static_cast<trace::DocumentId>(key & 0xffffffffu);
    if (i >= occurrences.size() || occurrences[i] == 0) continue;
    const double p = std::min(
        1.0, static_cast<double>(n) / static_cast<double>(occurrences[i]));
    if (p < config.min_probability) continue;
    rows[i].push_back({j, static_cast<float>(p)});
  }
  for (auto& row : rows) {
    std::sort(row.begin(), row.end(),
              [](const SparseProbMatrix::Entry& a,
                 const SparseProbMatrix::Entry& b) {
                if (a.probability != b.probability) {
                  return a.probability > b.probability;
                }
                return a.doc < b.doc;
              });
  }
  return rows;
}

}  // namespace sds::spec::reference

#endif  // SDS_TESTS_SPEC_REFERENCE_DEPENDENCIES_H_
