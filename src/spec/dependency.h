#ifndef SDS_SPEC_DEPENDENCY_H_
#define SDS_SPEC_DEPENDENCY_H_

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "spec/pair_table.h"
#include "trace/cursor.h"
#include "trace/request.h"
#include "util/logging.h"
#include "util/sim_time.h"

namespace sds::spec {

/// \brief Packs an ordered document pair into a 64-bit key.
inline uint64_t PairKey(trace::DocumentId i, trace::DocumentId j) {
  return (static_cast<uint64_t>(i) << 32) | j;
}

/// \brief Sparse row-major matrix of conditional probabilities p[i, j]
/// (the paper's P relation): probability that D_j is requested within the
/// window T_w given that D_i was requested.
///
/// Storage is CSR: Add() stages (row, entry) triplets and SortRows()
/// finalises them into one contiguous offsets/entries layout, or the CSR
/// constructor takes finished rows directly. Row() is then a span over the
/// shared entry array — no per-row vector headers, no per-row allocations,
/// and sequential row scans walk contiguous memory.
class SparseProbMatrix {
 public:
  struct Entry {
    trace::DocumentId doc = trace::kInvalidDocument;
    float probability = 0.0f;
  };
  /// A finalised row: contiguous entries sorted by descending probability.
  using RowView = std::span<const Entry>;

  SparseProbMatrix() = default;
  explicit SparseProbMatrix(size_t num_docs) : num_docs_(num_docs) {}
  /// A finalised matrix from CSR arrays: row i is
  /// entries[offsets[i], offsets[i + 1]), already sorted as SortRows()
  /// sorts.
  SparseProbMatrix(size_t num_docs, std::vector<uint32_t> offsets,
                   std::vector<Entry> entries);

  size_t num_docs() const { return num_docs_; }

  /// Entries of row i, sorted by descending probability. Valid after
  /// SortRows(); an empty view before any insertion.
  RowView Row(trace::DocumentId i) const {
    if (offsets_.empty()) return {};
    return RowView(entries_.data() + offsets_[i],
                   offsets_[i + 1] - offsets_[i]);
  }

  /// Probability p[i, j]; 0 if absent.
  double Get(trace::DocumentId i, trace::DocumentId j) const;

  /// Adds an entry (caller guarantees j unique within row i); call
  /// SortRows() once after all insertions. A finalised matrix is immutable.
  void Add(trace::DocumentId i, trace::DocumentId j, double p) {
    SDS_CHECK(offsets_.empty()) << "Add on a finalised matrix";
    staging_.push_back({i, {j, static_cast<float>(p)}});
  }

  /// Pre-sizes the staging area for `entries` insertions.
  void Reserve(size_t entries) { staging_.reserve(entries); }

  /// Finalises the staged entries into CSR form, every row sorted by
  /// descending probability (ties by doc id).
  void SortRows();

  /// Total number of stored (i, j) entries.
  size_t NumEntries() const {
    return offsets_.empty() ? staging_.size() : entries_.size();
  }

 private:
  size_t num_docs_ = 0;
  /// Staged (row, entry) triplets awaiting SortRows().
  std::vector<std::pair<trace::DocumentId, Entry>> staging_;
  /// CSR layout: row i occupies entries_[offsets_[i], offsets_[i + 1]).
  std::vector<uint32_t> offsets_;
  std::vector<Entry> entries_;
};

/// \brief Pair/occurrence counters for one day of trace; the building block
/// of the sliding HistoryLength window.
///
/// Flat layout: both counters are unique (key, count) runs. The counters
/// emit them in first-seen order; Normalize() sorts a run by key (merging
/// duplicate keys by summing), which gives a canonical form to compare.
struct DayCounts {
  /// PairKey(i, j) -> occurrences of i followed by j within T_w.
  std::vector<std::pair<uint64_t, uint32_t>> pair_counts;
  /// doc -> occurrences (the denominator of p[i, j]).
  std::vector<std::pair<trace::DocumentId, uint32_t>> occurrences;

  /// Sorts both runs by key and merges duplicates by summing counts.
  void Normalize();
};

/// \brief Counting parameters (paper §3.1/§3.2).
struct DependencyConfig {
  /// T_w: D_j must follow D_i within this many seconds.
  SimTime window = 5.0;
  /// StrideTimeout: pairs only count within a traversal stride (successive
  /// requests less than this many seconds apart). Small values restrict
  /// the relation to embedding dependencies; larger values admit traversal
  /// dependencies too.
  SimTime stride_timeout = 5.0;
  /// Entries below this probability are dropped from P.
  double min_probability = 0.02;
  /// Entries supported by fewer pair observations are dropped.
  uint32_t min_support = 3;
};

/// \brief Counts, per day, how often each document was requested and how
/// often each ordered pair (D_i, D_j) occurred: D_j requested by the same
/// client within T_w after D_i, inside one traversal stride (paper §3.1).
///
/// Day d covers [d * kDay, (d+1) * kDay) and a pair belongs to the day of
/// its leading request. Only kDocument/kAlias records count; the others
/// only advance time. The trace must be in time order (as every Trace is).
/// Returns DayOfTime(Span()) + 1 days (1 for an empty trace), each run in
/// first-seen order. This is a loop of a DailyDependencyAccumulator over
/// `trace.requests`; each day is merged and released from the accumulator
/// as soon as it is final.
std::vector<DayCounts> CountDailyDependencies(const trace::Trace& trace,
                                              const DependencyConfig& config);

/// \brief CountDailyDependencies over a whole cursor: the same per-day
/// counts for the same request stream, with the day count taken from the
/// last request the cursor yields. Callers check `cursor->status()`
/// afterwards when the backend can fail.
std::vector<DayCounts> CountDailyDependencies(trace::RequestCursor* cursor,
                                              const DependencyConfig& config);

/// \brief The one dependency counter: feed the time-ordered request stream
/// once and read each day's counts as soon as it is final, with only
/// O(active clients + retained days) resident state. The trace and cursor
/// forms of CountDailyDependencies and EstimateDependencies drive it, and
/// the streaming simulator pumps it lazily from its own replay cursor.
///
/// A pair is attributed to the day of its *leading* request, so day d can
/// still gain pairs from followers up to T_w seconds past the day
/// boundary; DayFinal(d) becomes true once the ingested stream has moved
/// past (d + 1) * kDay + T_w (or the stream ended).
///
/// Flat layout: each retained day stages its raw observations as plain
/// keys, and Counts() counts a day once, with one flat-table probe per
/// observation. Runs come out in first-seen order (deterministic for a
/// given stream); every consumer of DayCounts is order-independent.
class DailyDependencyAccumulator {
 public:
  /// `num_clients` presizes the per-client state; a larger client id
  /// grows it.
  DailyDependencyAccumulator(const DependencyConfig& config,
                             uint32_t num_clients);

  /// Ingests one request (any kind; non-kDocument/kAlias records only
  /// advance the finality clock). Requests must arrive in nondecreasing
  /// time order, and none may lead a pair or count an occurrence on a day
  /// DropBefore() already released; either violation aborts.
  void OnRequest(const trace::Request& r);

  /// Marks the stream exhausted: every day becomes final.
  void FinishStream();

  /// True once day `d` can no longer gain counts.
  bool DayFinal(uint32_t day) const {
    return finished_ ||
           last_time_ >= (static_cast<SimTime>(day) + 1.0) * kDay +
                             config_.window;
  }

  /// The finalised counts of `day` (an empty DayCounts if the day saw no
  /// qualifying traffic or was released by DropBefore()). Requires
  /// DayFinal(day). The returned pointer stays valid until DropBefore()
  /// passes the day.
  const DayCounts* Counts(uint32_t day);

  /// Moves the finalised counts of `day` out (Counts() reads the day empty
  /// afterwards). Requires DayFinal(day).
  DayCounts TakeCounts(uint32_t day);

  /// Releases every retained day strictly before `day`.
  void DropBefore(uint32_t day);

 private:
  /// An in-window request still collecting followers. The distinct
  /// followers already paired with it are exactly the docs of the later
  /// leaders of its client (every follower within T_w and the stride is
  /// itself a leader that outlives it), so none are stored.
  struct Leader {
    SimTime time = 0.0;
    uint32_t day = 0;
    trace::DocumentId doc = trace::kInvalidDocument;
  };
  struct ClientState {
    SimTime last = 0.0;
    std::vector<Leader> leaders;
  };
  /// A retained day: raw observation keys until Counts() merges them into
  /// `counts`.
  struct Day {
    std::vector<uint64_t> pair_keys;      ///< PairKey per observed pair.
    std::vector<trace::DocumentId> docs;  ///< Doc per occurrence.
    DayCounts counts;
    bool final = false;
  };

  /// The retained day `day`, appending empty days up to it.
  Day& Staging(uint32_t day);

  DependencyConfig config_;
  std::vector<ClientState> clients_;
  SimTime last_time_ = 0.0;
  bool finished_ = false;
  /// Retained days [floor_, floor_ + days_.size()). A deque, so the
  /// pointers Counts() returns survive appends and front drops.
  uint32_t floor_ = 0;
  std::deque<Day> days_;
  /// The day of the last request, cached (deque references survive appends).
  Day* today_ = nullptr;
  uint32_t today_index_ = 0;
  /// Counts() scratch: each key's count while one day is counted, and the
  /// day's keys in first-seen order.
  PairTable<uint32_t> pair_slots_;
  std::vector<uint32_t> doc_slots_;
  std::vector<uint64_t> order_;
};

/// \brief Aggregates day counts over a sliding window and materialises P.
///
/// The simulator adds each finished day and drops days older than
/// HistoryLength; BuildMatrix converts the current window into a pruned
/// SparseProbMatrix. Counts are row-major: each leading document owns one
/// contiguous (follower, count) list, sorted by follower and searched by
/// bisection, so a pair costs its 16-byte entry and no hash slot; the
/// occurrences live in a dense per-document array. Add and Remove mark the
/// rows they change, and BuildMatrix recomputes only those; every other
/// row is copied from the previous build.
class WindowedCounts {
 public:
  /// Every document id counted must be below `num_docs`.
  explicit WindowedCounts(size_t num_docs)
      : num_docs_(num_docs),
        rows_(num_docs),
        occurrences_(num_docs, 0),
        touched_(num_docs, 0) {}

  void Add(const DayCounts& day);
  void Remove(const DayCounts& day);

  /// Builds P from the current window, applying the pruning thresholds:
  /// the same matrix whatever Add/Remove history led to this window.
  SparseProbMatrix BuildMatrix(const DependencyConfig& config);

  size_t num_docs() const { return num_docs_; }

 private:
  struct Follower {
    trace::DocumentId doc = trace::kInvalidDocument;
    int64_t count = 0;
  };

  /// The follower of PairKey(i, j) in rows_[i], inserted with count 0 if
  /// absent and `insert`, else null if absent. Marks row i.
  Follower* Find(uint64_t key, bool insert);
  /// Appends the pruned entries of row `i` to `out`, sorted as SortRows()
  /// sorts.
  void AppendRow(trace::DocumentId i, const DependencyConfig& config,
                 std::vector<SparseProbMatrix::Entry>* out) const;

  size_t num_docs_;
  /// rows_[i]: every follower of i the window has counted, by ascending
  /// doc (a count may fall back to 0).
  std::vector<std::vector<Follower>> rows_;
  std::vector<int64_t> occurrences_;
  /// Rows changed since the last build.
  std::vector<uint8_t> touched_;
  /// The last build: its pruning thresholds (by bit pattern) and its CSR.
  std::optional<std::array<uint64_t, 2>> built_for_;
  std::vector<uint32_t> offsets_;
  std::vector<SparseProbMatrix::Entry> entries_;
};

/// \brief One-shot estimation of P over the requests of the interval
/// [t_begin, t_end) of a time-ordered stream: those requests run through a
/// DailyDependencyAccumulator, every day is added to one WindowedCounts,
/// and BuildMatrix prunes the result. Reads from the cursor's position up
/// to the first chunk that reaches t_end.
SparseProbMatrix EstimateDependencies(trace::RequestCursor* cursor,
                                      size_t num_docs,
                                      const DependencyConfig& config,
                                      SimTime t_begin = 0.0,
                                      SimTime t_end = kInfiniteTime);

/// \brief The same over a trace's requests (a VectorCursor drain).
SparseProbMatrix EstimateDependencies(const trace::Trace& trace,
                                      size_t num_docs,
                                      const DependencyConfig& config,
                                      SimTime t_begin = 0.0,
                                      SimTime t_end = kInfiniteTime);

}  // namespace sds::spec

#endif  // SDS_SPEC_DEPENDENCY_H_
