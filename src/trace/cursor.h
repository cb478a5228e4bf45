#ifndef SDS_TRACE_CURSOR_H_
#define SDS_TRACE_CURSOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/clf.h"
#include "trace/corpus.h"
#include "trace/generator.h"
#include "trace/link_graph.h"
#include "trace/request.h"
#include "util/rng.h"
#include "util/status.h"

namespace sds::trace {

/// \brief Pull-based, bounded-lookahead iterator over a time-ordered
/// request stream.
///
/// This is the one way to read a request stream in a single forward pass
/// (the dissemination and speculation replays, the queueing model, the
/// dependency counter, the sessionizer): consumers hold O(lookahead)
/// resident state instead of a whole trace. The `Trace` entry points of
/// those analyses are drains of a cursor (or loops of the same per-request
/// code) over the trace's requests. GeneratorCursor yields exactly the
/// requests of GenerateTrace + SortByTime, bit for bit, so materialised and
/// generated runs produce identical results.
///
/// Cursors are single-threaded; parallel sweeps hand each worker its own
/// cursor (see the cursor factories on core::Workload).
class RequestCursor {
 public:
  virtual ~RequestCursor() = default;

  /// Returns the next chunk of requests in the stream order (nondecreasing
  /// time). An empty span signals end of stream and every later call stays
  /// empty until Rewind(). The storage behind the span is owned by the
  /// cursor and is invalidated by the next NextChunk() or Rewind() call.
  virtual std::span<const Request> NextChunk() = 0;

  /// Restarts the stream from the beginning.
  virtual void Rewind() = 0;

  /// Stream metadata, mirroring Trace::num_clients / num_servers. Backends
  /// that know the counts up front (generator, vector) report them
  /// immediately; the CLF backend reports the counts observed so far and
  /// is only authoritative once the stream is exhausted.
  virtual uint32_t num_clients() const = 0;
  virtual uint32_t num_servers() const = 0;

  /// Error state. A cursor that hits an unrecoverable error (a malformed
  /// CLF line in strict mode, or CLF disorder beyond the reorder window)
  /// ends its stream early with a non-OK status, so the nondecreasing-time
  /// promise holds for everything it handed out; error-free backends
  /// always return OK.
  virtual const Status& status() const;
};

/// \brief In-memory adapter: streams an existing `Trace` (or request
/// vector) as one chunk. Either borrows (the trace must outlive the
/// cursor) or owns a copy.
class VectorCursor : public RequestCursor {
 public:
  /// Borrows `trace`; it must outlive the cursor.
  explicit VectorCursor(const Trace* trace);
  /// Takes ownership of `trace`.
  explicit VectorCursor(Trace trace);

  std::span<const Request> NextChunk() override;
  void Rewind() override;
  uint32_t num_clients() const override;
  uint32_t num_servers() const override;

 private:
  std::optional<Trace> owned_;
  const Trace* trace_;
  bool done_ = false;
};

/// \brief Generate-on-the-fly backend: produces the trace of
/// `GenerateTrace(config, graph, rng)` lazily, day by day, with the
/// identical RNG draw sequence and the identical global time order.
///
/// The batch generator emits per-day request bursts and then stable-sorts
/// the whole trace by time; its output order is therefore (time, emission
/// index). The cursor keeps plain requests in that order with bounded
/// state. It appends each new day's emissions behind the pending overhang
/// and stable-sorts the buffer by time in linear time (StableSortByTime);
/// every overhang request was emitted earlier and sits in front, so a tie
/// keeps it first, exactly as the batch sort does. It then releases the
/// requests with time < (d+1) days: every future emission has a later
/// time (sessions only overhang forward) *and* a larger emission index, so
/// the released prefix is final. Sessions that straddle midnight stay
/// pending into the next day. Chunks are spans into the buffer, not copies.
/// Resident state is one day of requests plus the overhang, independent of
/// `config.days`.
///
/// The link graph and the day generator are built on first read, by
/// NextChunk() or an accessor, via `graph_factory` and from the initial RNG
/// state. Rewind() drops them, so each pass is identical and a cursor that
/// is never read builds nothing.
class GeneratorCursor : public RequestCursor {
 public:
  /// `graph_factory` must return a freshly built link graph (same corpus,
  /// same construction RNG state) on every call, and is called once per
  /// pass that reads the cursor; `rng` is the trace stream's RNG state,
  /// captured by value.
  GeneratorCursor(const TraceGeneratorConfig& config,
                  std::function<LinkGraph()> graph_factory, Rng rng);

  std::span<const Request> NextChunk() override;
  void Rewind() override;
  uint32_t num_clients() const override;
  uint32_t num_servers() const override;

  const std::vector<bool>& client_is_remote() const;
  /// Update events of the days generated so far; complete once the stream
  /// is exhausted (matches GeneratedTrace::updates).
  const std::vector<UpdateEvent>& updates() const;
  /// Sessions generated so far (matches GeneratedTrace::num_sessions once
  /// exhausted).
  uint64_t num_sessions() const;

 private:
  /// The pass's generator, built on first use.
  TraceDayGenerator& Generator() const;

  TraceGeneratorConfig config_;
  std::function<LinkGraph()> graph_factory_;
  Rng initial_rng_;

  /// The pass's state, built by Generator() (also from const accessors)
  /// and dropped by Rewind().
  mutable std::optional<LinkGraph> graph_;
  mutable Rng rng_;
  mutable std::optional<TraceDayGenerator> generator_;
  /// Requests in (time, emission index) order: [emit_pos_, emit_end_) is
  /// released and ready to hand out, [emit_end_, size) is the overhang.
  std::vector<Request> window_;
  size_t emit_pos_ = 0;
  size_t emit_end_ = 0;
  std::vector<Request> scratch_;  ///< Working storage of the sort.
  bool exhausted_ = false;
};

/// \brief Chunked CLF file backend: mmap + zero-copy line scanning, one
/// ClfLineReader step per line (a truncated final line is a line too).
///
/// Records reach time order through a (time, line) min-heap of
/// `reorder_window` entries: the stream is the file's stable sort by time
/// whenever no record is preceded by more than `reorder_window` later ones
/// (always so for time-sorted files such as WriteClfFile output). Larger
/// disorder ends the stream with a ParseError naming the line and the
/// window, in strict and lenient mode alike, so no request is handed out
/// of time order. ReadClfFile drains a ClfCursor with an unbounded window.
/// A malformed line is tallied in `stats()` (lenient) or ends the stream
/// with "<path>: line N: <reason>" (strict). num_clients() is the max
/// client id observed so far + 1, authoritative after exhaustion.
class ClfCursor : public RequestCursor {
 public:
  ClfCursor(const std::string& path, const Corpus* corpus,
            const ClfReadOptions& options = {},
            size_t reorder_window = 65536);
  ~ClfCursor() override;

  ClfCursor(const ClfCursor&) = delete;
  ClfCursor& operator=(const ClfCursor&) = delete;

  std::span<const Request> NextChunk() override;
  void Rewind() override;
  uint32_t num_clients() const override;
  uint32_t num_servers() const override;
  const Status& status() const override;

  /// Line accounting so far (complete after exhaustion).
  const ClfReadStats& stats() const { return reader_.stats(); }

 private:
  Status MapFile();
  /// Reads one line into the reorder heap (or into status_).
  void ProcessLine(std::string_view line);
  /// Moves the heap's earliest record into `*out`; false (status_ set) if
  /// it is earlier than the last record handed out.
  bool PopInto(std::vector<Request>* out);

  std::string path_;
  const Corpus* corpus_;
  ClfReadOptions options_;
  size_t reorder_window_;

  const char* data_ = nullptr;  ///< mmap'ed file contents (may be null).
  size_t size_ = 0;
  size_t offset_ = 0;     ///< Scan position in the mapped file.
  size_t line_number_ = 0;  ///< 1-based number of the last line read.
  ClfLineReader reader_;
  struct HeapEntry {
    Request request;
    uint64_t line;  ///< Source line (stable-sort tiebreak, error message).
  };
  std::vector<HeapEntry> heap_;  ///< Min-heap on (time, line).
  SimTime last_emitted_ = -kInfiniteTime;
  std::vector<Request> chunk_;
  Status open_status_;  ///< Result of the initial mmap (reported by Rewind).
  Status status_;
  bool scan_done_ = false;
  bool exhausted_ = false;
};

/// \brief Streaming FilterTrace: forwards the inner cursor's stream through
/// CleanRequest (kNotFound/kScript records dropped, kAlias canonicalized
/// to kDocument), in stream order.
class FilteringCursor : public RequestCursor {
 public:
  explicit FilteringCursor(std::unique_ptr<RequestCursor> inner);

  std::span<const Request> NextChunk() override;
  void Rewind() override;
  uint32_t num_clients() const override;
  uint32_t num_servers() const override;
  const Status& status() const override;

  RequestCursor* inner() { return inner_.get(); }

 private:
  std::unique_ptr<RequestCursor> inner_;
  std::vector<Request> chunk_;
};

/// \brief Calls `fn(request)` for each request of the rest of the cursor's
/// stream, in stream order: the one-pass loop of the cursor analyses.
template <typename Fn>
void ForEachRequest(RequestCursor* cursor, Fn&& fn) {
  for (auto chunk = cursor->NextChunk(); !chunk.empty();
       chunk = cursor->NextChunk()) {
    for (const Request& r : chunk) fn(r);
  }
}

/// \brief Drains a cursor into a materialized Trace (num_clients /
/// num_servers from the exhausted cursor). Callers should check
/// `cursor->status()` afterwards when the backend can fail.
Trace Materialize(RequestCursor* cursor);

}  // namespace sds::trace

#endif  // SDS_TRACE_CURSOR_H_
