#ifndef SDS_TRACE_CLF_H_
#define SDS_TRACE_CLF_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/corpus.h"
#include "trace/request.h"
#include "util/status.h"

namespace sds::trace {

/// \brief A parsed NCSA Common Log Format record:
/// `host ident user [date] "METHOD path HTTP/x.y" status bytes`.
///
/// The 1995 BU traces the paper analyzed were plain httpd CLF logs; this
/// reader lets real logs be substituted for the synthetic workload.
struct ClfRecord {
  std::string host;
  SimTime time = 0.0;  ///< Seconds since the trace epoch.
  std::string method;
  std::string path;
  int status = 0;
  uint64_t bytes = 0;
};

/// \brief Seconds between the Unix epoch representation used in log lines
/// and SimTime 0. The synthetic workload's epoch is 1995-01-01 00:00:00 UTC,
/// the start of the trace period the paper analyzed.
inline constexpr int64_t kTraceEpochYear = 1995;

/// \brief Formats SimTime as a CLF timestamp, e.g.
/// "[01/Jan/1995:00:00:00 +0000]" for t = 0.
std::string FormatClfTime(SimTime t);

/// \brief Parses a CLF timestamp (the bracketed form above) into SimTime.
Result<SimTime> ParseClfTime(const std::string& field);

/// \brief Formats one record as a CLF line (without trailing newline).
std::string FormatClfLine(const ClfRecord& record);

/// \brief Parses one CLF line (the grammar every CLF reader uses).
Result<ClfRecord> ParseClfLine(const std::string& line);

/// \brief Renders a trace as CLF lines. Hostnames encode the client id and
/// locality: remote clients are `hN.orgM.example.com`, local clients
/// `hN.cs.bu.edu`. Paths come from the corpus; 404s get a `/missing/...`
/// path and scripts `/cgi-bin/...`.
std::vector<std::string> TraceToClf(const Trace& trace, const Corpus& corpus);

/// \brief Parsing options for ClfToTrace / ReadClfFile.
///
/// Real 1995-era logs (the BU traces included) contain truncated and
/// garbled lines; `lenient` mirrors how the paper's preprocessing dropped
/// them instead of aborting the whole analysis.
struct ClfReadOptions {
  /// Skip malformed lines (counted in ClfReadStats::skipped_lines) instead
  /// of failing the whole read.
  bool lenient = false;
};

/// \brief Per-read accounting filled in by ClfToTrace / ReadClfFile.
struct ClfReadStats {
  size_t lines = 0;          ///< Non-blank lines examined.
  size_t skipped_lines = 0;  ///< Malformed lines dropped (lenient mode).
};

/// \brief The per-line step of every CLF reader (ClfToTrace and ClfCursor,
/// hence ReadClfFile): parses one line, takes the client id and locality
/// from the host name (`hN.<domain>`, remote unless `.cs.bu.edu`) and
/// converts the record into a Request. Status 404 becomes kNotFound,
/// `/cgi-bin/` paths kScript, `/alias/` paths are resolved to the aliased
/// document as kAlias, and paths the corpus (server 0) does not know
/// degrade to kNotFound, as the paper's preprocessing treated them.
class ClfLineReader {
 public:
  /// `corpus` must outlive the reader.
  ClfLineReader(const Corpus* corpus, const ClfReadOptions& options);

  /// Reads line `line_number` (1-based). Returns true with `*out` set for
  /// a record, false for a blank line (not counted) or a malformed one. A
  /// malformed line is tallied in stats().skipped_lines in lenient mode; in
  /// strict mode it sets error() to a ParseError "line N: <reason>", and
  /// the read is over.
  bool Read(std::string_view line, size_t line_number, Request* out);

  const Status& error() const { return error_; }
  const ClfReadStats& stats() const { return stats_; }
  /// Largest client id read so far + 1.
  uint32_t num_clients() const { return num_clients_; }

  /// Publishes the line accounting as the trace.clf_* observability
  /// counters (once per completed read).
  void CountMetrics() const;

 private:
  const Corpus* corpus_;
  ClfReadOptions options_;
  ClfReadStats stats_;
  Status error_;
  uint32_t num_clients_ = 0;
  std::string path_scratch_;  ///< Reused storage for the corpus lookup.
};

/// \brief Reconstructs a Trace from CLF lines, one ClfLineReader step per
/// line, then stable-sorts it by time (server 0 is assumed; multi-server
/// traces are serialized per server).
///
/// In strict mode (default) the first malformed line fails the read with a
/// `Status::ParseError` naming the 1-based line number. In lenient mode
/// malformed lines are skipped and tallied in `stats`.
Result<Trace> ClfToTrace(const std::vector<std::string>& lines,
                         const Corpus& corpus,
                         const ClfReadOptions& options = {},
                         ClfReadStats* stats = nullptr);

/// \brief Writes CLF lines to a file.
Status WriteClfFile(const std::string& path, const Trace& trace,
                    const Corpus& corpus);

/// \brief Reads a CLF file into a trace: drains a ClfCursor whose reorder
/// window is unbounded, so the whole file is ordered by (time, line),
/// which is the stable sort by time of ClfToTrace. Error messages and
/// `stats` follow the ClfToTrace contract; errors are prefixed with the
/// file path ("<path>: line N: <reason>").
Result<Trace> ReadClfFile(const std::string& path, const Corpus& corpus,
                          const ClfReadOptions& options = {},
                          ClfReadStats* stats = nullptr);

}  // namespace sds::trace

#endif  // SDS_TRACE_CLF_H_
