#ifndef SDS_DISSEM_POPULARITY_H_
#define SDS_DISSEM_POPULARITY_H_

#include <cstdint>
#include <vector>

#include "trace/corpus.h"
#include "trace/cursor.h"
#include "trace/request.h"

namespace sds::dissem {

/// \brief Access counters for one document.
struct DocumentAccessStats {
  uint64_t remote_requests = 0;
  uint64_t local_requests = 0;
  uint64_t remote_bytes = 0;
  uint64_t local_bytes = 0;

  uint64_t total_requests() const { return remote_requests + local_requests; }
  /// Remote-to-total access ratio (the classification statistic of §2);
  /// 0 for never-accessed documents.
  double RemoteRatio() const {
    const uint64_t total = total_requests();
    return total == 0 ? 0.0
                      : static_cast<double>(remote_requests) /
                            static_cast<double>(total);
  }
};

/// \brief Remote-popularity profile of one home server, the input to both
/// the λ fit and the storage allocators.
struct ServerPopularity {
  trace::ServerId server = 0;
  /// Per-document stats, indexed by DocumentId (whole corpus; documents of
  /// other servers have zero counts).
  std::vector<DocumentAccessStats> stats;
  /// This server's documents sorted by decreasing remote request density
  /// (requests per byte), i.e. the order in which bytes should be
  /// disseminated; never-accessed documents at the end.
  std::vector<trace::DocumentId> by_popularity;
  uint64_t total_remote_requests = 0;
  uint64_t total_remote_bytes = 0;
  /// R_i of the paper: remote bytes served per day.
  double remote_bytes_per_day = 0.0;
  /// Number of this server's documents with at least one access.
  uint32_t accessed_docs = 0;

  /// Empirical H(b): fraction of remote *requests* covered by the most
  /// popular `bytes` bytes (piecewise linear between document boundaries).
  double EmpiricalH(double bytes, const trace::Corpus& corpus) const;

  /// Empirical request coverage if the most popular `bytes` bytes are
  /// disseminated, weighted by bytes instead of requests (bandwidth saved).
  double EmpiricalByteCoverage(double bytes, const trace::Corpus& corpus) const;
};

/// \brief Streaming form of AnalyzeServer: feed requests one at a time
/// (any order), then Finish(). AnalyzeServer is implemented on this class,
/// so a builder fed from a request cursor produces the identical profile
/// without materializing the trace.
class ServerPopularityBuilder {
 public:
  ServerPopularityBuilder(const trace::Corpus& corpus, trace::ServerId server,
                          double t_begin = 0.0, double t_end = 1e300);

  /// Accumulates one request (requests outside the window, of other
  /// servers, or of noise kinds are ignored, as in AnalyzeServer).
  void OnRequest(const trace::Request& r);

  /// Sorts the popularity order and fills the derived fields. The builder
  /// is spent afterwards.
  ServerPopularity Finish();

 private:
  const trace::Corpus* corpus_;
  double t_begin_;
  double t_end_;
  double last_time_ = 0.0;
  double first_time_ = 1e300;
  ServerPopularity pop_;
};

/// \brief Analyzes remote/local accesses of one server over the rest of
/// the cursor's stream, restricted to [t_begin, t_end) (pass 0, +inf for
/// the whole stream).
ServerPopularity AnalyzeServer(const trace::Corpus& corpus,
                               trace::RequestCursor* cursor,
                               trace::ServerId server, double t_begin = 0.0,
                               double t_end = 1e300);

/// \brief AnalyzeServer over a trace's requests.
ServerPopularity AnalyzeServer(const trace::Corpus& corpus,
                               const trace::Trace& trace,
                               trace::ServerId server, double t_begin = 0.0,
                               double t_end = 1e300);

/// \brief Analyzes every server of the corpus in one pass over the rest of
/// the cursor's stream.
std::vector<ServerPopularity> AnalyzeAllServers(const trace::Corpus& corpus,
                                                trace::RequestCursor* cursor,
                                                double t_begin = 0.0,
                                                double t_end = 1e300);

/// \brief AnalyzeAllServers over a trace's requests.
std::vector<ServerPopularity> AnalyzeAllServers(const trace::Corpus& corpus,
                                                const trace::Trace& trace,
                                                double t_begin = 0.0,
                                                double t_end = 1e300);

/// \brief Figure 1 data: documents aggregated into fixed-size blocks in
/// decreasing popularity order.
struct BlockPopularity {
  uint64_t block_size = 0;
  /// Fraction of remote requests attributable to each block (descending).
  std::vector<double> request_fraction;
  /// Cumulative request fraction (request_fraction prefix sums).
  std::vector<double> cumulative_requests;
  /// Cumulative fraction of remote *bytes* saved if the first k blocks are
  /// serviced at an earlier stage (the second curve of Figure 1).
  std::vector<double> cumulative_bytes;
};

/// \brief Aggregates a server's popularity profile into blocks of
/// `block_size` bytes (256 KB in the paper).
BlockPopularity ComputeBlockPopularity(const ServerPopularity& pop,
                                       const trace::Corpus& corpus,
                                       uint64_t block_size);

}  // namespace sds::dissem

#endif  // SDS_DISSEM_POPULARITY_H_
