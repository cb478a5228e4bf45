#ifndef SDS_TRACE_REQUEST_H_
#define SDS_TRACE_REQUEST_H_

#include <cstdint>
#include <vector>

#include "trace/document.h"
#include "util/sim_time.h"

namespace sds::trace {

/// \brief What a raw log record refers to. Raw traces contain noise that the
/// paper removed before analysis (footnote 6): accesses to nonexistent
/// documents, to scripts, and accesses under alias paths.
enum class RequestKind : uint8_t {
  kDocument = 0,  ///< Normal access to an existing document.
  kAlias = 1,     ///< Access to an existing document via an alias path.
  kNotFound = 2,  ///< Access to a nonexistent document (HTTP 404).
  kScript = 3,    ///< Access to a CGI script (dynamic, "live" content).
};

/// \brief One access in a trace.
struct Request {
  SimTime time = 0.0;
  ClientId client = 0;
  DocumentId doc = kInvalidDocument;  ///< kInvalidDocument for 404/script.
  ServerId server = 0;
  uint32_t bytes = 0;  ///< Bytes transferred for this access.
  RequestKind kind = RequestKind::kDocument;
  bool remote_client = false;  ///< Client outside the serving organisation.
};

/// \brief A time-ordered sequence of accesses plus minimal metadata.
struct Trace {
  std::vector<Request> requests;
  uint32_t num_clients = 0;
  uint32_t num_servers = 1;

  bool empty() const { return requests.empty(); }
  size_t size() const { return requests.size(); }
  /// Timespan covered: time of last request (0 for an empty trace).
  SimTime Span() const { return requests.empty() ? 0.0 : requests.back().time; }
  /// Stable-sorts requests by time (generator output is already sorted;
  /// traces read from disk may not be).
  void SortByTime();
  /// Total bytes across all requests.
  uint64_t TotalBytes() const;
};

/// \brief Stable-sorts `*requests` by time: exactly the order of
/// std::stable_sort with `a.time < b.time`, in linear time when the times
/// are spread out. A counting sort on a bucket index that never decreases
/// with time groups the requests, then an insertion sort orders each bucket;
/// it falls back to std::stable_sort when the buckets are too crowded.
/// `*scratch` is working storage (its contents are discarded).
void StableSortByTime(std::vector<Request>* requests,
                      std::vector<Request>* scratch);

/// \brief One document update (used for the mutability analysis of §2).
struct UpdateEvent {
  uint32_t day = 0;
  DocumentId doc = kInvalidDocument;
};

}  // namespace sds::trace

#endif  // SDS_TRACE_REQUEST_H_
