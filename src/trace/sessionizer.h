#ifndef SDS_TRACE_SESSIONIZER_H_
#define SDS_TRACE_SESSIONIZER_H_

#include <cstdint>

#include "trace/cursor.h"
#include "trace/request.h"
#include "util/sim_time.h"

namespace sds::trace {

/// \brief Counts segments across all clients: maximal runs of one client's
/// requests in which successive requests are less than `timeout` seconds
/// apart. With StrideTimeout a segment is the paper's *traversal stride*;
/// with SessionTimeout it is a *session stride* (e.g. the "20,000
/// sessions" statistic the paper reports for its trace).
///
/// A single pass with one last-request time per client: a client's count
/// is one (its first request) plus one per gap of at least `timeout`.
/// `timeout` = kInfiniteTime gives one segment per client that has
/// requests; `timeout` = 0 gives one per request.
uint64_t CountSegments(RequestCursor* cursor, SimTime timeout);

/// \brief CountSegments over a trace's requests (a VectorCursor that
/// borrows the trace).
uint64_t CountSegments(const Trace& trace, SimTime timeout);

}  // namespace sds::trace

#endif  // SDS_TRACE_SESSIONIZER_H_
