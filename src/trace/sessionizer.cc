#include "trace/sessionizer.h"

#include <vector>

namespace sds::trace {

uint64_t CountSegments(RequestCursor* cursor, SimTime timeout) {
  // A client's first request sees an infinite gap, so it opens a segment
  // for every timeout.
  std::vector<SimTime> last(cursor->num_clients(), -kInfiniteTime);
  uint64_t total = 0;
  ForEachRequest(cursor, [&](const Request& r) {
    if (r.client >= last.size()) last.resize(r.client + 1, -kInfiniteTime);
    if (!(r.time - last[r.client] < timeout)) ++total;
    last[r.client] = r.time;
  });
  return total;
}

uint64_t CountSegments(const Trace& trace, SimTime timeout) {
  VectorCursor cursor(&trace);
  return CountSegments(&cursor, timeout);
}

}  // namespace sds::trace
