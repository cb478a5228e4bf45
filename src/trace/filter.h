#ifndef SDS_TRACE_FILTER_H_
#define SDS_TRACE_FILTER_H_

#include <cstdint>

#include "trace/request.h"

namespace sds::trace {

/// \brief Counters from trace preprocessing.
struct FilterStats {
  uint64_t kept = 0;
  uint64_t dropped_not_found = 0;
  uint64_t dropped_script = 0;
  uint64_t canonicalized_alias = 0;
};

/// \brief The preprocessing rule the paper applied before analysis
/// (footnote 6), for one request: accesses to nonexistent documents and to
/// scripts ("live" documents) are dropped (returns false), and an access
/// to an alias of a document is renamed to the canonical document (`*r`
/// becomes kDocument). `stats` (optional) counts the outcome. FilterTrace,
/// FilteringCursor and the streaming workload drain all apply this rule.
inline bool CleanRequest(Request* r, FilterStats* stats = nullptr) {
  switch (r->kind) {
    case RequestKind::kNotFound:
      if (stats != nullptr) ++stats->dropped_not_found;
      return false;
    case RequestKind::kScript:
      if (stats != nullptr) ++stats->dropped_script;
      return false;
    case RequestKind::kAlias:
      r->kind = RequestKind::kDocument;
      if (stats != nullptr) ++stats->canonicalized_alias;
      [[fallthrough]];
    case RequestKind::kDocument:
      if (stats != nullptr) ++stats->kept;
      return true;
  }
  return false;
}

/// \brief Applies CleanRequest to every request of `raw` and returns the
/// cleaned trace (same order, same metadata); `stats` (optional) receives
/// the counters.
Trace FilterTrace(const Trace& raw, FilterStats* stats = nullptr);

}  // namespace sds::trace

#endif  // SDS_TRACE_FILTER_H_
