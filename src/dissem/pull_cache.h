#ifndef SDS_DISSEM_PULL_CACHE_H_
#define SDS_DISSEM_PULL_CACHE_H_

#include <cstdint>
#include <vector>

#include "dissem/simulator.h"
#include "trace/cursor.h"
#include "trace/request.h"

namespace sds::dissem {

/// \brief Configuration of the demand-driven (pull-through) proxy-caching
/// baseline: the client-based replication strategy the paper contrasts
/// with server-initiated dissemination. Proxies start empty and cache
/// documents as misses flow through them, evicting LRU under a byte
/// budget.
struct PullCacheConfig {
  uint32_t num_proxies = 4;
  PlacementStrategy placement = PlacementStrategy::kGreedy;
  /// Per-proxy storage budget as a fraction of the server's total bytes
  /// (use the same value as DisseminationConfig::dissemination_fraction
  /// for an equal-storage comparison).
  double storage_fraction = 0.10;
};

/// \brief Outcome of a pull-through caching simulation.
struct PullCacheResult {
  double baseline_bytes_hops = 0.0;
  double with_proxies_bytes_hops = 0.0;
  double saved_fraction = 0.0;
  /// Fraction of evaluated remote requests served by a proxy cache hit.
  double proxy_hit_fraction = 0.0;
  uint64_t storage_per_proxy_bytes = 0;
  /// Cache insertions that evicted something (budget pressure).
  uint64_t evictions = 0;
  /// Cached copies dropped because the origin updated the document.
  uint64_t invalidations = 0;
  std::vector<net::NodeId> proxy_nodes;
};

/// \brief Trace-driven simulation of demand-driven proxy caching for one
/// home server over the prepared context of the push replay (same split,
/// tree, placement, route plans and evaluation filter), so the two are
/// directly comparable. `cursor` streams the trace the context was
/// prepared from. Each update in `updates` drops the cached copies of its
/// document at the end of its day; null means no invalidation.
PullCacheResult SimulatePullThroughCache(
    const PreparedDissemination& prepared, const PullCacheConfig& config,
    const std::vector<trace::UpdateEvent>* updates,
    trace::RequestCursor* cursor);

}  // namespace sds::dissem

#endif  // SDS_DISSEM_PULL_CACHE_H_
