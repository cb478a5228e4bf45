#ifndef SDS_CORE_COMBINED_H_
#define SDS_CORE_COMBINED_H_

#include <cstdint>

#include "dissem/simulator.h"
#include "spec/simulator.h"
#include "trace/cursor.h"
#include "util/rng.h"

namespace sds::core {

/// \brief Both protocols deployed together — the deployment the paper's
/// conclusion envisions. Dissemination decides *where* a document is
/// served from (nearest proxy holding it, else the home server);
/// speculative service decides *what else* rides along with each response.
/// Speculative pushes are priced at the hop distance of whoever serves
/// them, so pushing from a nearby proxy is cheaper than from the server —
/// the protocols compound instead of merely adding up.
struct CombinedConfig {
  dissem::DisseminationConfig dissemination;
  spec::SpeculationConfig speculation;
};

struct CombinedResult {
  /// bytes x hops over the evaluation window, relative to plain service
  /// (no proxies, no speculation, same client caches).
  double bytes_hops_ratio = 1.0;
  /// Requests reaching the *home server* relative to plain service
  /// (proxy-served requests and speculation hits both shed load).
  double server_load_ratio = 1.0;
  /// Mean retrieval latency ratio (hop-weighted comm cost + ServCost).
  double service_time_ratio = 1.0;
  /// Fraction of served (non-cache-hit) requests handled by a proxy.
  double proxy_share = 0.0;
  /// Fraction of client requests absorbed by the client cache.
  double cache_hit_share = 0.0;
  /// Client requests of both replays (plain and combined).
  uint64_t requests_replayed = 0;
};

/// \brief Replays the evaluation half of the trace under (a) plain
/// service and (b) dissemination + speculative service combined, and
/// reports the ratios. Training only ever sees the training half: the
/// prepared context of the push replay, placement by PlaceProxies and P
/// from the training window of `cursor`, which streams the trace the
/// context was prepared from and is rewound for each of its three passes.
CombinedResult SimulateCombined(const dissem::PreparedDissemination& prepared,
                                const CombinedConfig& config, Rng* rng,
                                trace::RequestCursor* cursor);

}  // namespace sds::core

#endif  // SDS_CORE_COMBINED_H_
