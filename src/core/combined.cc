#include "core/combined.h"

#include <vector>

#include "dissem/proxy.h"
#include "spec/client_cache.h"
#include "spec/closure.h"
#include "spec/dependency.h"
#include "spec/policy.h"
#include "util/logging.h"

namespace sds::core {
namespace {

/// Latency of transferring `bytes` over `hops` network hops plus one
/// service: ServCost + CommCost x bytes x (1 + hops). The (1 + hops)
/// factor makes a same-subnet proxy strictly cheaper than a distant
/// server without ever being free.
double Latency(const spec::SpeculationConfig& config, double bytes,
               uint32_t hops) {
  return config.serv_cost +
         config.comm_cost * bytes * static_cast<double>(1 + hops);
}

}  // namespace

CombinedResult SimulateCombined(const dissem::PreparedDissemination& prepared,
                                const CombinedConfig& config,
                                trace::RequestCursor* cursor) {
  SDS_CHECK(config.dissemination.train_fraction == prepared.train_fraction)
      << "config/prepared training split mismatch";
  if (prepared.pop.total_remote_requests == 0) return CombinedResult{};
  const trace::Corpus& corpus = *prepared.corpus;

  // --- Training: placement, dissemination, P*. ---
  const std::vector<dissem::RoutePlan> plans = dissem::BuildRoutePlans(
      prepared, dissem::PlaceProxies(prepared, config.dissemination).proxies);

  // Every proxy holds the same most popular documents.
  const double budget =
      config.dissemination.dissemination_fraction *
      static_cast<double>(corpus.ServerBytes(prepared.server));
  dissem::ProxyStore store(static_cast<uint64_t>(budget) + 1, corpus.size());
  for (const trace::DocumentId id : prepared.pop.by_popularity) {
    const uint64_t size = corpus.doc(id).size_bytes;
    if (static_cast<double>(store.used_bytes() + size) > budget) continue;
    store.Insert(id, size);
  }

  // A single-epoch model: P from the training window, P* rows on demand.
  cursor->Rewind();
  const spec::ClosureEpoch model(
      spec::EstimateDependencies(cursor, corpus.size(),
                                 config.speculation.dependency, 0.0,
                                 prepared.split),
      config.speculation.closure);
  spec::ClosureScratch scratch;
  const spec::DocumentSizes sizes = spec::DocumentSizesOf(corpus);

  // --- Two replays over the evaluation window: plain and combined. ---
  struct Totals {
    double bytes_hops = 0.0;
    uint64_t server_requests = 0;
    uint64_t proxy_requests = 0;
    uint64_t cache_hits = 0;
    uint64_t client_requests = 0;
    double latency = 0.0;
  };
  auto replay = [&](bool combined) {
    Totals totals;
    std::vector<spec::ClientCache> caches;
    caches.reserve(cursor->num_clients());
    for (uint32_t c = 0; c < cursor->num_clients(); ++c) {
      caches.emplace_back(config.speculation.cache, &sizes);
    }
    dissem::ForEachEvalRecord(prepared, cursor, [&](const auto& r) {
      spec::ClientCache& cache = caches[r.client];
      cache.Touch(r.time);
      ++totals.client_requests;
      const double size = static_cast<double>(r.bytes);
      if (cache.Contains(r.doc)) {
        cache.MarkUsed(r.doc);
        ++totals.cache_hits;
        return;
      }
      const dissem::RoutePlan& plan = plans[r.node];
      // Who serves: the nearest on-route proxy when it holds the document.
      const bool from_proxy =
          combined && plan.proxy_index >= 0 && store.Contains(r.doc);
      const uint32_t hops =
          from_proxy ? plan.hops_to_proxy : plan.hops_to_server;
      ++(from_proxy ? totals.proxy_requests : totals.server_requests);
      totals.bytes_hops += size * hops;
      totals.latency += Latency(config.speculation, size, hops);
      cache.Insert(r.doc, /*speculative=*/false);
      if (!combined) return;

      // The serving node pushes its speculation candidates; a proxy can
      // only push documents it holds.
      for (const auto& cand :
           SelectCandidates(model.ClosureRow(r.doc, &scratch), corpus,
                            config.speculation.policy)) {
        if (cache.Contains(cand.doc)) continue;
        if (from_proxy && !store.Contains(cand.doc)) continue;
        totals.bytes_hops += static_cast<double>(sizes[cand.doc]) * hops;
        cache.Insert(cand.doc, /*speculative=*/true);
      }
    });
    return totals;
  };

  const Totals plain = replay(false);
  const Totals both = replay(true);

  CombinedResult result;
  result.requests_replayed = plain.client_requests + both.client_requests;
  if (plain.bytes_hops > 0.0) {
    result.bytes_hops_ratio = both.bytes_hops / plain.bytes_hops;
  }
  if (plain.server_requests > 0) {
    result.server_load_ratio =
        static_cast<double>(both.server_requests) /
        static_cast<double>(plain.server_requests);
  }
  if (plain.latency > 0.0 && plain.client_requests > 0 &&
      both.client_requests > 0) {
    result.service_time_ratio =
        (both.latency / static_cast<double>(both.client_requests)) /
        (plain.latency / static_cast<double>(plain.client_requests));
  }
  const uint64_t served = both.server_requests + both.proxy_requests;
  if (served > 0) {
    result.proxy_share = static_cast<double>(both.proxy_requests) /
                         static_cast<double>(served);
  }
  if (both.client_requests > 0) {
    result.cache_hit_share = static_cast<double>(both.cache_hits) /
                             static_cast<double>(both.client_requests);
  }
  return result;
}

}  // namespace sds::core
