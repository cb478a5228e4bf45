#include "core/combined.h"

#include <unordered_map>

#include "dissem/popularity.h"
#include "dissem/proxy.h"
#include "net/clientele_tree.h"
#include "net/placement.h"
#include "spec/closure.h"
#include "spec/dependency.h"
#include "spec/policy.h"
#include "util/logging.h"

namespace sds::core {
namespace {

struct RoutePlan {
  int proxy_index = -1;
  uint32_t hops_to_proxy = 0;
  uint32_t hops_to_server = 0;
};

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

CombinedResult SimulateCombined(const Workload& workload,
                                const CombinedConfig& config, Rng* rng) {
  const auto& corpus = workload.corpus();
  const auto& trace = workload.clean();
  const auto& topology = workload.topology();
  const trace::ServerId server = 0;
  const double split = trace.Span() * config.dissemination.train_fraction;

  // --- Training: popularity, placement, dissemination, P*. ---
  const dissem::ServerPopularity pop =
      dissem::AnalyzeServer(corpus, trace, server, 0.0, split);
  trace::Trace train;
  train.num_clients = trace.num_clients;
  train.num_servers = trace.num_servers;
  for (const auto& r : trace.requests) {
    if (r.time < split) train.requests.push_back(r);
  }
  const net::ClienteleTree tree =
      net::BuildClienteleTree(topology, train, server);
  const net::PlacementResult placement =
      net::GreedyPlacement(tree, config.dissemination.num_proxies, 1.0);
  const size_t num_proxies = placement.proxies.size();

  const double budget = config.dissemination.dissemination_fraction *
                        static_cast<double>(corpus.ServerBytes(server));
  std::vector<dissem::ProxyStore> stores;
  for (size_t p = 0; p < num_proxies; ++p) {
    stores.emplace_back(static_cast<uint64_t>(budget) + 1);
  }
  for (auto& store : stores) {
    for (const trace::DocumentId id : pop.by_popularity) {
      const uint64_t size = corpus.doc(id).size_bytes;
      if (static_cast<double>(store.used_bytes() + size) > budget) continue;
      store.Insert(id, size);
    }
  }

  // A single-epoch model: P from the training window, P* rows on demand.
  const spec::ClosureEpoch model(
      spec::EstimateDependencies(trace, corpus.size(),
                                 config.speculation.dependency, 0.0, split),
      config.speculation.closure);
  spec::ClosureScratch scratch;

  std::unordered_map<net::NodeId, RoutePlan> plans;
  const net::NodeId server_node = topology.server_node(server);
  auto plan_for = [&](net::NodeId client_node) -> const RoutePlan& {
    auto it = plans.find(client_node);
    if (it != plans.end()) return it->second;
    RoutePlan plan;
    const auto route = topology.Route(server_node, client_node);
    plan.hops_to_server = static_cast<uint32_t>(route.size() - 1);
    for (uint32_t d = 1; d < route.size(); ++d) {
      for (size_t p = 0; p < num_proxies; ++p) {
        if (placement.proxies[p] == route[d]) {
          plan.proxy_index = static_cast<int>(p);
          plan.hops_to_proxy = plan.hops_to_server - d;
        }
      }
    }
    return plans.emplace(client_node, plan).first->second;
  };
  (void)rng;

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
    caches.reserve(trace.num_clients);
    for (uint32_t c = 0; c < trace.num_clients; ++c) {
      caches.emplace_back(config.speculation.cache);
    }
    for (const auto& r : trace.requests) {
      if (r.time < split) continue;
      if (r.server != server || !r.remote_client) continue;
      if (r.kind != trace::RequestKind::kDocument &&
          r.kind != trace::RequestKind::kAlias) {
        continue;
      }
      spec::ClientCache& cache = caches[r.client];
      cache.Touch(r.time);
      ++totals.client_requests;
      const double size = static_cast<double>(r.bytes);
      if (cache.Contains(r.doc)) {
        cache.MarkUsed(r.doc);
        ++totals.cache_hits;
        continue;
      }
      const RoutePlan& plan = plan_for(topology.client_node(r.client));
      // Who serves?
      int proxy = -1;
      if (combined && plan.proxy_index >= 0 &&
          stores[plan.proxy_index].Contains(r.doc)) {
        proxy = plan.proxy_index;
      }
      const uint32_t hops =
          proxy >= 0 ? plan.hops_to_proxy : plan.hops_to_server;
      if (proxy >= 0) {
        ++totals.proxy_requests;
      } else {
        ++totals.server_requests;
      }
      totals.bytes_hops += size * hops;
      totals.latency += Latency(config.speculation, size, hops);
      cache.Insert(r.doc, r.bytes, /*speculative=*/false);

      if (combined) {
        // The serving node pushes its speculation candidates; a proxy can
        // only push documents it holds.
        for (const auto& cand : SelectCandidates(
                 model.ClosureRow(r.doc, &scratch), corpus,
                 config.speculation.policy)) {
          if (cache.Contains(cand.doc)) continue;
          const bool proxy_has =
              proxy >= 0 && stores[proxy].Contains(cand.doc);
          if (proxy >= 0 && !proxy_has) continue;  // proxy can't push it
          const double cand_size =
              static_cast<double>(corpus.doc(cand.doc).size_bytes);
          totals.bytes_hops += cand_size * hops;
          cache.Insert(cand.doc, corpus.doc(cand.doc).size_bytes,
                       /*speculative=*/true);
        }
      }
    }
    return totals;
  };

  const Totals plain = replay(false);
  const Totals both = replay(true);

  CombinedResult result;
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
