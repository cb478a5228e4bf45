#include "dissem/cluster_simulator.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "dissem/allocation.h"
#include "dissem/expfit.h"
#include "dissem/popularity.h"
#include "util/logging.h"

namespace sds::dissem {

namespace {

/// Discount/cap knobs of AllocationPolicy::kProximityWeighted.
constexpr ProximityAllocationConfig kProximityAllocation{};

}  // namespace

const char* AllocationPolicyToString(AllocationPolicy policy) {
  switch (policy) {
    case AllocationPolicy::kOptimalExponential:
      return "optimal-exponential";
    case AllocationPolicy::kEqualSplit:
      return "equal-split";
    case AllocationPolicy::kProportionalToRate:
      return "proportional-to-rate";
    case AllocationPolicy::kGreedyEmpirical:
      return "greedy-empirical";
    case AllocationPolicy::kProximityWeighted:
      return "proximity-weighted";
  }
  return "?";
}

PreparedCluster PrepareCluster(const trace::Corpus& corpus,
                               trace::RequestCursor* cursor, SimTime span,
                               double train_fraction) {
  SDS_CHECK(train_fraction > 0.0 && train_fraction < 1.0);
  PreparedCluster prepared;
  prepared.train_fraction = train_fraction;
  const double split = span * train_fraction;
  const uint32_t n = corpus.num_servers();

  // --- Training: per-server popularity, λ and R. ---
  cursor->Rewind();
  prepared.pops = AnalyzeAllServers(corpus, cursor, 0.0, split);
  prepared.demands.resize(n);
  for (uint32_t s = 0; s < n; ++s) {
    const auto fit = FitExponentialPopularity(prepared.pops[s], corpus);
    prepared.demands[s] = {prepared.pops[s].remote_bytes_per_day, fit.lambda};
  }

  // --- Evaluation demand per document. ---
  prepared.eval_requests.assign(corpus.size(), 0);
  prepared.eval_bytes.assign(corpus.size(), 0);
  cursor->Rewind();
  trace::ForEachRequest(cursor, [&](const trace::Request& r) {
    if (r.time < split || !r.remote_client) return;
    if (r.kind != trace::RequestKind::kDocument &&
        r.kind != trace::RequestKind::kAlias) {
      return;
    }
    ++prepared.eval_requests[r.doc];
    prepared.eval_bytes[r.doc] += r.bytes;
  });
  return prepared;
}

ClusterSimResult SimulateClusterAllocation(const trace::Corpus& corpus,
                                           const PreparedCluster& prepared,
                                           const ClusterSimConfig& config) {
  SDS_CHECK(config.train_fraction == prepared.train_fraction);
  ClusterSimResult result;
  const uint32_t n = corpus.num_servers();
  const auto& pops = prepared.pops;
  const auto& demands = prepared.demands;
  result.rates.resize(n);
  result.lambdas.resize(n);
  for (uint32_t s = 0; s < n; ++s) {
    result.rates[s] = demands[s].rate;
    result.lambdas[s] = demands[s].lambda;
  }

  const double budget = config.proxy_storage_fraction *
                        static_cast<double>(corpus.TotalBytes());
  result.total_storage = budget;

  // --- Allocation per policy + dissemination set. ---
  std::unordered_set<trace::DocumentId> disseminated;
  auto fill_server = [&](uint32_t server, double bytes) {
    double used = 0.0;
    for (const trace::DocumentId id : pops[server].by_popularity) {
      if (pops[server].stats[id].remote_requests == 0) break;
      const double size = static_cast<double>(corpus.doc(id).size_bytes);
      if (used + size > bytes) continue;
      used += size;
      disseminated.insert(id);
    }
    return used;
  };

  result.allocation.assign(n, 0.0);
  if (config.policy == AllocationPolicy::kGreedyEmpirical) {
    const auto greedy = AllocateGreedyEmpirical(pops, corpus, budget);
    for (const trace::DocumentId id : greedy.docs) disseminated.insert(id);
    result.allocation = greedy.per_server_bytes;
  } else {
    std::vector<double> shares(n, 0.0);
    switch (config.policy) {
      case AllocationPolicy::kOptimalExponential:
        shares = AllocateExponential(demands, budget);
        break;
      case AllocationPolicy::kEqualSplit:
        shares.assign(n, budget / static_cast<double>(n));
        break;
      case AllocationPolicy::kProportionalToRate: {
        double total_rate = 0.0;
        for (const auto& d : demands) total_rate += d.rate;
        for (uint32_t s = 0; s < n; ++s) {
          shares[s] = total_rate <= 0.0
                          ? budget / n
                          : budget * demands[s].rate / total_rate;
        }
        break;
      }
      case AllocationPolicy::kProximityWeighted: {
        std::vector<uint32_t> distances = config.server_distances;
        distances.resize(n, 0);
        shares = AllocateProximity(demands, distances, budget,
                                   kProximityAllocation);
        break;
      }
      case AllocationPolicy::kGreedyEmpirical:
        break;  // handled above
    }
    for (uint32_t s = 0; s < n; ++s) {
      result.allocation[s] = fill_server(s, shares[s]);
    }
    // Model prediction for the chosen shares (eq. 1 under the fitted
    // exponential H_i).
    result.predicted_hit_fraction = HitFraction(demands, shares);
  }

  // --- Evaluation: fraction of remote requests the proxy can serve. ---
  const uint64_t requests = std::accumulate(
      prepared.eval_requests.begin(), prepared.eval_requests.end(),
      uint64_t{0});
  const uint64_t bytes = std::accumulate(
      prepared.eval_bytes.begin(), prepared.eval_bytes.end(), uint64_t{0});
  uint64_t hits = 0, hit_bytes = 0;
  for (const trace::DocumentId id : disseminated) {
    hits += prepared.eval_requests[id];
    hit_bytes += prepared.eval_bytes[id];
  }
  if (requests > 0) {
    result.hit_fraction =
        static_cast<double>(hits) / static_cast<double>(requests);
    result.byte_hit_fraction =
        static_cast<double>(hit_bytes) / static_cast<double>(bytes);
  }
  return result;
}

ClusterSimResult SimulateClusterAllocation(const trace::Corpus& corpus,
                                           const trace::Trace& trace,
                                           const ClusterSimConfig& config) {
  trace::VectorCursor cursor(&trace);
  return SimulateClusterAllocation(
      corpus,
      PrepareCluster(corpus, &cursor, trace.Span(), config.train_fraction),
      config);
}

}  // namespace sds::dissem
