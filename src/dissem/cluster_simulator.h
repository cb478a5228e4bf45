#ifndef SDS_DISSEM_CLUSTER_SIMULATOR_H_
#define SDS_DISSEM_CLUSTER_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "dissem/allocation.h"
#include "dissem/popularity.h"
#include "trace/corpus.h"
#include "trace/cursor.h"
#include "trace/request.h"
#include "util/sim_time.h"

namespace sds::dissem {

/// \brief How a cluster proxy's storage B_0 is divided among the home
/// servers it represents (§2.1-2.2).
enum class AllocationPolicy : uint8_t {
  /// The paper's optimum: closed-form exponential allocation (eqs. 4-5,
  /// KKT-clamped), driven by λ_i fits and R_i estimates from the logs.
  kOptimalExponential = 0,
  /// B_i = B_0 / n regardless of demand (eq. 8's symmetric split).
  kEqualSplit = 1,
  /// B_i proportional to R_i (demand-proportional heuristic).
  kProportionalToRate = 2,
  /// Non-parametric: globally rank all servers' documents by empirical
  /// request density and fill the proxy (fractional-knapsack optimum on
  /// the training data).
  kGreedyEmpirical = 3,
  /// Proximity-weighted optimum: AllocateProximity over
  /// `ClusterSimConfig::server_distances` — each server's demand is
  /// discounted by its route distance before the water-filling solve.
  /// With empty distances (all zero) this is kOptimalExponential exactly.
  kProximityWeighted = 4,
};

const char* AllocationPolicyToString(AllocationPolicy policy);

struct ClusterSimConfig {
  /// Proxy storage as a fraction of the cluster's total bytes.
  double proxy_storage_fraction = 0.10;
  /// λ/R estimated on the first train_fraction of the trace; the hit
  /// fraction is measured on the remainder.
  double train_fraction = 0.5;
  AllocationPolicy policy = AllocationPolicy::kOptimalExponential;
  /// Hop distance of each server from the proxy, for kProximityWeighted;
  /// empty = all zero (degenerates to the undiscounted optimum).
  std::vector<uint32_t> server_distances;
};

struct ClusterSimResult {
  /// Fraction of evaluated remote requests the proxy could serve
  /// (the measured α_C of eq. 1).
  double hit_fraction = 0.0;
  /// Byte-weighted variant (bandwidth shielded from the servers).
  double byte_hit_fraction = 0.0;
  /// Model-predicted α_C from the fitted exponential models (eq. 1 with
  /// H_i(B_i) = 1 - exp(-λ_i B_i)); comparable to hit_fraction.
  double predicted_hit_fraction = 0.0;
  /// Per-server byte allocation actually used.
  std::vector<double> allocation;
  /// Fitted demand parameters (for reporting).
  std::vector<double> rates;
  std::vector<double> lambdas;
  double total_storage = 0.0;
};

/// \brief What a cluster allocation study reads from the trace, gathered
/// once and shared by every (storage, policy) cell: per-server popularity
/// and fitted demand on the training window, and per-document remote
/// demand on the evaluation window.
struct PreparedCluster {
  /// Training split this context was prepared for (configs must match).
  double train_fraction = 0.0;
  std::vector<ServerPopularity> pops;
  std::vector<ServerDemand> demands;
  /// Evaluation window (time >= split, remote clients, document kinds):
  /// requests and bytes per document.
  std::vector<uint64_t> eval_requests;
  std::vector<uint64_t> eval_bytes;
};

/// \brief Builds the shared context from the stream: one training pass
/// (popularity and λ/R fits on the first `train_fraction` of `span`, the
/// time of the last request) and one evaluation pass.
PreparedCluster PrepareCluster(const trace::Corpus& corpus,
                               trace::RequestCursor* cursor, SimTime span,
                               double train_fraction);

/// \brief Trace-driven evaluation of proxy storage allocation for a
/// cluster: divide the proxy's storage per `policy` using the fitted
/// demand, disseminate each server's most popular documents into its
/// share, then measure the fraction of evaluation-window remote requests
/// the proxy can serve. Requires config.train_fraction ==
/// prepared.train_fraction.
ClusterSimResult SimulateClusterAllocation(const trace::Corpus& corpus,
                                           const PreparedCluster& prepared,
                                           const ClusterSimConfig& config);

/// \brief PrepareCluster and SimulateClusterAllocation over a trace.
ClusterSimResult SimulateClusterAllocation(const trace::Corpus& corpus,
                                           const trace::Trace& trace,
                                           const ClusterSimConfig& config);

}  // namespace sds::dissem

#endif  // SDS_DISSEM_CLUSTER_SIMULATOR_H_
