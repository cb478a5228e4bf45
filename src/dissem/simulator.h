#ifndef SDS_DISSEM_SIMULATOR_H_
#define SDS_DISSEM_SIMULATOR_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dissem/allocation.h"
#include "dissem/popularity.h"
#include "dissem/proxy.h"
#include "net/clientele_tree.h"
#include "net/faults.h"
#include "net/placement.h"
#include "net/route_table.h"
#include "net/topology.h"
#include "obs/journey.h"
#include "obs/trace.h"
#include "trace/corpus.h"
#include "trace/cursor.h"
#include "trace/request.h"
#include "util/rng.h"

namespace sds::dissem {

/// \brief How proxy sites are chosen on the clientele tree.
enum class PlacementStrategy : uint8_t {
  kGreedy = 0,    ///< Marginal-gain greedy on the clientele tree (ours).
  kRegional = 1,  ///< Highest-traffic regional (depth-1) nodes.
  kRandom = 2,    ///< Random interior nodes (control).
  /// Proximity-aware greedy (arXiv:1610.05961): candidate neighborhoods
  /// capped per leaf, gains discounted by client distance (the defaults of
  /// net::ProximityPlacementConfig).
  kProximity = 3,
};

/// \brief Configuration of a trace-driven dissemination experiment
/// (Figure 3 of the paper and its variants).
struct DisseminationConfig {
  /// Fraction of the server's total bytes to disseminate (the paper's
  /// Figure 3 uses 10% and 4%).
  double dissemination_fraction = 0.10;
  uint32_t num_proxies = 4;
  PlacementStrategy placement = PlacementStrategy::kGreedy;
  /// If non-empty, greedy placement only considers topology nodes at these
  /// depths (1 = regional, 2 = organisation, 3 = subnet); used for the
  /// multi-level hierarchy ablation.
  std::vector<uint32_t> placement_depths;
  /// If true, each proxy receives the documents most popular among *its
  /// own* downstream clients (the geographic tailoring of footnote 5)
  /// instead of the same globally popular set.
  bool tailored_per_proxy = false;
  /// If true, mutable documents (more than kMutableUpdatesPerDay updates
  /// a day) are not disseminated.
  bool exclude_mutable = false;
  /// Popularity (and placement) are estimated on the first
  /// `train_fraction` of the trace; the reported savings are measured on
  /// the remainder, so the protocol never sees the future.
  double train_fraction = 0.5;
  /// Dynamic shielding (§2.3): per-proxy request capacity per day; once a
  /// proxy exceeds it, further requests that day fall through to the home
  /// server. 0 disables the limit.
  uint64_t proxy_daily_request_capacity = 0;
  /// Refresh the disseminated copies every this many days (home servers
  /// re-push updated versions); 0 = disseminate once and never refresh.
  /// Only affects the staleness accounting below.
  uint32_t redisseminate_every_days = 0;
  /// Failure schedule overlaid on the evaluation replay (null or empty =
  /// fault-free, bit-identical to the pre-fault-injection simulator). Must
  /// outlive the call; shared read-only across sweep points.
  const net::FaultSchedule* faults = nullptr;
  /// Client recovery policy used when `faults` is active: the client walks
  /// its failover chain (nearest on-route proxy, further on-route proxies,
  /// home server, any other live replica) with one attempt per candidate,
  /// cycling until max_attempts is spent, backing off between attempts.
  net::RetryPolicy retry;
  /// Self-protection stack (docs/FAULTS.md "Cascades and self-protection"):
  /// `protection.track_load` arms the cascade engine (emergent, load-coupled
  /// brownouts of proxies and the server, where redirected failover and
  /// retry traffic counts toward the target's load); circuit breakers,
  /// retry budgets and admission control defend against the cascade. All
  /// off by default, leaving every existing replay bit-identical.
  net::ProtectionConfig protection;
  /// Collect per-served-request service times (waits + transfer) and fill
  /// the mean/p50/p99 summary fields of the result. Off by default: the
  /// collection allocates per run.
  bool collect_service_times = false;
  /// Power-of-d-choices replica selection (arXiv:1706.10209): at request
  /// time, sample up to `selection_d` candidate replica holders of the
  /// document (any holder no farther than the home server) from the
  /// per-point RNG and serve from the least-loaded by the per-proxy
  /// request counters. 1 = legacy nearest-on-route selection; the d = 1
  /// path makes ZERO extra RNG draws, so it stays bit-identical to the
  /// pre-d-choice replay. Under fault injection, the sampled holders lead
  /// the failover chain least-loaded-first.
  uint32_t selection_d = 1;
  /// If true, per-proxy storage budgets come from AllocateProximity over
  /// the proxies' training demand and route distance from the server
  /// (arXiv:1610.05961) instead of an equal `dissemination_fraction x
  /// server bytes` each; the total budget across proxies is unchanged.
  bool proximity_allocation = false;
};

/// \brief Outcome of one dissemination simulation.
struct DisseminationResult {
  /// bytes x hops on the evaluation window without / with proxies.
  double baseline_bytes_hops = 0.0;
  double with_proxies_bytes_hops = 0.0;
  /// 1 - with/baseline.
  double saved_fraction = 0.0;
  /// Fraction of evaluated remote requests served by a proxy.
  double proxy_hit_fraction = 0.0;
  /// Storage footprint.
  uint64_t storage_per_proxy_bytes = 0;
  uint64_t total_storage_bytes = 0;
  /// Load split (requests served) over the evaluation window.
  std::vector<uint64_t> proxy_requests;
  uint64_t server_requests = 0;
  /// Requests turned away by dynamic shielding (capacity exceeded).
  uint64_t shielding_overflow_requests = 0;
  /// Proxy-served requests whose document had been updated at the origin
  /// after the last (re-)dissemination: the consistency cost of pushing
  /// mutable documents (§2's rationale for excluding them).
  uint64_t stale_proxy_requests = 0;
  /// stale_proxy_requests / total proxy-served requests.
  double stale_fraction = 0.0;
  /// Chosen proxy sites.
  std::vector<net::NodeId> proxy_nodes;

  // --- Availability under fault injection (all zero when fault-free). ---
  /// Requests that exhausted the retry budget with proxies deployed.
  uint64_t unavailable_requests = 0;
  double unavailable_fraction = 0.0;
  /// Same requests replayed against the home server only (no proxies):
  /// the availability baseline dissemination is compared to.
  uint64_t baseline_unavailable_requests = 0;
  double baseline_unavailable_fraction = 0.0;
  /// Requests served by a candidate other than the client's primary
  /// (nearest on-route proxy holding the document, else the home server).
  uint64_t failover_requests = 0;
  /// bytes x hops of failover-served requests (degraded-mode traffic).
  double degraded_bytes_hops = 0.0;
  /// Failed attempts across all requests, and the backoff+timeout seconds
  /// they cost clients.
  uint64_t retry_attempts = 0;
  double retry_wait_seconds = 0.0;

  // --- Self-protection / cascade dynamics (all zero when unarmed). ---
  /// Load-triggered brownout transitions across proxies and the server
  /// (the cascade depth numerator).
  uint64_t emergent_brownouts = 0;
  /// Circuit-breaker transitions into the open state.
  uint64_t breaker_open_transitions = 0;
  /// Retries the budget refused (the client gave up instead of retrying).
  uint64_t retries_suppressed_by_budget = 0;
  /// Off-route replica requests rejected by admission control while the
  /// proxy was under load pressure.
  uint64_t shed_replica_requests = 0;
  /// Requests that failed fast because every failover candidate was
  /// breaker-open or admission-shed (subset of unavailable_requests).
  uint64_t fast_failed_requests = 0;
  /// Bytes of successfully served evaluated requests (goodput numerator).
  double served_bytes = 0.0;

  // --- Service-time summary over served requests; only filled when
  // config.collect_service_times. ---
  double mean_service_s = 0.0;
  double p50_service_s = 0.0;
  double p99_service_s = 0.0;

  // --- Load imbalance across proxies over the evaluation window (the
  // d-choice headline metrics; 1.0 = perfectly balanced, 0 when no proxy
  // served anything). ---
  /// max(proxy_requests) / mean(proxy_requests).
  double load_imbalance_max_mean = 0.0;
  /// Nearest-rank p99 of proxy_requests / mean(proxy_requests).
  double load_imbalance_p99_mean = 0.0;
  /// Per-topology-level max/mean over the proxies at that depth, indexed
  /// by depth (0 for levels with no proxies or no served requests).
  std::vector<double> per_level_imbalance;
};

/// \brief Routing of one client attachment node relative to a proxy set:
/// the proxy nearest to the client on its route and the hop splits, plus
/// the full failover ordering used under fault injection. (Exposed for the
/// route-plan micro-benchmarks.)
struct RoutePlan {
  int proxy_index = -1;         ///< -1: no proxy on the route.
  uint32_t hops_to_proxy = 0;   ///< client -> proxy.
  uint32_t hops_to_server = 0;  ///< client -> server (full route).
  /// Proxies on the client's route, nearest-to-client first.
  std::vector<std::pair<int, uint32_t>> on_route;
  /// Remaining proxies by hop distance from the client (replicas of last
  /// resort when the route to the home server is broken).
  std::vector<std::pair<int, uint32_t>> off_route;
};

/// \brief Immutable per-(corpus, trace, topology, server) context of the
/// dissemination simulation: everything a run needs that does not depend
/// on the config's proxy placement or budget. Built once per sweep
/// (PrepareDissemination) and shared read-only across every sweep point,
/// so per-point work is pure simulation instead of re-deriving popularity,
/// the clientele tree, routes and the eval-request filter each time.
struct PreparedDissemination {
  const trace::Corpus* corpus = nullptr;
  /// The materialized trace (batch path); null when the context was
  /// prepared from a request cursor (streaming path).
  const trace::Trace* trace = nullptr;
  const net::Topology* topology = nullptr;
  trace::ServerId server = 0;
  /// Training split this context was prepared for (configs must match).
  double train_fraction = 0.0;
  double span = 0.0;   ///< trace span (last request time)
  double split = 0.0;  ///< span * train_fraction
  ServerPopularity pop;
  net::ClienteleTree tree;
  net::NodeId server_node = net::kInvalidNode;
  /// Precomputed routes from the server's node to every topology node.
  net::RouteTable routes;
  /// Distinct client attachment nodes of this server's remote requesters,
  /// in first-seen trace order. RoutePlans are built per node.
  std::vector<net::NodeId> nodes;
  /// Attachment-node interning map behind `nodes` (node -> index); kept so
  /// streaming replays can map clients to plan indices.
  std::unordered_map<net::NodeId, uint32_t> node_index;
  /// Tailored-dissemination training observations, aggregated per (node
  /// index into `nodes`, doc): how many qualifying training requests that
  /// attachment node issued for the document.
  struct TailoredCount {
    uint32_t node = 0;
    trace::DocumentId doc = 0;
    uint64_t count = 0;
  };
  std::vector<TailoredCount> tailored_counts;
  /// Evaluation replay, pre-filtered (time >= split, this server, remote
  /// client, document kinds): request index into `trace`, plan index into
  /// `nodes`, and day, one entry per replayed request. Only filled on the
  /// batch path; streaming replays re-derive the stream per pass.
  std::vector<uint32_t> eval_index;
  std::vector<uint32_t> eval_node;
  std::vector<uint32_t> eval_day;
  /// Evaluation-window totals (filled on both paths; what the capacity
  /// calibrations need without touching eval_index).
  uint64_t eval_requests = 0;
  double eval_bytes = 0.0;
};

/// \brief Builds the shared context for SimulateDissemination runs over
/// one (corpus, trace, topology, server, train_fraction) tuple.
PreparedDissemination PrepareDissemination(const trace::Corpus& corpus,
                                           const trace::Trace& trace,
                                           const net::Topology& topology,
                                           trace::ServerId server,
                                           double train_fraction);

/// \brief Streaming form of PrepareDissemination: feed the whole trace one
/// request at a time (in time order, as a cursor yields it), then Finish().
/// `span` is the trace span (known up front on the streaming path, e.g.
/// from the workload's construction pass); resident state is O(corpus +
/// attachment nodes), independent of the trace length. PrepareDissemination
/// is implemented on this class, so both paths produce the identical
/// context (minus trace/eval_index, which only the batch path retains).
class DisseminationPreparer {
 public:
  DisseminationPreparer(const trace::Corpus& corpus,
                        const net::Topology& topology, trace::ServerId server,
                        double train_fraction, double span);

  void OnRequest(const trace::Request& r);

  /// Finalizes popularity, the clientele tree, routes and the tailored
  /// counts. The preparer is spent afterwards.
  PreparedDissemination Finish();

 private:
  PreparedDissemination prepared_;
  ServerPopularityBuilder pop_builder_;
  net::ClienteleTreeBuilder tree_builder_;
  /// (node index << 32 | doc) -> training request count.
  std::unordered_map<uint64_t, uint64_t> tailored_;
};

/// \brief One-pass streaming prepare: rewinds and drains the cursor
/// through a DisseminationPreparer.
PreparedDissemination PrepareDisseminationStream(
    const trace::Corpus& corpus, const net::Topology& topology,
    trace::ServerId server, double train_fraction, double span,
    trace::RequestCursor* cursor);

/// \brief Route plans for every prepared attachment node against a concrete
/// proxy placement, indexed like `prepared.nodes`.
std::vector<RoutePlan> BuildRoutePlans(const PreparedDissemination& prepared,
                                       const std::vector<net::NodeId>& proxies);

/// \brief The one placement switch (push, pull and combined replays): the
/// proxy sites of `config`'s strategy on the prepared clientele tree. Only
/// kRandom draws from `rng`.
net::PlacementResult PlaceProxies(const PreparedDissemination& prepared,
                                  const DisseminationConfig& config, Rng* rng);

/// \brief Trace-driven simulation of the dissemination protocol for one
/// home server over a prepared context: places proxies on its clientele
/// tree, disseminates the most popular `dissemination_fraction` of the
/// server's bytes, then replays the evaluation part counting bytes x hops
/// with and without the proxies. `updates` (optional) marks mutable
/// documents for exclude_mutable. Requires config.train_fraction ==
/// prepared.train_fraction.
DisseminationResult SimulateDissemination(
    const PreparedDissemination& prepared, const DisseminationConfig& config,
    Rng* rng, const std::vector<trace::UpdateEvent>* updates = nullptr);

/// \brief The evaluation replay of SimulateDissemination as an incremental
/// event consumer: construction does the placement, dissemination and
/// route planning; OnRequest() replays one evaluated request; Finish()
/// aggregates the result. SimulateDissemination is implemented on this
/// class, so feeding the identical evaluation stream (batch eval_index or
/// a cursor pass) produces bit-identical results. Resident state is
/// O(proxies x corpus + attachment nodes), independent of trace length —
/// several replays (different configs) can consume one streamed pass.
class DisseminationReplay {
 public:
  /// One evaluated request (the streaming form of the batch
  /// eval_index/eval_node/eval_day entry).
  struct EvalRecord {
    SimTime time = 0.0;
    trace::ClientId client = 0;
    trace::DocumentId doc = 0;
    uint32_t bytes = 0;
    uint32_t node = 0;  ///< Plan index into prepared.nodes.
    uint32_t day = 0;   ///< DayOfTime(time).
  };

  /// `prepared`, `config`, `rng` and `updates` must outlive the replay.
  DisseminationReplay(const PreparedDissemination& prepared,
                      const DisseminationConfig& config, Rng* rng,
                      const std::vector<trace::UpdateEvent>* updates);
  DisseminationReplay(const DisseminationReplay&) = delete;
  DisseminationReplay& operator=(const DisseminationReplay&) = delete;

  /// Replays evaluated request `k` (0-based ordinal in the evaluation
  /// stream). No-op when the prepared context saw no remote training
  /// traffic.
  void OnRequest(size_t k, const EvalRecord& r);

  /// Aggregates fractions/percentiles and emits run counters. The replay
  /// is spent afterwards.
  DisseminationResult Finish();

 private:
  /// Where one evaluated request went, as decided by the fault-free
  /// selection or the failover walk.
  struct Outcome {
    bool served = true;
    bool fast_failed = false;  ///< Unserved: every candidate was blocked.
    /// Home-served because a holder of the document was at its daily
    /// capacity (shielding overflow).
    bool overflow = false;
    int proxy = -1;  ///< Serving proxy, -1 = home server.
    uint32_t hops = 0;
    uint32_t chain_depth = 0;  ///< Failover-chain position that served.
    uint32_t retries = 0;
    double backoff_s = 0.0;
  };

  /// Whether `proxy` (-1 = home server, as in Candidate) is reachable at
  /// `when` from the attachment node of plan index `node`. Answers come
  /// from reach_ while `when` stays inside the entry's window.
  bool Reachable(uint32_t node, int proxy, SimTime when);
  double ServiceTimeS(double waits, double bytes, uint32_t hops) const;
  void ApplyUpdatesThrough(long day);
  /// The only writer of a request's outcome: result fields, time series,
  /// flight event and sampled journey.
  void Record(size_t k, const EvalRecord& r, const Outcome& o);

  obs::SpanGuard run_span_;
  obs::JourneyRun journey_;
  const PreparedDissemination& prepared_;
  const DisseminationConfig& config_;
  Rng* rng_;
  net::BackoffLadder backoff_;
  bool active_ = false;
  DisseminationResult result_;
  net::PlacementResult placement_;
  std::vector<bool> is_mutable_;
  std::vector<ProxyStore> stores_;
  std::vector<RoutePlan> plans_;
  std::vector<uint64_t> today_count_;
  long today_ = -1;
  std::vector<std::vector<trace::DocumentId>> updates_by_day_;
  std::vector<long> last_update_day_;
  long dissemination_day_ = 0;
  long applied_day_ = 0;
  uint64_t proxy_served_ = 0;
  /// Entry-side accumulators for the audit ledger (see the invariant
  /// registrations in simulator.cc): counted when a request enters
  /// OnRequest, independently of the outcome counters in result_.
  uint64_t replayed_requests_ = 0;
  double replayed_bytes_ = 0.0;
  double unavailable_bytes_ = 0.0;
  const net::FaultSchedule* faults_ = nullptr;
  bool dynamic_ = false;
  size_t server_entity_ = 0;
  net::LoadTracker tracker_;
  std::vector<net::CircuitBreaker> breakers_;
  /// A reachability answer and the window on which the schedule keeps it.
  struct Reach {
    net::Window window{0.0, 0.0};  ///< Empty until first asked.
    bool up = false;
  };
  /// One Reach per (attachment node, entity), laid out like breakers_;
  /// allocated only on the dynamic path. Per run, so the shared schedule
  /// stays read-only.
  std::vector<Reach> reach_;
  net::RetryBudget retry_budget_;
  std::vector<double> service_times_;
  /// d-choice scratch (candidate holders and sampled indices), reused
  /// across requests so the fault-free fast path stays allocation-free.
  std::vector<std::pair<int, uint32_t>> dchoice_pool_;
  std::vector<uint32_t> dchoice_idx_;
  /// One entry of the dynamic path's failover chain.
  struct Candidate {
    int proxy = -1;  ///< -1 = home server.
    uint32_t hops = 0;
    bool off_route = false;
  };
  /// Failover-chain scratch (the chain, the d-choice near pool and far
  /// replicas, and which pool entries were sampled), reused across
  /// requests so the faulted and protected paths stay allocation-free.
  std::vector<Candidate> chain_;
  std::vector<Candidate> chain_pool_;
  std::vector<Candidate> chain_far_;
  std::vector<char> chain_taken_;
};

/// \brief The shared evaluation filter: true, with `*record` filled, when `r`
/// is evaluated (time >= split, the context's server, a remote client, a
/// document kind). Requires `prepared.pop.total_remote_requests > 0`.
bool ToEvalRecord(const PreparedDissemination& prepared,
                  const trace::Request& r,
                  DisseminationReplay::EvalRecord* record);

/// \brief Rewinds `cursor` and calls `fn(record)` for each evaluated request
/// it streams, in order (the pull-through and combined replay loop).
template <typename Fn>
void ForEachEvalRecord(const PreparedDissemination& prepared,
                       trace::RequestCursor* cursor, Fn&& fn) {
  cursor->Rewind();
  DisseminationReplay::EvalRecord record;
  trace::ForEachRequest(cursor, [&](const trace::Request& r) {
    if (ToEvalRecord(prepared, r, &record)) fn(record);
  });
}

/// \brief One-pass streaming simulation: rewinds the cursor and replays
/// its evaluation-window requests (same filter as the prepared eval index)
/// through a DisseminationReplay. `prepared` may come from either prepare
/// path; results are bit-identical to the batch simulation when the cursor
/// streams the trace the context was prepared from.
DisseminationResult SimulateDisseminationStream(
    const PreparedDissemination& prepared, const DisseminationConfig& config,
    Rng* rng, const std::vector<trace::UpdateEvent>* updates,
    trace::RequestCursor* cursor);

}  // namespace sds::dissem

#endif  // SDS_DISSEM_SIMULATOR_H_
