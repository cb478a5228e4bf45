#include "dissem/simulator.h"

#include <algorithm>

#include "dissem/allocation.h"
#include "dissem/classify.h"
#include "dissem/expfit.h"
#include "dissem/popularity.h"
#include "dissem/proxy.h"
#include "net/clientele_tree.h"
#include "net/placement.h"
#include "obs/audit.h"
#include "obs/flightrec.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/sim_time.h"

namespace sds::dissem {
namespace {

/// Knobs of PlacementStrategy::kProximity and of the proximity budget
/// split (DisseminationConfig::proximity_allocation).
constexpr net::ProximityPlacementConfig kProximityPlacement{};
constexpr ProximityAllocationConfig kProximityAllocation{};

/// Registers the dissemination flow edges once per process. Each side is
/// independently accumulated (see obs/audit.h): the replay entry counts
/// every evaluated request/byte as it arrives, the outcome branches count
/// where it landed, and Finish's derived eval_requests cross-checks them.
void RegisterDissemAuditInvariants() {
  static const bool once = [] {
    using obs::AuditKind;
    // Every replayed request lands in exactly one bucket of the failover
    // chain: a proxy hit, the home server, a shielding overflow absorbed
    // by the server, or unavailable.
    obs::RegisterAuditInvariant(
        "dissem.request_conservation", AuditKind::kEqual,
        {{"dissem.replayed_requests"}},
        {{"dissem.proxy_hits"},
         {"dissem.server_requests"},
         {"dissem.shielding_overflow_requests"},
         {"dissem.unavailable_requests"}});
    // Every replayed byte is served or lost with its request.
    obs::RegisterAuditInvariant(
        "dissem.byte_conservation", AuditKind::kEqual,
        {{"dissem.replayed_bytes"}},
        {{"dissem.served_bytes"}, {"dissem.unavailable_bytes"}});
    // Degraded traffic (failover past the primary) is a subset of all
    // with-proxies traffic.
    obs::RegisterAuditInvariant(
        "dissem.degraded_within_total", AuditKind::kLessOrEqual,
        {{"dissem.degraded_bytes_hops"}},
        {{"dissem.with_proxies_bytes_hops"}});
    // Finish derives eval_requests from the outcome buckets; the replay
    // entry counts arrivals. Agreement means no request was double- or
    // zero-counted between entry and outcome.
    obs::RegisterAuditInvariant(
        "dissem.eval_accounting", AuditKind::kEqual,
        {{"dissem.eval_requests"}}, {{"dissem.replayed_requests"}});
    return true;
  }();
  (void)once;
}

/// Stable string literal for the per-level proxy hit counter (level =
/// depth of the serving proxy in the topology tree). The counter names
/// must be literals (the registries key on pointer identity), hence the
/// fixed table; deeper trees collapse into the last bucket.
const char* ProxyHitLevelName(uint32_t depth) {
  switch (depth) {
    case 0:
      return "dissem.proxy_hits.level0";
    case 1:
      return "dissem.proxy_hits.level1";
    case 2:
      return "dissem.proxy_hits.level2";
    case 3:
      return "dissem.proxy_hits.level3";
    case 4:
      return "dissem.proxy_hits.level4";
    default:
      return "dissem.proxy_hits.level5plus";
  }
}

/// Same scheme for the per-level load-imbalance gauges (max/mean proxy
/// load among the proxies at one topology depth).
const char* ProxyLoadLevelName(uint32_t depth) {
  switch (depth) {
    case 0:
      return "dissem.load_imbalance.level0";
    case 1:
      return "dissem.load_imbalance.level1";
    case 2:
      return "dissem.load_imbalance.level2";
    case 3:
      return "dissem.load_imbalance.level3";
    case 4:
      return "dissem.load_imbalance.level4";
    default:
      return "dissem.load_imbalance.level5plus";
  }
}

std::vector<bool> MarkMutable(const trace::Corpus& corpus,
                              const std::vector<trace::UpdateEvent>* updates,
                              double observation_days) {
  std::vector<bool> is_mutable(corpus.size(), false);
  if (updates == nullptr || observation_days <= 0.0) return is_mutable;
  std::vector<double> rate(corpus.size(), 0.0);
  for (const auto& u : *updates) rate[u.doc] += 1.0;
  for (size_t i = 0; i < rate.size(); ++i) {
    is_mutable[i] = rate[i] / observation_days > kMutableUpdatesPerDay;
  }
  return is_mutable;
}

/// Fills a proxy with the most popular documents of `order` until the byte
/// budget runs out (skipping documents that do not fit, and mutable ones
/// when excluded).
void FillProxy(const trace::Corpus& corpus,
               const std::vector<trace::DocumentId>& order, double budget,
               bool exclude_mutable, const std::vector<bool>& is_mutable,
               ProxyStore* store) {
  for (const trace::DocumentId id : order) {
    if (exclude_mutable && is_mutable[id]) continue;
    const uint64_t size = corpus.doc(id).size_bytes;
    if (static_cast<double>(store->used_bytes() + size) > budget) continue;
    store->Insert(id, size);
  }
}

const net::FaultSchedule kNoFaults;

/// Fills `idx` with min(d, pool_size) distinct indices in [0, pool_size),
/// sampled without replacement by a partial Fisher-Yates shuffle. Makes
/// ZERO RNG draws when pool_size <= d (the sample is the whole pool), so
/// requests whose holder set fits in the sample consume no RNG state.
void SampleIndices(size_t pool_size, uint32_t d, Rng* rng,
                   std::vector<uint32_t>* idx) {
  idx->resize(pool_size);
  for (size_t i = 0; i < pool_size; ++i) (*idx)[i] = static_cast<uint32_t>(i);
  if (pool_size <= d) return;
  for (uint32_t i = 0; i < d; ++i) {
    const size_t j = i + rng->NextBounded(pool_size - i);
    std::swap((*idx)[i], (*idx)[j]);
  }
  idx->resize(d);
}

}  // namespace

DisseminationPreparer::DisseminationPreparer(const trace::Corpus& corpus,
                                             const net::Topology& topology,
                                             trace::ServerId server,
                                             double train_fraction,
                                             double span)
    : pop_builder_(corpus, server, 0.0, span * train_fraction),
      tree_builder_(topology, server) {
  SDS_CHECK(train_fraction > 0.0 && train_fraction < 1.0);
  prepared_.corpus = &corpus;
  prepared_.topology = &topology;
  prepared_.server = server;
  prepared_.train_fraction = train_fraction;
  prepared_.span = span;
  prepared_.split = span * train_fraction;
}

void DisseminationPreparer::OnRequest(const trace::Request& r) {
  pop_builder_.OnRequest(r);
  if (r.server != prepared_.server || !r.remote_client) return;
  if (r.kind == trace::RequestKind::kNotFound ||
      r.kind == trace::RequestKind::kScript) {
    return;
  }
  // Intern the attachment node; a time-ordered feed reproduces the batch
  // first-seen order (training requests first, then evaluation requests).
  const net::NodeId node = prepared_.topology->client_node(r.client);
  auto [it, inserted] = prepared_.node_index.emplace(
      node, static_cast<uint32_t>(prepared_.nodes.size()));
  if (inserted) prepared_.nodes.push_back(node);
  const uint32_t idx = it->second;
  if (r.time < prepared_.split) {
    tree_builder_.OnRequest(r);
    ++tailored_[(static_cast<uint64_t>(idx) << 32) | r.doc];
  } else {
    ++prepared_.eval_requests;
    prepared_.eval_bytes += static_cast<double>(r.bytes);
  }
}

PreparedDissemination DisseminationPreparer::Finish() {
  PreparedDissemination prepared = std::move(prepared_);
  prepared.pop = pop_builder_.Finish();
  if (prepared.pop.total_remote_requests == 0) {
    // Match the batch early exit: without remote training traffic there is
    // no tree, no routes, and no evaluation context.
    prepared.nodes.clear();
    prepared.node_index.clear();
    prepared.eval_requests = 0;
    prepared.eval_bytes = 0.0;
    return prepared;
  }
  prepared.tree = tree_builder_.Finish();
  prepared.server_node = prepared.topology->server_node(prepared.server);
  prepared.routes = net::RouteTable(*prepared.topology, prepared.server_node);
  prepared.tailored_counts.reserve(tailored_.size());
  for (const auto& [key, count] : tailored_) {
    prepared.tailored_counts.push_back(
        {static_cast<uint32_t>(key >> 32),
         static_cast<trace::DocumentId>(key & 0xffffffffu), count});
  }
  // The replay sums the counts into dense per-proxy arrays, so any order
  // works; sort for a deterministic context.
  std::sort(prepared.tailored_counts.begin(), prepared.tailored_counts.end(),
            [](const PreparedDissemination::TailoredCount& a,
               const PreparedDissemination::TailoredCount& b) {
              if (a.node != b.node) return a.node < b.node;
              return a.doc < b.doc;
            });
  return prepared;
}

PreparedDissemination PrepareDissemination(const trace::Corpus& corpus,
                                           const trace::Trace& trace,
                                           const net::Topology& topology,
                                           trace::ServerId server,
                                           double train_fraction) {
  DisseminationPreparer preparer(corpus, topology, server, train_fraction,
                                 trace.Span());
  for (const auto& r : trace.requests) preparer.OnRequest(r);
  PreparedDissemination prepared = preparer.Finish();
  prepared.trace = &trace;
  if (prepared.pop.total_remote_requests == 0) return prepared;

  // Batch replays index into the materialized trace; pre-filter the
  // evaluation window once.
  prepared.eval_index.reserve(prepared.eval_requests);
  prepared.eval_node.reserve(prepared.eval_requests);
  prepared.eval_day.reserve(prepared.eval_requests);
  DisseminationReplay::EvalRecord record;
  for (uint32_t idx = 0; idx < trace.requests.size(); ++idx) {
    if (!ToEvalRecord(prepared, trace.requests[idx], &record)) continue;
    prepared.eval_index.push_back(idx);
    prepared.eval_node.push_back(record.node);
    prepared.eval_day.push_back(record.day);
  }
  return prepared;
}

PreparedDissemination PrepareDisseminationStream(
    const trace::Corpus& corpus, const net::Topology& topology,
    trace::ServerId server, double train_fraction, double span,
    trace::RequestCursor* cursor) {
  cursor->Rewind();
  DisseminationPreparer preparer(corpus, topology, server, train_fraction,
                                 span);
  trace::ForEachRequest(
      cursor, [&](const trace::Request& r) { preparer.OnRequest(r); });
  return preparer.Finish();
}

std::vector<RoutePlan> BuildRoutePlans(
    const PreparedDissemination& prepared,
    const std::vector<net::NodeId>& proxies) {
  const size_t num_proxies = proxies.size();
  std::vector<RoutePlan> plans;
  plans.reserve(prepared.nodes.size());
  std::vector<bool> seen_on_route(num_proxies, false);
  for (const net::NodeId client_node : prepared.nodes) {
    RoutePlan plan;
    const auto& route = prepared.routes.route(client_node);
    plan.hops_to_server = static_cast<uint32_t>(route.size() - 1);
    std::fill(seen_on_route.begin(), seen_on_route.end(), false);
    // Walk the route client-to-server so on_route is nearest-first.
    for (uint32_t d = static_cast<uint32_t>(route.size()) - 1; d >= 1; --d) {
      for (size_t p = 0; p < num_proxies; ++p) {
        if (proxies[p] == route[d]) {
          plan.on_route.emplace_back(static_cast<int>(p),
                                     plan.hops_to_server - d);
          seen_on_route[p] = true;
        }
      }
    }
    if (!plan.on_route.empty()) {
      // The proxy *nearest the client*.
      plan.proxy_index = plan.on_route.front().first;
      plan.hops_to_proxy = plan.on_route.front().second;
    }
    for (size_t p = 0; p < num_proxies; ++p) {
      if (seen_on_route[p]) continue;
      plan.off_route.emplace_back(
          static_cast<int>(p),
          prepared.topology->HopCount(client_node, proxies[p]));
    }
    std::sort(plan.off_route.begin(), plan.off_route.end(),
              [](const std::pair<int, uint32_t>& a,
                 const std::pair<int, uint32_t>& b) {
                if (a.second != b.second) return a.second < b.second;
                return a.first < b.first;
              });
    plans.push_back(std::move(plan));
  }
  return plans;
}

net::PlacementResult PlaceProxies(const PreparedDissemination& prepared,
                                  const DisseminationConfig& config) {
  const net::ClienteleTree& tree = prepared.tree;
  switch (config.placement) {
    case PlacementStrategy::kGreedy:
      return config.placement_depths.empty()
                 ? net::GreedyPlacement(tree, config.num_proxies, 1.0)
                 : net::GreedyPlacementAtDepths(*prepared.topology, tree,
                                                config.num_proxies, 1.0,
                                                config.placement_depths);
    case PlacementStrategy::kProximity:
      return net::ProximityPlacement(tree, config.num_proxies, 1.0,
                                     kProximityPlacement);
  }
  SDS_CHECK(false) << "unknown placement strategy";
  return {};
}

bool ToEvalRecord(const PreparedDissemination& prepared,
                  const trace::Request& r,
                  DisseminationReplay::EvalRecord* record) {
  if (r.time < prepared.split) return false;
  if (r.server != prepared.server || !r.remote_client) return false;
  if (r.kind == trace::RequestKind::kNotFound ||
      r.kind == trace::RequestKind::kScript) {
    return false;
  }
  *record = {r.time,
             r.client,
             r.doc,
             r.bytes,
             prepared.node_index.at(prepared.topology->client_node(r.client)),
             static_cast<uint32_t>(DayOfTime(r.time))};
  return true;
}

DisseminationReplay::DisseminationReplay(
    const PreparedDissemination& prepared, const DisseminationConfig& config,
    Rng* rng, const std::vector<trace::UpdateEvent>* updates)
    : run_span_("dissem.simulate"),
      journey_("dissem"),
      prepared_(prepared),
      config_(config),
      rng_(rng),
      backoff_(config.retry),
      tracker_(0, config.protection.load),
      retry_budget_(config.protection.budget) {
  RegisterDissemAuditInvariants();
  SDS_CHECK(config.train_fraction == prepared.train_fraction)
      << "config/prepared training split mismatch";
  const trace::Corpus& corpus = *prepared.corpus;
  const double span = prepared.span;
  const double split = prepared.split;

  if (prepared.pop.total_remote_requests == 0) return;
  active_ = true;

  placement_ = PlaceProxies(prepared, config);
  result_.proxy_nodes = placement_.proxies;
  const size_t num_proxies = placement_.proxies.size();

  is_mutable_ = MarkMutable(corpus, updates, span / kDay);

  const double budget =
      config.dissemination_fraction *
      static_cast<double>(corpus.ServerBytes(prepared.server));

  // --- Route plans: one flat array indexed like prepared.nodes; the
  // per-request lookup is plans_[record.node]. ---
  plans_ = BuildRoutePlans(prepared, placement_.proxies);

  // --- Per-proxy byte budgets: equal shares by default; the proximity
  // allocator redistributes the same total by each proxy's intercepted
  // training demand discounted by its route distance from the server. ---
  std::vector<double> budgets(num_proxies, budget);
  if (config.proximity_allocation && num_proxies > 0) {
    std::vector<double> intercepted(num_proxies, 0.0);
    for (const auto& leaf : prepared.tree.leaves) {
      const auto it = prepared.node_index.find(leaf.node);
      if (it == prepared.node_index.end()) continue;
      const int p = plans_[it->second].proxy_index;
      if (p >= 0) intercepted[p] += static_cast<double>(leaf.bytes);
    }
    const ExponentialFit fit = FitExponentialPopularity(prepared.pop, corpus);
    // Degenerate fits (flat popularity, tiny corpora) fall back to a λ
    // that spends the budget at O(1) marginal value per byte.
    const double lambda =
        fit.lambda > 0.0 ? fit.lambda : 1.0 / std::max(1.0, budget);
    std::vector<ServerDemand> demands(num_proxies);
    std::vector<uint32_t> distances(num_proxies);
    for (size_t p = 0; p < num_proxies; ++p) {
      demands[p] = {intercepted[p], lambda};
      distances[p] = static_cast<uint32_t>(
          prepared.routes.route(placement_.proxies[p]).size() - 1);
    }
    budgets =
        AllocateProximity(demands, distances,
                          budget * static_cast<double>(num_proxies),
                          kProximityAllocation);
  }
  stores_.reserve(num_proxies);
  for (size_t p = 0; p < num_proxies; ++p) {
    stores_.emplace_back(static_cast<uint64_t>(budgets[p]) + 1, corpus.size());
  }

  // --- Dissemination contents. ---
  if (!config.tailored_per_proxy || num_proxies == 0) {
    for (size_t p = 0; p < num_proxies; ++p) {
      FillProxy(corpus, prepared.pop.by_popularity, budgets[p],
                config.exclude_mutable, is_mutable_, &stores_[p]);
    }
  } else {
    // Geographic tailoring (footnote 5): rank documents per proxy by the
    // training-window requests of the clients that proxy would intercept.
    // Dense per-proxy count arrays, filled from the prepared counts.
    std::vector<std::vector<uint64_t>> counts(
        num_proxies, std::vector<uint64_t>(corpus.size(), 0));
    for (const auto& tc : prepared.tailored_counts) {
      const int proxy = plans_[tc.node].proxy_index;
      if (proxy >= 0) counts[proxy][tc.doc] += tc.count;
    }
    for (size_t p = 0; p < num_proxies; ++p) {
      std::vector<trace::DocumentId> order;
      for (trace::DocumentId doc = 0; doc < corpus.size(); ++doc) {
        if (counts[p][doc] > 0) order.push_back(doc);
      }
      std::sort(order.begin(), order.end(),
                [&](trace::DocumentId a, trace::DocumentId b) {
                  const double da =
                      static_cast<double>(counts[p][a]) /
                      static_cast<double>(corpus.doc(a).size_bytes);
                  const double db =
                      static_cast<double>(counts[p][b]) /
                      static_cast<double>(corpus.doc(b).size_bytes);
                  if (da != db) return da > db;
                  return a < b;
                });
      FillProxy(corpus, order, budgets[p], config.exclude_mutable, is_mutable_,
                &stores_[p]);
    }
  }
  for (const auto& store : stores_) {
    result_.storage_per_proxy_bytes =
        std::max(result_.storage_per_proxy_bytes, store.used_bytes());
    result_.total_storage_bytes += store.used_bytes();
  }

  // --- Evaluation replay state. ---
  result_.proxy_requests.assign(num_proxies, 0);
  today_count_.assign(num_proxies, 0);

  // Staleness tracking: per-document day of the latest update applied so
  // far, against the day the proxy copies were last pushed.
  if (updates != nullptr) {
    for (const auto& u : *updates) {
      if (u.day >= updates_by_day_.size()) updates_by_day_.resize(u.day + 1);
      updates_by_day_[u.day].push_back(u.doc);
    }
  }
  last_update_day_.assign(corpus.size(), -1);
  dissemination_day_ = static_cast<long>(split / kDay);
  // Updates up to the dissemination day are already in the pushed copies.
  while (applied_day_ <= dissemination_day_) {
    if (static_cast<size_t>(applied_day_) < updates_by_day_.size()) {
      for (const trace::DocumentId doc : updates_by_day_[applied_day_]) {
        last_update_day_[doc] = applied_day_;
      }
    }
    ++applied_day_;
  }

  const bool faulty = config.faults != nullptr && !config.faults->empty();
  // The dynamic path (failover chain, retries, protections) also runs with
  // an empty schedule when any protection is armed, so emergent brownouts
  // can arise from load alone; with everything off it is never entered and
  // the replay is bit-identical to the pre-protection simulator.
  const net::ProtectionConfig& protection = config.protection;
  dynamic_ = faulty || protection.AnyArmed();
  faults_ = config.faults != nullptr ? config.faults : &kNoFaults;

  // --- Per-run protection state (never shared across sweep points: each
  // run constructs its own trackers, preserving parallel == serial
  // bit-identity). Entity ids: proxy p in [0, num_proxies), the home
  // server at index num_proxies. ---
  server_entity_ = num_proxies;
  tracker_ = net::LoadTracker(protection.track_load ? num_proxies + 1 : 0,
                              protection.load);
  // Breakers are per (client attachment node, target): an attempt can fail
  // because the *route* from that subnet is cut, not because the target is
  // sick, so a shared per-target breaker would let a black-holed subtree
  // open the healthy population's path to the server. Keying by attachment
  // node keeps the fail-fast local to the clients actually failing.
  if (protection.circuit_breakers) {
    breakers_.assign(prepared.nodes.size() * (num_proxies + 1),
                     net::CircuitBreaker(protection.breaker));
  }
  if (dynamic_) reach_.resize(prepared.nodes.size() * (num_proxies + 1));
  if (config.collect_service_times) {
    service_times_.reserve(prepared.eval_requests);
  }
}

bool DisseminationReplay::Reachable(uint32_t node, int proxy, SimTime when) {
  // A candidate is reachable when it and its node are up and every
  // node/link on the client's route to it is intact. Outages last hours
  // and a retry ladder minutes, so the schedule is asked once per window.
  // A window is exact for any time inside it, so attempts that run ahead
  // of the next request's time are answered correctly too.
  const size_t entity = proxy < 0 ? server_entity_ : static_cast<size_t>(proxy);
  Reach& reach = reach_[node * (server_entity_ + 1) + entity];
  if (reach.window.Contains(when)) return reach.up;
  const net::NodeId target =
      proxy < 0 ? prepared_.server_node : placement_.proxies[proxy];
  reach.window = net::Window();
  reach.up = (proxy >= 0 ||
              !faults_->ServerDown(prepared_.server, when, &reach.window)) &&
             !faults_->NodeDown(target, when, &reach.window) &&
             faults_->PathUp(*prepared_.topology, prepared_.nodes[node],
                             target, when, &reach.window);
  return reach.up;
}

double DisseminationReplay::ServiceTimeS(double waits, double bytes,
                                         uint32_t hops) const {
  // Service time of a served request: client-side waits plus service
  // overhead, transfer at the service rate, and per-hop propagation.
  constexpr double kHopLatencyS = 0.01;
  return waits + config_.protection.load.service_overhead_s +
         bytes / config_.protection.load.service_rate_bytes_per_s +
         kHopLatencyS * static_cast<double>(hops);
}

void DisseminationReplay::ApplyUpdatesThrough(long day) {
  while (applied_day_ <= day) {
    if (static_cast<size_t>(applied_day_) < updates_by_day_.size()) {
      for (const trace::DocumentId doc : updates_by_day_[applied_day_]) {
        last_update_day_[doc] = applied_day_;
      }
    }
    if (config_.redisseminate_every_days > 0 &&
        (applied_day_ - dissemination_day_) >=
            static_cast<long>(config_.redisseminate_every_days)) {
      dissemination_day_ = applied_day_;  // copies refreshed
    }
    ++applied_day_;
  }
}

void DisseminationReplay::OnRequest(size_t k, const EvalRecord& r) {
  if (!active_) return;
  const net::ProtectionConfig& protection = config_.protection;
  const net::RetryPolicy& retry = config_.retry;
  const size_t num_proxies = placement_.proxies.size();
  const bool track_load = protection.track_load;
  const bool breakers_armed = protection.circuit_breakers;
  const bool budget_armed = protection.retry_budget;
  const bool admission_armed = protection.admission_control && track_load;
  const size_t num_entities = num_proxies + 1;

  const long day = static_cast<long>(r.day);
  ApplyUpdatesThrough(day);
  if (config_.proxy_daily_request_capacity > 0 && day != today_) {
    today_ = day;
    std::fill(today_count_.begin(), today_count_.end(), 0);
  }
  const RoutePlan& plan = plans_[r.node];
  const size_t breaker_base = r.node * num_entities;
  const double bytes = static_cast<double>(r.bytes);
  // Independent entry-side accumulation for the audit ledger: every
  // request/byte counted here must land in exactly one outcome bucket.
  ++replayed_requests_;
  replayed_bytes_ += bytes;
  obs::TsCount("dissem.eval_requests", r.time);

  Outcome o;
  if (dynamic_) {
    // --- Baseline availability: a home-server-only client retrying the
    // server with the same policy. ---
    {
      SimTime when = r.time;
      bool served = Reachable(r.node, -1, when);
      for (uint32_t attempt = 1; !served && attempt < retry.max_attempts;
           ++attempt) {
        when += retry.timeout_s + backoff_.Before(attempt - 1, rng_);
        served = Reachable(r.node, -1, when);
      }
      if (served) {
        result_.baseline_bytes_hops += bytes * plan.hops_to_server;
      } else {
        ++result_.baseline_unavailable_requests;
      }
    }

    // --- With proxies: walk the failover chain with retries. ---
    // Chain: on-route proxies holding the document (nearest first), the
    // home server, then any other live replica by distance. A proxy past
    // its daily capacity is shielded out of the chain.
    std::vector<Candidate>& chain = chain_;
    chain.clear();
    bool capacity_blocked = false;
    const auto consider_into = [&](std::vector<Candidate>* list, int p,
                                   uint32_t hops, bool off_route) {
      if (!stores_[p].Contains(r.doc)) return;
      if (config_.proxy_daily_request_capacity > 0 &&
          today_count_[p] >= config_.proxy_daily_request_capacity) {
        capacity_blocked = true;
        return;
      }
      list->push_back({p, hops, off_route});
    };
    if (config_.selection_d >= 2) {
      // d-choice failover chain: sample up to d candidate holders no
      // farther than the server and lead with them least-loaded-first;
      // then the unsampled near holders (on-route first), the home
      // server, and the far replicas of last resort — so primary
      // selection spreads load while failover semantics stay intact.
      std::vector<Candidate>& pool = chain_pool_;
      std::vector<Candidate>& far = chain_far_;
      pool.clear();
      far.clear();
      for (const auto& [p, hops] : plan.on_route) {
        consider_into(&pool, p, hops, false);
      }
      for (const auto& [p, hops] : plan.off_route) {
        consider_into(hops <= plan.hops_to_server ? &pool : &far, p, hops,
                      true);
      }
      SampleIndices(pool.size(), config_.selection_d, rng_, &dchoice_idx_);
      std::vector<char>& taken = chain_taken_;
      taken.assign(pool.size(), 0);
      for (const uint32_t i : dchoice_idx_) {
        chain.push_back(pool[i]);
        taken[i] = 1;
      }
      std::sort(chain.begin(), chain.end(),
                [&](const Candidate& a, const Candidate& b) {
                  const uint64_t la = result_.proxy_requests[a.proxy];
                  const uint64_t lb = result_.proxy_requests[b.proxy];
                  if (la != lb) return la < lb;
                  if (a.hops != b.hops) return a.hops < b.hops;
                  return a.proxy < b.proxy;
                });
      for (size_t i = 0; i < pool.size(); ++i) {
        if (!taken[i] && !pool[i].off_route) chain.push_back(pool[i]);
      }
      chain.push_back({-1, plan.hops_to_server, false});
      for (size_t i = 0; i < pool.size(); ++i) {
        if (!taken[i] && pool[i].off_route) chain.push_back(pool[i]);
      }
      for (const auto& c : far) chain.push_back(c);
    } else {
      for (const auto& [p, hops] : plan.on_route) {
        consider_into(&chain, p, hops, false);
      }
      chain.push_back({-1, plan.hops_to_server, false});
      for (const auto& [p, hops] : plan.off_route) {
        consider_into(&chain, p, hops, true);
      }
    }
    const auto entity_of = [&](const Candidate& c) -> size_t {
      return c.proxy < 0 ? server_entity_ : static_cast<size_t>(c.proxy);
    };

    if (budget_armed) retry_budget_.RecordRequest(r.time);

    SimTime when = r.time;
    size_t pos = 0;
    o.served = false;
    for (uint32_t attempts = 0; attempts < retry.max_attempts;) {
      if (breakers_armed || admission_armed) {
        // Open breakers and admission-shed candidates reject instantly:
        // the client skips them without burning a timeout and — the
        // point of the defense — without charging overhead to the
        // struggling target. Shedding only diverts work that has
        // somewhere else to go: if every breaker-admissible candidate
        // shed this request, the nearest of them serves it as a last
        // resort instead of failing a client whose only remaining option
        // it is. A request with every candidate breaker-blocked fails
        // fast.
        size_t scanned = 0;
        size_t shed_skips = 0;
        int first_shed = -1;
        while (scanned < chain.size()) {
          const Candidate& c = chain[pos];
          const size_t entity = entity_of(c);
          if (breakers_armed &&
              !breakers_[breaker_base + entity].AllowRequest(when)) {
            ++scanned;
            pos = (pos + 1) % chain.size();
            continue;
          }
          if (admission_armed && c.off_route &&
              tracker_.UnderPressure(entity, when)) {
            if (first_shed < 0) first_shed = static_cast<int>(pos);
            ++shed_skips;
            ++scanned;
            pos = (pos + 1) % chain.size();
            continue;
          }
          break;
        }
        if (scanned == chain.size()) {
          if (first_shed < 0) {
            // Every candidate breaker-blocked. A request with no
            // alternative probes its first candidate once — an open
            // breaker must not hide a recovered target from a client
            // with nowhere else to go — and fails fast from the second
            // attempt on.
            if (attempts > 0) {
              o.fast_failed = true;
              break;
            }
          } else {
            pos = static_cast<size_t>(first_shed);
          }
        } else if (shed_skips > 0) {
          result_.shed_replica_requests += shed_skips;
          obs::TsCount("dissem.shed_replica_requests", when,
                       static_cast<double>(shed_skips));
        }
      }
      const Candidate& cand = chain[pos];
      const size_t entity = entity_of(cand);
      const bool reachable = Reachable(r.node, cand.proxy, when);
      // An entity in emergent brownout is alive but sheds everything:
      // attempts against it fail yet still cost it connection overhead,
      // which is exactly how retry storms pin a struggling target down.
      const bool overloaded = track_load && tracker_.Overloaded(entity, when);
      const bool up = reachable && !overloaded;
      ++attempts;
      if (up) {
        if (breakers_armed) breakers_[breaker_base + entity].RecordSuccess();
        if (track_load) tracker_.RecordService(entity, when, bytes);
        o.served = true;
        o.overflow = capacity_blocked;
        o.proxy = cand.proxy;
        o.hops = cand.hops;
        o.chain_depth = static_cast<uint32_t>(pos);
        break;
      }
      if (track_load && reachable) tracker_.RecordOverhead(entity, when);
      if (breakers_armed) breakers_[breaker_base + entity].RecordFailure(when);
      ++result_.retry_attempts;
      obs::TsCount("dissem.retry_attempts", when);
      ++o.retries;
      if (attempts < retry.max_attempts) {
        // The budget caps the tail of the backoff ladder, never a
        // request's first failover hop: retry #1 is what reaches the
        // second candidate, and suppressing it turns servable requests
        // into failures.
        if (budget_armed && o.retries > 1 && !retry_budget_.TryRetry(when)) {
          ++result_.retries_suppressed_by_budget;
          obs::TsCount("dissem.retries_suppressed_by_budget", when);
          result_.retry_wait_seconds += retry.timeout_s;
          o.backoff_s += retry.timeout_s;
          break;
        }
        const double wait =
            retry.timeout_s + backoff_.Before(attempts - 1, rng_);
        result_.retry_wait_seconds += wait;
        o.backoff_s += wait;
        when += wait;
      } else {
        result_.retry_wait_seconds += retry.timeout_s;
        o.backoff_s += retry.timeout_s;
      }
      pos = (pos + 1) % chain.size();
    }
  } else {
    result_.baseline_bytes_hops += bytes * plan.hops_to_server;

    // Which proxy serves, and at how many hops. Legacy (selection_d = 1):
    // the nearest on-route proxy iff it holds the document — no RNG draw.
    // d-choice (selection_d >= 2): sample up to d holders no farther than
    // the home server and serve from the least-loaded sampled holder.
    // Not the chain head: it picks farther holders and overflows differently.
    o.hops = plan.hops_to_server;
    if (config_.selection_d >= 2) {
      dchoice_pool_.clear();
      bool capacity_blocked = false;
      const auto consider = [&](int p, uint32_t hops) {
        if (!stores_[p].Contains(r.doc)) return;
        if (config_.proxy_daily_request_capacity > 0 &&
            today_count_[p] >= config_.proxy_daily_request_capacity) {
          capacity_blocked = true;
          return;
        }
        dchoice_pool_.emplace_back(p, hops);
      };
      for (const auto& [p, hops] : plan.on_route) consider(p, hops);
      for (const auto& [p, hops] : plan.off_route) {
        if (hops <= plan.hops_to_server) consider(p, hops);
      }
      if (!dchoice_pool_.empty()) {
        SampleIndices(dchoice_pool_.size(), config_.selection_d, rng_,
                      &dchoice_idx_);
        // Least-loaded sampled holder wins; ties break to fewer hops, then
        // the lower proxy index.
        int best = -1;
        uint32_t best_hops = 0;
        uint64_t best_load = 0;
        for (const uint32_t i : dchoice_idx_) {
          const auto& [p, hops] = dchoice_pool_[i];
          const uint64_t load = result_.proxy_requests[p];
          if (best < 0 || load < best_load ||
              (load == best_load &&
               (hops < best_hops || (hops == best_hops && p < best)))) {
            best = p;
            best_hops = hops;
            best_load = load;
          }
        }
        o.proxy = best;
        o.hops = best_hops;
      } else {
        o.overflow = capacity_blocked;
      }
    } else if (plan.proxy_index >= 0 &&
               stores_[plan.proxy_index].Contains(r.doc)) {
      if (config_.proxy_daily_request_capacity == 0 ||
          today_count_[plan.proxy_index] <
              config_.proxy_daily_request_capacity) {
        o.proxy = plan.proxy_index;
        o.hops = plan.hops_to_proxy;
      } else {
        o.overflow = true;
      }
    }
  }
  Record(k, r, o);
}

void DisseminationReplay::Record(size_t k, const EvalRecord& r,
                                 const Outcome& o) {
  const double bytes = static_cast<double>(r.bytes);
  if (!o.served) {
    if (o.fast_failed) ++result_.fast_failed_requests;
    ++result_.unavailable_requests;
    unavailable_bytes_ += bytes;
    obs::TsCount("dissem.unavailable_requests", r.time);
    obs::FlightRecord(k, "dissem.request",
                      o.fast_failed ? "fast_failed" : "unavailable", r.doc,
                      bytes);
  } else {
    if (dynamic_) {
      obs::Observe("dissem.failover_chain_depth",
                   static_cast<double>(o.chain_depth));
    }
    result_.served_bytes += bytes;
    if (config_.collect_service_times) {
      service_times_.push_back(ServiceTimeS(o.backoff_s, bytes, o.hops));
    }
    result_.with_proxies_bytes_hops += bytes * o.hops;
    obs::TsCount("dissem.with_proxies_bytes_hops", r.time, bytes * o.hops);
    if (o.chain_depth != 0) {
      ++result_.failover_requests;
      obs::TsCount("dissem.failover_requests", r.time);
      result_.degraded_bytes_hops += bytes * o.hops;
      obs::TsCount("dissem.degraded_bytes_hops", r.time, bytes * o.hops);
    }
    if (o.proxy >= 0) {
      ++today_count_[o.proxy];
      ++result_.proxy_requests[o.proxy];
      ++proxy_served_;
      obs::FlightRecord(k, "dissem.request", "proxy_hit", o.proxy, bytes);
      if (obs::Enabled()) {
        const char* level = ProxyHitLevelName(
            prepared_.topology->depth(placement_.proxies[o.proxy]));
        obs::Count(level);
        obs::TsCount(level, r.time);
        obs::TsCount("dissem.proxy_hits", r.time);
      }
      if (last_update_day_[r.doc] > dissemination_day_) {
        ++result_.stale_proxy_requests;
        obs::TsCount("dissem.stale_proxy_requests", r.time);
      }
    } else if (o.overflow) {
      // Shielding overflow: the proxy copy existed but the daily budget
      // was spent, so the home server absorbed the request. It stays out
      // of server_requests, so proxy + server + overflow + unavailable ==
      // evaluated requests.
      ++result_.shielding_overflow_requests;
      obs::TsCount("dissem.shielding_overflow_requests", r.time);
      obs::FlightRecord(k, "dissem.request", "overflow", r.doc, bytes);
    } else {
      ++result_.server_requests;
      obs::TsCount("dissem.server_requests", r.time);
      obs::FlightRecord(k, "dissem.request", "server", r.doc, bytes);
    }
  }
  if (!journey_.Sample(k)) return;
  obs::JourneyRecord j;
  j.request = k;
  j.time_s = r.time;
  j.client = r.client;
  j.doc = r.doc;
  j.served_by = !o.served     ? obs::kServedByNone
                : o.proxy >= 0 ? o.proxy
                               : obs::kServedByServer;
  j.retries = o.retries;
  j.backoff_s = o.backoff_s;
  if (o.served) {
    j.hops = o.hops;
    j.failover_depth = o.chain_depth;
    j.response_bytes = bytes;
  }
  journey_.Record(j);
}

DisseminationResult DisseminationReplay::Finish() {
  DisseminationResult result = std::move(result_);
  if (!active_) return result;
  uint64_t eval_requests = result.server_requests +
                           result.shielding_overflow_requests +
                           result.unavailable_requests;
  for (const uint64_t n : result.proxy_requests) eval_requests += n;
  result.proxy_hit_fraction =
      eval_requests == 0 ? 0.0
                         : static_cast<double>(proxy_served_) /
                               static_cast<double>(eval_requests);
  result.unavailable_fraction =
      eval_requests == 0
          ? 0.0
          : static_cast<double>(result.unavailable_requests) /
                static_cast<double>(eval_requests);
  result.baseline_unavailable_fraction =
      eval_requests == 0
          ? 0.0
          : static_cast<double>(result.baseline_unavailable_requests) /
                static_cast<double>(eval_requests);
  result.stale_fraction =
      proxy_served_ == 0
          ? 0.0
          : static_cast<double>(result.stale_proxy_requests) /
                static_cast<double>(proxy_served_);
  result.saved_fraction =
      result.baseline_bytes_hops <= 0.0
          ? 0.0
          : 1.0 - result.with_proxies_bytes_hops / result.baseline_bytes_hops;
  // Load imbalance across proxies (the d-choice headline metrics): how
  // far the hottest proxy sits above the mean per-proxy load.
  if (!result.proxy_requests.empty()) {
    const size_t n = result.proxy_requests.size();
    uint64_t max_load = 0;
    double sum = 0.0;
    for (const uint64_t v : result.proxy_requests) {
      max_load = std::max(max_load, v);
      sum += static_cast<double>(v);
    }
    const double mean = sum / static_cast<double>(n);
    if (mean > 0.0) {
      result.load_imbalance_max_mean = static_cast<double>(max_load) / mean;
      std::vector<uint64_t> sorted = result.proxy_requests;
      std::sort(sorted.begin(), sorted.end());
      // Nearest-rank p99: the ceil(0.99 n)-th smallest.
      const size_t rank = (99 * n + 99) / 100;
      result.load_imbalance_p99_mean =
          static_cast<double>(sorted[rank - 1]) / mean;
      // Per-topology-level imbalance among the proxies at each depth.
      uint32_t max_depth = 0;
      std::vector<uint32_t> depths(n, 0);
      for (size_t p = 0; p < n; ++p) {
        depths[p] = prepared_.topology->depth(result.proxy_nodes[p]);
        max_depth = std::max(max_depth, depths[p]);
      }
      result.per_level_imbalance.assign(max_depth + 1, 0.0);
      for (uint32_t level = 0; level <= max_depth; ++level) {
        uint64_t level_max = 0;
        double level_sum = 0.0;
        size_t level_count = 0;
        for (size_t p = 0; p < n; ++p) {
          if (depths[p] != level) continue;
          level_max = std::max(level_max, result.proxy_requests[p]);
          level_sum += static_cast<double>(result.proxy_requests[p]);
          ++level_count;
        }
        if (level_count > 0 && level_sum > 0.0) {
          result.per_level_imbalance[level] =
              static_cast<double>(level_max) /
              (level_sum / static_cast<double>(level_count));
        }
      }
    }
  }
  if (config_.protection.track_load) {
    result.emergent_brownouts = tracker_.emergent_brownouts();
  }
  for (const net::CircuitBreaker& b : breakers_) {
    result.breaker_open_transitions += b.open_transitions();
  }
  if (config_.collect_service_times && !service_times_.empty()) {
    double sum = 0.0;
    for (const double s : service_times_) sum += s;
    result.mean_service_s = sum / static_cast<double>(service_times_.size());
    const auto quantile = [&](double q) {
      const size_t idx = static_cast<size_t>(
          q * static_cast<double>(service_times_.size() - 1));
      std::nth_element(service_times_.begin(), service_times_.begin() + idx,
                       service_times_.end());
      return service_times_[idx];
    };
    result.p50_service_s = quantile(0.5);
    result.p99_service_s = quantile(0.99);
  }
  if (obs::Enabled()) {
    obs::Count("dissem.runs");
    obs::Count("dissem.eval_requests", static_cast<double>(eval_requests));
    // Conservation legs (audited edges; see RegisterDissemAuditInvariants).
    obs::Count("dissem.replayed_requests",
               static_cast<double>(replayed_requests_));
    obs::Count("dissem.replayed_bytes", replayed_bytes_);
    obs::Count("dissem.served_bytes", result.served_bytes);
    obs::Count("dissem.unavailable_bytes", unavailable_bytes_);
    obs::Count("dissem.server_requests",
               static_cast<double>(result.server_requests));
    obs::Count("dissem.shielding_overflow_requests",
               static_cast<double>(result.shielding_overflow_requests));
    obs::Count("dissem.failover_requests",
               static_cast<double>(result.failover_requests));
    obs::Count("dissem.degraded_bytes_hops", result.degraded_bytes_hops);
    obs::Count("dissem.unavailable_requests",
               static_cast<double>(result.unavailable_requests));
    obs::Count("dissem.retry_attempts",
               static_cast<double>(result.retry_attempts));
    obs::Count("dissem.emergent_brownouts",
               static_cast<double>(result.emergent_brownouts));
    obs::Count("dissem.breaker_open_transitions",
               static_cast<double>(result.breaker_open_transitions));
    obs::Count("dissem.retries_suppressed_by_budget",
               static_cast<double>(result.retries_suppressed_by_budget));
    obs::Count("dissem.shed_replica_requests",
               static_cast<double>(result.shed_replica_requests));
    obs::Count("dissem.stale_proxy_requests",
               static_cast<double>(result.stale_proxy_requests));
    obs::Count("dissem.proxy_hits", static_cast<double>(proxy_served_));
    obs::Count("dissem.with_proxies_bytes_hops",
               result.with_proxies_bytes_hops);
    // Per-proxy hit distribution: one sample per proxy, weighted samples
    // would hide empty proxies, so the sample *value* is the hit count.
    for (const uint64_t n : result.proxy_requests) {
      obs::Observe("dissem.proxy_requests", static_cast<double>(n));
    }
    obs::Observe("dissem.load_imbalance_max_mean",
                 result.load_imbalance_max_mean);
    obs::Observe("dissem.load_imbalance_p99_mean",
                 result.load_imbalance_p99_mean);
    for (size_t level = 0; level < result.per_level_imbalance.size();
         ++level) {
      if (result.per_level_imbalance[level] > 0.0) {
        obs::Observe(ProxyLoadLevelName(static_cast<uint32_t>(level)),
                     result.per_level_imbalance[level]);
      }
    }
    run_span_.AddBytes(result.with_proxies_bytes_hops);
  }
  return result;
}

DisseminationResult SimulateDissemination(
    const PreparedDissemination& prepared, const DisseminationConfig& config,
    Rng* rng, const std::vector<trace::UpdateEvent>* updates) {
  DisseminationReplay replay(prepared, config, rng, updates);
  const trace::Trace& trace = *prepared.trace;
  for (size_t k = 0; k < prepared.eval_index.size(); ++k) {
    const auto& r = trace.requests[prepared.eval_index[k]];
    replay.OnRequest(k, DisseminationReplay::EvalRecord{
                            r.time, r.client, r.doc, r.bytes,
                            prepared.eval_node[k], prepared.eval_day[k]});
  }
  return replay.Finish();
}

DisseminationResult SimulateDisseminationStream(
    const PreparedDissemination& prepared, const DisseminationConfig& config,
    Rng* rng, const std::vector<trace::UpdateEvent>* updates,
    trace::RequestCursor* cursor) {
  DisseminationReplay replay(prepared, config, rng, updates);
  size_t k = 0;
  ForEachEvalRecord(prepared, cursor,
                    [&](const auto& record) { replay.OnRequest(k++, record); });
  return replay.Finish();
}

}  // namespace sds::dissem
