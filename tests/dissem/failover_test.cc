#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/workload.h"
#include "dissem/simulator.h"
#include "net/faults.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace sds::dissem {
namespace {

// --- RetryPolicy unit tests -------------------------------------------------

TEST(RetryPolicyTest, BackoffIsExponentialAndCappedWithoutJitter) {
  net::RetryPolicy policy;
  policy.base_backoff_s = 1.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 60.0;
  policy.jitter = 0.0;
  const double expected[] = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0, 60.0};
  for (uint32_t i = 0; i < 8; ++i) {
    // jitter == 0 must not require (or consume) an Rng.
    EXPECT_DOUBLE_EQ(policy.BackoffBeforeRetry(i, nullptr), expected[i]) << i;
  }
}

TEST(RetryPolicyTest, JitterStaysInBoundsAndIsDeterministic) {
  net::RetryPolicy policy;
  policy.base_backoff_s = 2.0;
  policy.backoff_multiplier = 3.0;
  policy.max_backoff_s = 1000.0;
  policy.jitter = 0.25;
  Rng rng_a(99);
  Rng rng_b(99);
  bool saw_off_center = false;
  for (uint32_t i = 0; i < 6; ++i) {
    const double center = std::min(2.0 * std::pow(3.0, i), 1000.0);
    const double a = policy.BackoffBeforeRetry(i, &rng_a);
    const double b = policy.BackoffBeforeRetry(i, &rng_b);
    EXPECT_DOUBLE_EQ(a, b) << i;  // same stream, same backoff
    EXPECT_GE(a, center * 0.75) << i;
    EXPECT_LT(a, center * 1.25) << i;
    if (std::abs(a - center) > 1e-6 * center) saw_off_center = true;
  }
  EXPECT_TRUE(saw_off_center);
}

TEST(RetryPolicyTest, LadderMatchesTheLoopWithTheSameDraws) {
  net::RetryPolicy capped;  // 1, 2, 4, ... 32, then 60 from retry 6 on
  capped.max_attempts = 40;
  net::RetryPolicy jittered = capped;
  jittered.jitter = 0.3;
  net::RetryPolicy uncapped;  // multiplier 1 never reaches the cap
  uncapped.backoff_multiplier = 1.0;
  uncapped.max_attempts = 200;
  uncapped.jitter = 0.1;
  net::RetryPolicy above_cap;  // the base alone exceeds the cap
  above_cap.base_backoff_s = 90.0;
  net::RetryPolicy one_attempt;  // no retries: an empty ladder
  one_attempt.max_attempts = 1;
  one_attempt.base_backoff_s = 3.0;
  net::RetryPolicy odd;  // a multiplier whose products round
  odd.base_backoff_s = 0.3;
  odd.backoff_multiplier = 1.7;
  odd.max_backoff_s = 47.3;
  odd.jitter = 1.0;
  odd.max_attempts = 12;
  for (const net::RetryPolicy& policy :
       {capped, jittered, uncapped, above_cap, one_attempt, odd}) {
    const net::BackoffLadder ladder(policy);
    Rng loop_rng(7);
    Rng ladder_rng(7);
    // Past the attempts the policy allows too: the ladder stays exact.
    for (uint32_t i = 0; i < 250; ++i) {
      EXPECT_EQ(ladder.Before(i, &ladder_rng),
                policy.BackoffBeforeRetry(i, &loop_rng))
          << "retry " << i << ", jitter " << policy.jitter;
    }
    EXPECT_EQ(ladder_rng.Next(), loop_rng.Next());  // same draws
  }
}

// --- Failover ordering in the dissemination simulator -----------------------

class FailoverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new core::Workload(core::MakeWorkload(core::SmallConfig()));
    prepared_ = new PreparedDissemination(core::PrepareServer0(*workload_));
  }
  static void TearDownTestSuite() {
    delete prepared_;
    prepared_ = nullptr;
    delete workload_;
    workload_ = nullptr;
  }

  DisseminationResult Run(const DisseminationConfig& config,
                          uint64_t seed = 1) {
    Rng rng(seed);
    return core::SimulateServer0(*workload_, *prepared_, config, &rng);
  }

  /// A fault interval covering the whole trace (and its retry tail).
  std::pair<SimTime, SimTime> FullSpan() const {
    return {0.0, workload_->clean().Span() + 30 * kDay};
  }

  /// Runs the config with the audit ledger watching: request/byte
  /// conservation across the failover chain is asserted by the registered
  /// invariants (obs/audit.h) instead of an ad-hoc recount here. No-op
  /// pass-through when the obs layer is compiled out.
  DisseminationResult RunAudited(const DisseminationConfig& config,
                                 uint64_t seed = 1) {
    const bool was_enabled = obs::Enabled();
    obs::SetEnabled(true);
    obs::ResetMetrics();
    DisseminationResult result = Run(config, seed);
    for (const auto& v : obs::CheckAudit("failover_test")) {
      ADD_FAILURE() << v.ToString();
    }
    obs::SetEnabled(was_enabled);
    return result;
  }

  /// Requests landing in any outcome bucket; cross-run equality means two
  /// runs evaluated the same trace. (Within-run conservation is the audit
  /// ledger's job — see RunAudited.)
  static uint64_t TotalAccounted(const DisseminationResult& r) {
    uint64_t total = r.server_requests + r.shielding_overflow_requests +
                     r.unavailable_requests;
    for (const uint64_t n : r.proxy_requests) total += n;
    return total;
  }

  static core::Workload* workload_;
  static PreparedDissemination* prepared_;
};

core::Workload* FailoverTest::workload_ = nullptr;
PreparedDissemination* FailoverTest::prepared_ = nullptr;

TEST_F(FailoverTest, EmptyScheduleIsBitIdenticalToNoSchedule) {
  DisseminationConfig plain;
  plain.num_proxies = 4;
  const auto a = Run(plain);

  net::FaultSchedule empty;
  DisseminationConfig with_empty = plain;
  with_empty.faults = &empty;
  const auto b = Run(with_empty);

  EXPECT_DOUBLE_EQ(a.baseline_bytes_hops, b.baseline_bytes_hops);
  EXPECT_DOUBLE_EQ(a.with_proxies_bytes_hops, b.with_proxies_bytes_hops);
  EXPECT_DOUBLE_EQ(a.saved_fraction, b.saved_fraction);
  EXPECT_DOUBLE_EQ(a.proxy_hit_fraction, b.proxy_hit_fraction);
  EXPECT_EQ(a.server_requests, b.server_requests);
  EXPECT_EQ(a.proxy_requests, b.proxy_requests);
  EXPECT_EQ(b.unavailable_requests, 0u);
  EXPECT_EQ(b.failover_requests, 0u);
  EXPECT_EQ(b.retry_attempts, 0u);
  EXPECT_DOUBLE_EQ(b.retry_wait_seconds, 0.0);
}

TEST_F(FailoverTest, DeadProxyNodeShiftsItsLoadElsewhere) {
  DisseminationConfig plain;
  plain.num_proxies = 4;
  const auto healthy = RunAudited(plain);
  ASSERT_EQ(healthy.proxy_nodes.size(), 4u);

  // Kill the busiest proxy's node for the whole trace.
  size_t busiest = 0;
  for (size_t p = 1; p < healthy.proxy_requests.size(); ++p) {
    if (healthy.proxy_requests[p] > healthy.proxy_requests[busiest]) {
      busiest = p;
    }
  }
  ASSERT_GT(healthy.proxy_requests[busiest], 0u);
  const auto [start, end] = FullSpan();
  net::FaultSchedule schedule;
  schedule.Add({net::FaultKind::kNodeOutage, healthy.proxy_nodes[busiest],
                start, end});

  DisseminationConfig faulted = plain;
  faulted.faults = &schedule;
  faulted.retry.max_attempts = 6;
  const auto result = RunAudited(faulted);

  // The dead proxy serves nothing; its former requests fail over to other
  // replicas or the home server rather than vanishing.
  EXPECT_EQ(result.proxy_requests[busiest], 0u);
  EXPECT_GT(result.failover_requests, 0u);
  EXPECT_GT(result.retry_attempts, 0u);
  EXPECT_GT(result.retry_wait_seconds, 0.0);
  EXPECT_EQ(TotalAccounted(result), TotalAccounted(healthy));
}

TEST_F(FailoverTest, ProxiesServeThroughFullServerOutage) {
  const auto [start, end] = FullSpan();
  net::FaultSchedule schedule;
  schedule.Add({net::FaultKind::kServerOutage, 0, start, end});

  DisseminationConfig config;
  config.num_proxies = 8;
  config.dissemination_fraction = 0.10;
  config.faults = &schedule;
  config.retry.max_attempts = 6;
  const auto result = Run(config);

  // Without proxies every request is unavailable; with them the
  // disseminated share of traffic is still served.
  EXPECT_DOUBLE_EQ(result.baseline_unavailable_fraction, 1.0);
  EXPECT_GT(result.unavailable_fraction, 0.0);
  EXPECT_LT(result.unavailable_fraction,
            result.baseline_unavailable_fraction);
  EXPECT_EQ(result.server_requests, 0u);
  uint64_t proxy_total = 0;
  for (const uint64_t n : result.proxy_requests) proxy_total += n;
  EXPECT_GT(proxy_total, 0u);
}

TEST_F(FailoverTest, TotalOutageMakesEverythingUnavailable) {
  const auto [start, end] = FullSpan();
  net::FaultSchedule schedule;
  schedule.Add({net::FaultKind::kServerOutage, 0, start, end});
  const auto& topo = workload_->topology();
  for (net::NodeId n = 1; n < topo.num_nodes(); ++n) {
    schedule.Add({net::FaultKind::kNodeOutage, n, start, end});
  }

  DisseminationConfig config;
  config.num_proxies = 4;
  config.faults = &schedule;
  const auto result = Run(config);

  EXPECT_DOUBLE_EQ(result.unavailable_fraction, 1.0);
  EXPECT_DOUBLE_EQ(result.baseline_unavailable_fraction, 1.0);
  EXPECT_DOUBLE_EQ(result.with_proxies_bytes_hops, 0.0);
  EXPECT_EQ(result.server_requests, 0u);
  for (const uint64_t n : result.proxy_requests) EXPECT_EQ(n, 0u);
}

TEST_F(FailoverTest, FaultReplayIsDeterministicInSeed) {
  net::FaultSchedule schedule;
  const auto [start, end] = FullSpan();
  // A mid-trace server outage plus a cut regional link exercise both the
  // baseline retry loop and the failover chain.
  schedule.Add({net::FaultKind::kServerOutage, 0, end * 0.25, end * 0.5});
  schedule.Add({net::FaultKind::kLinkOutage, 1, end * 0.1, end * 0.2});

  DisseminationConfig config;
  config.num_proxies = 4;
  config.faults = &schedule;
  config.retry.jitter = 0.2;  // jitter draws come from the passed-in Rng
  const auto a = Run(config, 7);
  const auto b = Run(config, 7);
  EXPECT_DOUBLE_EQ(a.with_proxies_bytes_hops, b.with_proxies_bytes_hops);
  EXPECT_DOUBLE_EQ(a.retry_wait_seconds, b.retry_wait_seconds);
  EXPECT_EQ(a.unavailable_requests, b.unavailable_requests);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_EQ(a.proxy_requests, b.proxy_requests);
}

TEST_F(FailoverTest, RetryLadderAcrossAnOutageStartIsPinned) {
  // A hand-built replay: one remote client, one document, one proxy at the
  // client's own attachment node. Request A's retry ladder crosses the
  // start of a server outage; request B arrives before A's last attempt,
  // so its queries run behind A's in time; request C lands exactly on the
  // end of the proxy's outage. With max_attempts 4, a 5 s timeout and a
  // 1/2/4 s backoff, a ladder from t tries at t, t+6, t+13 and t+22.
  const trace::Corpus& corpus = workload_->corpus();
  const net::Topology& topo = workload_->topology();
  const net::NodeId server_node = topo.server_node(0);
  trace::ClientId client = 0;
  while (topo.HopCount(topo.client_node(client), server_node) < 3) {
    ++client;
    ASSERT_LT(client, topo.num_clients());
  }
  const net::NodeId client_node = topo.client_node(client);
  const trace::DocumentId doc = corpus.server_docs(0).front();
  constexpr uint32_t kBytes = 1000;
  constexpr SimTime kT = 1000.0;

  trace::Trace trace;
  trace.num_clients = workload_->num_clients();
  for (const SimTime t : {10.0, 20.0, 30.0, kT, kT + 8.0, kT + 40.0}) {
    trace.requests.push_back({t, client, doc, 0, kBytes,
                              trace::RequestKind::kDocument, true});
  }
  const PreparedDissemination prepared =
      PrepareDissemination(corpus, trace, topo, 0, 0.5);
  ASSERT_EQ(prepared.eval_requests, 3u);

  DisseminationConfig config;
  config.num_proxies = 1;
  config.dissemination_fraction = 1.0;
  config.collect_service_times = true;
  config.retry.max_attempts = 4;
  config.retry.timeout_s = 5.0;
  config.retry.base_backoff_s = 1.0;
  config.retry.backoff_multiplier = 2.0;
  ASSERT_EQ(PlaceProxies(prepared, config).proxies,
            std::vector<net::NodeId>{client_node});

  // The proxy node is down on [T-50, T+40) (the client's own node, which
  // its route to the server does not check). The server is down on
  // [T+3, T+10), then the top edge of the route is cut on [T+10, T+22).
  const std::vector<net::NodeId> route = topo.Route(client_node, server_node);
  const net::NodeId top = topo.depth(route[route.size() - 2]) >
                                  topo.depth(route.back())
                              ? route[route.size() - 2]
                              : route.back();
  net::FaultSchedule schedule;
  schedule.Add({net::FaultKind::kNodeOutage, client_node, kT - 50.0,
                kT + 40.0});
  schedule.Add({net::FaultKind::kServerOutage, 0, kT + 3.0, kT + 10.0});
  schedule.Add({net::FaultKind::kLinkOutage, top, kT + 10.0, kT + 22.0});
  config.faults = &schedule;

  Rng rng(1);
  const DisseminationResult r = SimulateDissemination(prepared, config, &rng);

  // Baseline (server only): A is served at T; B fails at T+8 (server),
  // T+14 and T+21 (link) and is served at T+30; C is served at T+40.
  // Chain [proxy, server]: A fails at T (proxy), T+6 (server), T+13
  // (proxy) and is served by the server at T+22; B fails at T+8, T+14
  // (link), T+21 and is served by the server at T+30; C is served by the
  // proxy at T+40.
  const double hops = topo.HopCount(client_node, server_node);
  const double b = kBytes;
  EXPECT_DOUBLE_EQ(r.baseline_bytes_hops, 3 * b * hops);
  EXPECT_DOUBLE_EQ(r.with_proxies_bytes_hops, 2 * b * hops);
  EXPECT_DOUBLE_EQ(r.saved_fraction, 1.0 - 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.proxy_hit_fraction, 1.0 / 3.0);
  // A dissemination fraction of 1 pushes the server's whole corpus.
  EXPECT_EQ(r.storage_per_proxy_bytes, corpus.ServerBytes(0));
  EXPECT_EQ(r.total_storage_bytes, corpus.ServerBytes(0));
  EXPECT_EQ(r.proxy_requests, std::vector<uint64_t>{1});
  EXPECT_EQ(r.server_requests, 2u);
  EXPECT_EQ(r.shielding_overflow_requests, 0u);
  EXPECT_EQ(r.stale_proxy_requests, 0u);
  EXPECT_DOUBLE_EQ(r.stale_fraction, 0.0);
  EXPECT_EQ(r.proxy_nodes, std::vector<net::NodeId>{client_node});
  EXPECT_EQ(r.unavailable_requests, 0u);
  EXPECT_DOUBLE_EQ(r.unavailable_fraction, 0.0);
  EXPECT_EQ(r.baseline_unavailable_requests, 0u);
  EXPECT_DOUBLE_EQ(r.baseline_unavailable_fraction, 0.0);
  EXPECT_EQ(r.failover_requests, 2u);
  EXPECT_DOUBLE_EQ(r.degraded_bytes_hops, 2 * b * hops);
  EXPECT_EQ(r.retry_attempts, 6u);
  EXPECT_DOUBLE_EQ(r.retry_wait_seconds, 44.0);
  EXPECT_EQ(r.emergent_brownouts, 0u);
  EXPECT_EQ(r.breaker_open_transitions, 0u);
  EXPECT_EQ(r.retries_suppressed_by_budget, 0u);
  EXPECT_EQ(r.shed_replica_requests, 0u);
  EXPECT_EQ(r.fast_failed_requests, 0u);
  EXPECT_DOUBLE_EQ(r.served_bytes, 3 * b);
  // Service time = waits + 0.05 s overhead + bytes at 1.5 MB/s + 10 ms
  // per hop: A and B waited 22 s each, C not at all, at zero hops.
  const double transfer = 0.05 + b / 1.5e6;
  const double slow = 22.0 + transfer + 0.01 * hops;
  EXPECT_DOUBLE_EQ(r.mean_service_s, (2 * slow + transfer) / 3.0);
  EXPECT_DOUBLE_EQ(r.p50_service_s, slow);
  EXPECT_DOUBLE_EQ(r.p99_service_s, slow);
  EXPECT_DOUBLE_EQ(r.load_imbalance_max_mean, 1.0);
  EXPECT_DOUBLE_EQ(r.load_imbalance_p99_mean, 1.0);
  std::vector<double> levels(topo.depth(client_node) + 1, 0.0);
  levels.back() = 1.0;
  EXPECT_EQ(r.per_level_imbalance, levels);
}

// --- Self-protection stack and cascade dynamics -----------------------------

class ProtectionTest : public FailoverTest {
 protected:
  /// A load-tracker calibration knob: serving the full request stream
  /// through a single target costs `solo_load` busy-seconds per wall
  /// second. The replay only covers the evaluation half of the trace split
  /// across all targets, so per-entity utilization is a fraction of
  /// `solo_load`; raise it until the busiest windows cross the brownout
  /// threshold.
  net::LoadTrackerConfig TightLoad(double solo_load = 1.25) const {
    const double span = workload_->clean().Span();
    const double n = static_cast<double>(workload_->clean().size());
    net::LoadTrackerConfig load;
    load.window_s = 12.0 * 3600.0;
    load.brownout_duration_s = 4.0 * 3600.0;
    load.utilization_threshold = 0.75;
    load.admission_threshold = 0.55;
    load.service_overhead_s = solo_load * span / n;
    load.service_rate_bytes_per_s = 1e12;  // bytes negligible here
    return load;
  }
};

TEST_F(ProtectionTest, UnarmedProtectionIsBitIdenticalUnderFaults) {
  // A default ProtectionConfig must not change the faulted replay at all:
  // same control flow, same RNG consumption, same numbers.
  net::FaultSchedule schedule;
  const auto [start, end] = FullSpan();
  schedule.Add({net::FaultKind::kServerOutage, 0, end * 0.2, end * 0.4});
  schedule.Add({net::FaultKind::kLinkOutage, 2, end * 0.5, end * 0.6});

  DisseminationConfig config;
  config.num_proxies = 4;
  config.faults = &schedule;
  config.retry.jitter = 0.2;
  const auto a = Run(config, 11);
  DisseminationConfig with_protection = config;
  with_protection.protection = net::ProtectionConfig{};
  const auto b = Run(with_protection, 11);

  EXPECT_EQ(a.unavailable_requests, b.unavailable_requests);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_DOUBLE_EQ(a.retry_wait_seconds, b.retry_wait_seconds);
  EXPECT_DOUBLE_EQ(a.with_proxies_bytes_hops, b.with_proxies_bytes_hops);
  EXPECT_EQ(a.proxy_requests, b.proxy_requests);
  EXPECT_EQ(b.emergent_brownouts, 0u);
  EXPECT_EQ(b.breaker_open_transitions, 0u);
  EXPECT_EQ(b.retries_suppressed_by_budget, 0u);
  EXPECT_EQ(b.shed_replica_requests, 0u);
}

TEST_F(ProtectionTest, CoolTrackerLeavesFaultFreeReplayUnchanged) {
  // Armed but generously provisioned: the tracker observes the whole
  // fault-free replay without tripping, and every pre-existing metric is
  // bit-identical to the plain run.
  DisseminationConfig plain;
  plain.num_proxies = 4;
  const auto a = Run(plain);

  DisseminationConfig tracked = plain;
  tracked.protection.track_load = true;
  tracked.protection.load.service_overhead_s = 1e-9;
  tracked.protection.load.service_rate_bytes_per_s = 1e15;
  const auto b = Run(tracked);

  EXPECT_DOUBLE_EQ(a.with_proxies_bytes_hops, b.with_proxies_bytes_hops);
  EXPECT_DOUBLE_EQ(a.saved_fraction, b.saved_fraction);
  EXPECT_EQ(a.server_requests, b.server_requests);
  EXPECT_EQ(a.proxy_requests, b.proxy_requests);
  EXPECT_EQ(b.unavailable_requests, 0u);
  EXPECT_EQ(b.emergent_brownouts, 0u);
}

TEST_F(ProtectionTest, RetryStormPinsServerAndProtectionsContainIt) {
  // Calibrate the home server close to — but under — the brownout
  // threshold; a bursty window tips it over. No scheduled fault exists: the
  // overload is emergent. From then on the unprotected population's retries
  // charge overhead against the browned-out server faster than a window
  // can drain, so the brownout re-arms indefinitely and every server-only
  // document becomes unavailable. The protected population opens its
  // breakers instead of hammering, the server cools down between episodes,
  // and service resumes.
  DisseminationConfig unprotected;
  unprotected.num_proxies = 2;
  unprotected.retry.max_attempts = 6;
  unprotected.protection.track_load = true;
  unprotected.protection.load = TightLoad(8.0);
  const auto off = RunAudited(unprotected);
  ASSERT_GT(off.emergent_brownouts, 0u);
  ASSERT_GT(off.unavailable_requests, 0u);

  DisseminationConfig protected_config = unprotected;
  protected_config.protection.circuit_breakers = true;
  protected_config.protection.breaker.failure_threshold = 3;
  // Cooldown long enough that half-open probes from every client subnet
  // cannot by themselves keep a 12h window above the trip threshold.
  protected_config.protection.breaker.cooldown_s = 6.0 * 3600.0;
  protected_config.protection.retry_budget = true;
  protected_config.protection.admission_control = true;
  const auto on = RunAudited(protected_config);

  // The full stack contains the cascade: strictly better availability,
  // strictly fewer retry attempts (storms are cut off), and no more
  // brownout episodes than the unprotected run.
  EXPECT_LT(on.unavailable_requests, off.unavailable_requests);
  EXPECT_LT(on.retry_attempts, off.retry_attempts);
  EXPECT_LE(on.emergent_brownouts, off.emergent_brownouts);
  EXPECT_GT(on.breaker_open_transitions, 0u);
  EXPECT_EQ(TotalAccounted(on), TotalAccounted(off));
}

TEST_F(ProtectionTest, AdmissionControlShedsOffRouteReplicaService) {
  // With the home server down for the whole trace, non-disseminated
  // traffic leans on off-route replicas; an admission threshold of zero
  // sheds all of that low-priority service once a target has any load.
  const auto [start, end] = FullSpan();
  net::FaultSchedule schedule;
  schedule.Add({net::FaultKind::kServerOutage, 0, start, end});

  DisseminationConfig config;
  config.num_proxies = 8;
  config.faults = &schedule;
  config.retry.max_attempts = 6;
  config.protection.track_load = true;
  config.protection.load.service_overhead_s = 1e-9;
  config.protection.load.service_rate_bytes_per_s = 1e15;
  config.protection.load.admission_threshold = 0.0;
  config.protection.admission_control = true;
  const auto shed = Run(config);
  EXPECT_GT(shed.shed_replica_requests, 0u);

  DisseminationConfig no_admission = config;
  no_admission.protection.admission_control = false;
  const auto open = Run(no_admission);
  EXPECT_EQ(open.shed_replica_requests, 0u);
  // Shedding off-route service trades availability for proxy headroom.
  EXPECT_GE(shed.unavailable_requests, open.unavailable_requests);
}

TEST_F(ProtectionTest, RetryBudgetSuppressesStormRetries) {
  const auto [start, end] = FullSpan();
  net::FaultSchedule schedule;
  schedule.Add({net::FaultKind::kServerOutage, 0, end * 0.25, end * 0.75});

  DisseminationConfig config;
  config.num_proxies = 2;
  config.faults = &schedule;
  config.retry.max_attempts = 6;
  const auto unbudgeted = Run(config);
  ASSERT_GT(unbudgeted.retry_attempts, 0u);

  DisseminationConfig budgeted = config;
  budgeted.protection.retry_budget = true;
  budgeted.protection.budget.max_retry_ratio = 0.0;
  budgeted.protection.budget.min_retries_per_window = 0;
  const auto result = Run(budgeted);

  // A zero budget suppresses every retry: each failed request costs one
  // attempt instead of a storm.
  EXPECT_GT(result.retries_suppressed_by_budget, 0u);
  EXPECT_LT(result.retry_attempts, unbudgeted.retry_attempts);
  EXPECT_EQ(result.emergent_brownouts, 0u);  // tracker not armed
}

TEST_F(ProtectionTest, OpenBreakersFailFastWithoutBurningTimeouts) {
  const auto [start, end] = FullSpan();
  net::FaultSchedule schedule;
  schedule.Add({net::FaultKind::kServerOutage, 0, start, end});
  const auto& topo = workload_->topology();
  for (net::NodeId n = 1; n < topo.num_nodes(); ++n) {
    schedule.Add({net::FaultKind::kNodeOutage, n, start, end});
  }

  DisseminationConfig config;
  config.num_proxies = 4;
  config.faults = &schedule;
  config.retry.max_attempts = 6;
  const auto raw = Run(config);
  ASSERT_DOUBLE_EQ(raw.unavailable_fraction, 1.0);

  DisseminationConfig braked = config;
  braked.protection.circuit_breakers = true;
  braked.protection.breaker.failure_threshold = 1;
  braked.protection.breaker.cooldown_s = 1e12;  // never probes again
  const auto result = Run(braked);

  // Everything is still unavailable, but after the breakers open the
  // chain is skipped outright: far fewer attempts and wait seconds.
  EXPECT_DOUBLE_EQ(result.unavailable_fraction, 1.0);
  EXPECT_GT(result.fast_failed_requests, 0u);
  EXPECT_GT(result.breaker_open_transitions, 0u);
  EXPECT_LT(result.retry_attempts, raw.retry_attempts);
  EXPECT_LT(result.retry_wait_seconds, raw.retry_wait_seconds);
}

TEST_F(ProtectionTest, ServiceTimeSummaryOnlyWhenCollected) {
  DisseminationConfig config;
  config.num_proxies = 4;
  const auto off = Run(config);
  EXPECT_DOUBLE_EQ(off.mean_service_s, 0.0);
  EXPECT_DOUBLE_EQ(off.p99_service_s, 0.0);

  config.collect_service_times = true;
  const auto on = Run(config);
  EXPECT_GT(on.mean_service_s, 0.0);
  EXPECT_GT(on.p50_service_s, 0.0);
  EXPECT_GE(on.p99_service_s, on.p50_service_s);
  EXPECT_GT(on.served_bytes, 0.0);
  // Collection must not perturb the replay itself.
  EXPECT_DOUBLE_EQ(on.with_proxies_bytes_hops, off.with_proxies_bytes_hops);
  EXPECT_EQ(on.proxy_requests, off.proxy_requests);
}

}  // namespace
}  // namespace sds::dissem
