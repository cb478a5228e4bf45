#include "spec/simulator.h"

#include <gtest/gtest.h>

#include <bit>

#include "core/experiments.h"
#include "core/workload.h"

namespace sds::spec {
namespace {

class SpecSimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new core::Workload(core::MakeWorkload(core::SmallConfig()));
    sim_ = new SpeculationSimulator(&workload_->corpus(), &workload_->clean());
  }
  static void TearDownTestSuite() {
    delete sim_;
    delete workload_;
    sim_ = nullptr;
    workload_ = nullptr;
  }

  static SpeculationConfig Baseline(double tp = 0.25) {
    SpeculationConfig config = core::BaselineSpecConfig();
    config.policy.threshold = tp;
    return config;
  }

  static core::Workload* workload_;
  static SpeculationSimulator* sim_;
};

core::Workload* SpecSimTest::workload_ = nullptr;
SpeculationSimulator* SpecSimTest::sim_ = nullptr;

TEST_F(SpecSimTest, BaselineRunAccountsEveryRequest) {
  SpeculationConfig config = Baseline();
  config.mode = ServiceMode::kNone;
  const RunTotals totals = sim_->Run(config);
  size_t clean_docs = 0;
  for (const auto& r : workload_->clean().requests) {
    if (r.kind == trace::RequestKind::kDocument ||
        r.kind == trace::RequestKind::kAlias) {
      ++clean_docs;
    }
  }
  EXPECT_EQ(totals.client_requests, clean_docs);
  EXPECT_EQ(totals.speculative_docs_sent, 0u);
  EXPECT_DOUBLE_EQ(totals.speculative_bytes, 0.0);
  EXPECT_LE(totals.server_requests, totals.client_requests);
}

TEST_F(SpecSimTest, NoCacheBaselineEveryRequestHitsServer) {
  SpeculationConfig config = Baseline();
  config.mode = ServiceMode::kNone;
  config.cache.session_timeout = 0.0;
  const RunTotals totals = sim_->Run(config);
  EXPECT_EQ(totals.server_requests, totals.client_requests);
  EXPECT_DOUBLE_EQ(totals.miss_bytes, totals.requested_bytes);
  EXPECT_DOUBLE_EQ(totals.bytes_sent, totals.requested_bytes);
}

TEST_F(SpecSimTest, SpeculationReducesLoadAtSomeTrafficCost) {
  const SpeculationMetrics m = sim_->Evaluate(Baseline(0.25));
  EXPECT_LT(m.server_load_ratio, 1.0);
  EXPECT_LT(m.service_time_ratio, 1.0);
  EXPECT_LT(m.miss_rate_ratio, 1.0);
  EXPECT_GE(m.bandwidth_ratio, 1.0);
}

TEST_F(SpecSimTest, ThresholdMonotonicity) {
  // Lower Tp -> more speculation -> no less traffic and no more load.
  const SpeculationMetrics strict = sim_->Evaluate(Baseline(0.8));
  const SpeculationMetrics loose = sim_->Evaluate(Baseline(0.2));
  EXPECT_GE(loose.bandwidth_ratio, strict.bandwidth_ratio - 1e-6);
  EXPECT_LE(loose.server_load_ratio, strict.server_load_ratio + 1e-6);
}

TEST_F(SpecSimTest, EmbeddingOnlySpeculationNearlyFree) {
  // Tp = 1 pushes only certain successors; traffic increase must be tiny
  // (the paper: sending embedded documents cannot waste bandwidth).
  const SpeculationMetrics m = sim_->Evaluate(Baseline(1.0));
  EXPECT_LT(m.extra_traffic, 0.05);
  EXPECT_LE(m.server_load_ratio, 1.0);
}

TEST_F(SpecSimTest, CooperativeClientsNeverUseMoreBandwidth) {
  SpeculationConfig blind = Baseline(0.2);
  SpeculationConfig coop = blind;
  coop.cooperative_clients = true;
  const RunTotals blind_run = sim_->Run(blind);
  const RunTotals coop_run = sim_->Run(coop);
  EXPECT_LE(coop_run.bytes_sent, blind_run.bytes_sent);
  // Same or fewer misses (the cooperative server still pushes everything
  // useful).
  EXPECT_LE(coop_run.server_requests, blind_run.server_requests + 5);
}

TEST_F(SpecSimTest, MaxSizeReducesTraffic) {
  SpeculationConfig unlimited = Baseline(0.2);
  SpeculationConfig limited = unlimited;
  limited.policy.max_size = 8 * 1024;
  const RunTotals u = sim_->Run(unlimited);
  const RunTotals l = sim_->Run(limited);
  EXPECT_LT(l.speculative_bytes, u.speculative_bytes);
}

TEST_F(SpecSimTest, UpdateCycleStalenessDegrades) {
  SpeculationConfig fresh = Baseline(0.25);
  fresh.update_cycle_days = 1;
  SpeculationConfig stale = Baseline(0.25);
  stale.update_cycle_days = 10;  // trace is only 14 days long
  const SpeculationMetrics f = sim_->Evaluate(fresh);
  const SpeculationMetrics s = sim_->Evaluate(stale);
  EXPECT_LE(f.server_load_ratio, s.server_load_ratio + 0.02);
}

TEST_F(SpecSimTest, RawPVersusClosure) {
  SpeculationConfig closure = Baseline(0.3);
  SpeculationConfig raw = closure;
  raw.use_closure = false;
  const RunTotals c = sim_->Run(closure);
  const RunTotals r = sim_->Run(raw);
  // The closure dominates P entrywise, so it speculates at least as much.
  EXPECT_GE(c.speculative_docs_sent, r.speculative_docs_sent);
}

TEST_F(SpecSimTest, ClientPrefetchIssuesPrefetchRequests) {
  SpeculationConfig config = Baseline(0.25);
  config.mode = ServiceMode::kClientPrefetch;
  // Profiles can only help against a cache that forgets; with an infinite
  // multi-session cache everything the profile knows is already cached.
  config.cache.session_timeout = kHour;
  const RunTotals totals = sim_->Run(config);
  EXPECT_GT(totals.prefetch_requests, 0u);
  EXPECT_EQ(totals.speculative_docs_sent, totals.prefetch_requests);
}

TEST_F(SpecSimTest, HybridPushesLessThanFullSpeculation) {
  SpeculationConfig full = Baseline(0.25);
  full.cache.session_timeout = kHour;
  SpeculationConfig hybrid = full;
  hybrid.mode = ServiceMode::kHybrid;
  const RunTotals f = sim_->Run(full);
  const RunTotals h = sim_->Run(hybrid);
  // The hybrid's pushes are restricted to near-certain documents; its
  // remaining speculation comes from client prefetching.
  EXPECT_LT(h.speculative_bytes - h.prefetch_requests * 0.0,
            f.speculative_bytes * 1.5);
  EXPECT_GT(h.prefetch_requests, 0u);
}

TEST_F(SpecSimTest, ServerHintsNeverSendDuplicateBytes) {
  SpeculationConfig push = Baseline(0.25);
  SpeculationConfig hints = push;
  hints.mode = ServiceMode::kServerHints;
  const RunTotals p = sim_->Run(push);
  const RunTotals h = sim_->Run(hints);
  // Hints are client-filtered, so they can never push a cached document:
  // no wasted duplicate bytes, less total traffic than blind push.
  EXPECT_LE(h.bytes_sent, p.bytes_sent + 1e-6);
  // But every accepted hint is a separate server request.
  EXPECT_GT(h.prefetch_requests, 0u);
  EXPECT_GT(h.server_requests, p.server_requests);
  // Same candidates reach the cache either way: miss bytes match closely.
  EXPECT_NEAR(h.miss_bytes / p.miss_bytes, 1.0, 0.1);
}

TEST_F(SpecSimTest, DecayEstimatorComparableToWindow) {
  SpeculationConfig window = Baseline(0.25);
  SpeculationConfig decay = window;
  decay.estimator = SpeculationConfig::EstimatorKind::kExponentialDecay;
  decay.decay_per_day = 0.9;
  const SpeculationMetrics w = sim_->Evaluate(window);
  const SpeculationMetrics d = sim_->Evaluate(decay);
  // The aged estimator must deliver speculation of similar quality on a
  // short trace (both see essentially the same history).
  EXPECT_LT(d.server_load_ratio, 1.0);
  EXPECT_NEAR(d.server_load_ratio, w.server_load_ratio, 0.1);
}

TEST_F(SpecSimTest, SpeculativeHitsAreCounted) {
  const RunTotals totals = sim_->Run(Baseline(0.25));
  EXPECT_GT(totals.speculative_hits, 0u);
  EXPECT_LE(totals.speculative_hits, totals.speculative_docs_sent);
}

TEST_F(SpecSimTest, DeterministicAcrossRuns) {
  const RunTotals a = sim_->Run(Baseline(0.3));
  const RunTotals b = sim_->Run(Baseline(0.3));
  EXPECT_EQ(a.server_requests, b.server_requests);
  EXPECT_DOUBLE_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_DOUBLE_EQ(a.total_latency, b.total_latency);
}

TEST_F(SpecSimTest, MetricsRatiosConsistent) {
  const SpeculationMetrics m = sim_->Evaluate(Baseline(0.3));
  EXPECT_NEAR(m.bandwidth_ratio,
              m.with_speculation.bytes_sent /
                  m.without_speculation.bytes_sent,
              1e-12);
  EXPECT_NEAR(m.extra_traffic, m.bandwidth_ratio - 1.0, 1e-12);
}

// --- Self-protection stack (docs/FAULTS.md "Cascades and self-protection").

// A capacity model tight enough that the eval-window request rate alone
// trips the admission threshold: `solo_load` busy-seconds of service per
// wall second if the whole clean stream hit the server.
net::LoadTrackerConfig TightSpecLoad(const core::Workload& workload,
                                     double solo_load) {
  net::LoadTrackerConfig load;
  load.window_s = 12.0 * 3600.0;
  load.brownout_duration_s = 4.0 * 3600.0;
  load.service_overhead_s = solo_load * workload.clean().Span() /
                            static_cast<double>(workload.clean().size());
  load.service_rate_bytes_per_s = 1e12;
  return load;
}

net::FaultSchedule ServerOutageSchedule(const core::Workload& workload) {
  net::FaultInjectionConfig fault_config;
  fault_config.horizon_days = workload.clean().Span() / kDay + 1.0;
  fault_config.server_failure_rate_per_day = 0.5;
  fault_config.mean_outage_days = 0.5;
  Rng rng(271828);
  return net::GenerateFaultSchedule(workload.topology(), fault_config, &rng);
}

TEST_F(SpecSimTest, ArmedButCoolProtectionsAreBitIdentical) {
  // With ample capacity, no faults, and breakers that never see a failure,
  // the armed stack must be a pure observer: every total matches the plain
  // run exactly (this is what lets fig8 arm track_load in all arms).
  const RunTotals plain = sim_->Run(Baseline(0.3));
  SpeculationConfig armed = Baseline(0.3);
  armed.protection.track_load = true;
  armed.protection.load = TightSpecLoad(*workload_, 1e-6);
  armed.protection.circuit_breakers = true;
  armed.protection.retry_budget = true;
  armed.protection.admission_control = true;
  const RunTotals cool = sim_->Run(armed);
  EXPECT_EQ(plain.server_requests, cool.server_requests);
  EXPECT_EQ(plain.speculative_docs_sent, cool.speculative_docs_sent);
  EXPECT_DOUBLE_EQ(plain.bytes_sent, cool.bytes_sent);
  EXPECT_DOUBLE_EQ(plain.total_latency, cool.total_latency);
  EXPECT_EQ(cool.emergent_brownouts, 0u);
  EXPECT_EQ(cool.breaker_open_transitions, 0u);
  EXPECT_EQ(cool.shed_speculative_docs, 0u);
  EXPECT_EQ(cool.breaker_fast_fails, 0u);
}

TEST_F(SpecSimTest, AdmissionControlShedsSpeculationUnderPressure) {
  const RunTotals healthy = sim_->Run(Baseline(0.25));
  ASSERT_GT(healthy.speculative_docs_sent, 0u);
  SpeculationConfig tight = Baseline(0.25);
  tight.protection.track_load = true;
  tight.protection.load = TightSpecLoad(*workload_, 1.5);
  tight.protection.admission_control = true;
  const RunTotals shed = sim_->Run(tight);
  // Speculative pushes are shed first; demand service never is.
  EXPECT_GT(shed.shed_speculative_docs, 0u);
  EXPECT_LT(shed.speculative_docs_sent, healthy.speculative_docs_sent);
  EXPECT_EQ(shed.client_requests, healthy.client_requests);
  EXPECT_EQ(shed.unavailable_requests, 0u);
  // A colder cache (shed pushes never land) can only add misses.
  EXPECT_GE(shed.server_requests, healthy.server_requests);
}

TEST_F(SpecSimTest, RetryBudgetCapsOutageRetryStorm) {
  const net::FaultSchedule schedule = ServerOutageSchedule(*workload_);
  ASSERT_FALSE(schedule.events().empty());
  SpeculationConfig stormy = Baseline(0.25);
  stormy.faults = &schedule;
  stormy.retry.max_attempts = 4;
  stormy.retry_jitter_seed = 314159;
  const RunTotals unbudgeted = sim_->Run(stormy);
  ASSERT_GT(unbudgeted.retry_attempts, 0u);
  SpeculationConfig budgeted = stormy;
  budgeted.protection.retry_budget = true;
  budgeted.protection.budget.max_retry_ratio = 0.05;
  budgeted.protection.budget.min_retries_per_window = 1;
  const RunTotals capped = sim_->Run(budgeted);
  EXPECT_GT(capped.retries_suppressed_by_budget, 0u);
  EXPECT_LT(capped.retry_attempts, unbudgeted.retry_attempts);
  // Suppressed retries were futile (the server is down schedule-wide for
  // the whole outage), so availability is unchanged.
  EXPECT_EQ(capped.unavailable_requests, unbudgeted.unavailable_requests);
}

TEST_F(SpecSimTest, BreakersFailFastDuringOutages) {
  const net::FaultSchedule schedule = ServerOutageSchedule(*workload_);
  ASSERT_FALSE(schedule.events().empty());
  SpeculationConfig stormy = Baseline(0.25);
  stormy.faults = &schedule;
  stormy.retry.max_attempts = 4;
  stormy.retry_jitter_seed = 314159;
  const RunTotals off = sim_->Run(stormy);
  SpeculationConfig guarded = stormy;
  guarded.protection.circuit_breakers = true;
  guarded.protection.breaker.failure_threshold = 3;
  guarded.protection.breaker.cooldown_s = 900.0;
  const RunTotals on = sim_->Run(guarded);
  EXPECT_GT(on.breaker_open_transitions, 0u);
  EXPECT_GT(on.breaker_fast_fails, 0u);
  // Fast-failed misses skip the timeout ladder entirely.
  EXPECT_LT(on.retry_attempts, off.retry_attempts);
  EXPECT_LT(on.retry_wait_seconds, off.retry_wait_seconds);
}

// --- Goldens for the model configurations (update cycle, history,
// estimator, raw P) at core::SmallConfig(): every RunTotals field, by bit
// pattern.

/// FNV-1a over the bit patterns of every RunTotals field.
uint64_t TotalsDigest(const RunTotals& t) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto real = [&mix](double v) { mix(std::bit_cast<uint64_t>(v)); };
  real(t.bytes_sent);
  mix(t.server_requests);
  mix(t.client_requests);
  real(t.total_latency);
  real(t.miss_bytes);
  real(t.requested_bytes);
  mix(t.speculative_docs_sent);
  real(t.speculative_bytes);
  mix(t.speculative_hits);
  real(t.wasted_speculative_bytes);
  mix(t.prefetch_requests);
  mix(t.cache_hits);
  mix(t.demand_server_responses);
  real(t.demand_bytes_sent);
  mix(t.wasted_speculative_docs);
  mix(t.unused_resident_speculative_docs);
  mix(t.unavailable_requests);
  mix(t.retry_attempts);
  real(t.retry_wait_seconds);
  mix(t.brownout_responses);
  mix(t.suppressed_speculative_docs);
  mix(t.emergent_brownouts);
  mix(t.breaker_open_transitions);
  mix(t.retries_suppressed_by_budget);
  mix(t.shed_speculative_docs);
  mix(t.breaker_fast_fails);
  return h;
}

// The model rolls its counting window one day at a time (Add the new day,
// Remove the expired one) and builds one epoch per update cycle; these
// configurations vary the cycle, the history, the estimator and the use
// of P*, each pinned at T_p = 0.25.
class IncrementalSimTest : public SpecSimTest {
 protected:
  static void ExpectGolden(const SpeculationConfig& config, const char* name,
                           uint64_t server_requests,
                           uint64_t speculative_docs_sent, double bytes_sent,
                           uint64_t digest) {
    const RunTotals t = sim_->Run(config);
    EXPECT_EQ(t.server_requests, server_requests) << name;
    EXPECT_EQ(t.speculative_docs_sent, speculative_docs_sent) << name;
    EXPECT_EQ(t.bytes_sent, bytes_sent) << name;
    EXPECT_EQ(TotalsDigest(t), digest) << name;
  }
};

TEST_F(IncrementalSimTest, SpeculativePushDailyCycle) {
  ExpectGolden(Baseline(0.25), "push D=1", 4080, 5002, 82379144.0,
               0xf9cdc3d8447bb8f7);
}

TEST_F(IncrementalSimTest, SpeculativePushSlidingWindow) {
  // Short history forces days to leave the window mid-run (removal path).
  SpeculationConfig config = Baseline(0.25);
  config.history_days = 5;
  ExpectGolden(config, "push D'=5", 4111, 4892, 82199889.0,
               0x22c1f9c53140ac27);
}

TEST_F(IncrementalSimTest, WeeklyUpdateCycle) {
  SpeculationConfig config = Baseline(0.25);
  config.update_cycle_days = 7;
  ExpectGolden(config, "push D=7", 4230, 4761, 82355446.0,
               0x8d7d2b862856e3da);
}

TEST_F(IncrementalSimTest, ServerHints) {
  SpeculationConfig config = Baseline(0.25);
  config.mode = ServiceMode::kServerHints;
  ExpectGolden(config, "server hints", 7208, 3128, 72607713.0,
               0x39fd67b7d28af8d8);
}

TEST_F(IncrementalSimTest, RawPWithoutClosure) {
  SpeculationConfig config = Baseline(0.25);
  config.use_closure = false;
  ExpectGolden(config, "raw P", 4115, 4713, 78509162.0, 0x40f9374f3dac8746);
}

TEST_F(IncrementalSimTest, DecayEstimatorFallsBackToBatch) {
  // The decay estimator has no window to roll; its epochs are rebuilt
  // from the decayed totals.
  SpeculationConfig config = Baseline(0.25);
  config.estimator = SpeculationConfig::EstimatorKind::kExponentialDecay;
  ExpectGolden(config, "exponential decay", 4132, 4791, 81666182.0,
               0x5f5c525cc37dfa8b);
}

TEST(SpecMetricsTest, DegenerateBaselinesYieldUnitRatios) {
  const RunTotals empty_a, empty_b;
  const SpeculationMetrics m = ComputeMetrics(empty_a, empty_b);
  EXPECT_DOUBLE_EQ(m.bandwidth_ratio, 1.0);
  EXPECT_DOUBLE_EQ(m.server_load_ratio, 1.0);
  EXPECT_DOUBLE_EQ(m.service_time_ratio, 1.0);
  EXPECT_DOUBLE_EQ(m.miss_rate_ratio, 1.0);
}

}  // namespace
}  // namespace sds::spec
