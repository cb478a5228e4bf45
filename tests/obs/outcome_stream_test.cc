// Pins everything the two replay loops emit per request: every result
// field (by bit pattern), the metrics registry, the time series, the
// sampled journeys and the full flight-recorder event stream, for a seeded
// matrix of dissemination and speculation configs on core::SmallConfig().
// The digests were recorded on the simulators before their outcome
// accounting was funnelled into one writer per replay loop; any change in
// what a replay reports, or where and in which order it records it, fails
// here with the config and stream named.

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "core/workload.h"
#include "dissem/simulator.h"
#include "net/faults.h"
#include "obs/audit.h"
#include "obs/flightrec.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "spec/simulator.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace sds::obs {
namespace {

#ifdef SDS_OBS_DISABLED
constexpr bool kObsCompiled = false;
#else
constexpr bool kObsCompiled = true;
#endif

/// FNV-1a over the bit patterns of the values fed to it.
class Digest {
 public:
  void Int(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void Real(double v) { Int(std::bit_cast<uint64_t>(v)); }
  void Str(std::string_view s) {
    Int(s.size());
    for (const char c : s) {
      h_ ^= static_cast<uint8_t>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One digest per outcome stream.
struct Streams {
  uint64_t result = 0;
  uint64_t metrics = 0;
  uint64_t timeseries = 0;
  uint64_t journeys = 0;
  uint64_t flight = 0;
};

struct Expected {
  const char* config;
  Streams digests;
};

// The flight recorder keeps only the newest events of a thread's ring, so
// the replays below drain it this often to digest every event.
constexpr size_t kFlightDrainEvery = 128;

/// Folds the recorder's events (without the process-global seq and tid)
/// into `d` and clears it.
void DrainFlight(Digest* d) {
  const FlightSnapshot snap = SnapshotFlight();
  for (const FlightEvent& e : snap.events) {
    d->Int(e.request);
    d->Str(e.stage);
    d->Str(e.decision);
    d->Int(static_cast<uint64_t>(e.entity));
    d->Real(e.value);
    d->Int(static_cast<uint64_t>(e.point));
  }
  d->Int(snap.dropped);
  ResetFlight();
}

/// Digests the metrics, time-series and journey snapshots into `s`.
void DigestSnapshots(Streams* s) {
  Digest metrics;
  const MetricsSnapshot m = SnapshotMetrics();
  for (const auto& [name, v] : m.counters) {
    metrics.Str(name);
    metrics.Real(v);
  }
  for (const auto& [name, v] : m.gauges) {
    metrics.Str(name);
    metrics.Real(v);
  }
  for (const auto& [name, dist] : m.distributions) {
    metrics.Str(name);
    metrics.Real(dist.count);
    metrics.Real(dist.sum);
    metrics.Real(dist.min);
    metrics.Real(dist.max);
    for (const double b : dist.buckets) metrics.Real(b);
  }
  for (const auto& [point, counters] : m.point_counters) {
    metrics.Int(static_cast<uint64_t>(point));
    for (const auto& [name, v] : counters) {
      metrics.Str(name);
      metrics.Real(v);
    }
  }
  s->metrics = metrics.value();

  Digest ts;
  const TimeSeriesSnapshot t = SnapshotTimeSeries();
  ts.Real(t.window_s);
  for (const auto& [name, windows] : t.total) {
    ts.Str(name);
    for (const auto& [w, v] : windows) {
      ts.Int(static_cast<uint64_t>(w));
      ts.Real(v);
    }
  }
  for (const auto& [point, series] : t.by_point) {
    ts.Int(static_cast<uint64_t>(point));
    for (const auto& [name, windows] : series) {
      ts.Str(name);
      for (const auto& [w, v] : windows) {
        ts.Int(static_cast<uint64_t>(w));
        ts.Real(v);
      }
    }
  }
  s->timeseries = ts.value();

  Digest journeys;
  const JourneySnapshot j = SnapshotJourneys();
  journeys.Int(j.sample_period);
  for (const JourneyRecord& r : j.journeys) {
    journeys.Str(r.stream);
    journeys.Int(static_cast<uint64_t>(r.point));
    journeys.Int(r.run);
    journeys.Int(r.request);
    journeys.Real(r.time_s);
    journeys.Int(static_cast<uint64_t>(r.client));
    journeys.Int(static_cast<uint64_t>(r.doc));
    journeys.Int(static_cast<uint64_t>(r.served_by));
    journeys.Int(r.hops);
    journeys.Int(r.failover_depth);
    journeys.Int(r.retries);
    journeys.Int(r.pushed_docs);
    journeys.Real(r.response_bytes);
    journeys.Real(r.queue_s);
    journeys.Real(r.transfer_s);
    journeys.Real(r.backoff_s);
  }
  journeys.Int(j.dropped);
  s->journeys = journeys.value();
}

uint64_t DigestResult(const dissem::DisseminationResult& r) {
  Digest d;
  d.Real(r.baseline_bytes_hops);
  d.Real(r.with_proxies_bytes_hops);
  d.Real(r.saved_fraction);
  d.Real(r.proxy_hit_fraction);
  d.Int(r.storage_per_proxy_bytes);
  d.Int(r.total_storage_bytes);
  d.Int(r.proxy_requests.size());
  for (const uint64_t n : r.proxy_requests) d.Int(n);
  d.Int(r.server_requests);
  d.Int(r.shielding_overflow_requests);
  d.Int(r.stale_proxy_requests);
  d.Real(r.stale_fraction);
  d.Int(r.proxy_nodes.size());
  for (const net::NodeId n : r.proxy_nodes) d.Int(n);
  d.Int(r.unavailable_requests);
  d.Real(r.unavailable_fraction);
  d.Int(r.baseline_unavailable_requests);
  d.Real(r.baseline_unavailable_fraction);
  d.Int(r.failover_requests);
  d.Real(r.degraded_bytes_hops);
  d.Int(r.retry_attempts);
  d.Real(r.retry_wait_seconds);
  d.Int(r.emergent_brownouts);
  d.Int(r.breaker_open_transitions);
  d.Int(r.retries_suppressed_by_budget);
  d.Int(r.shed_replica_requests);
  d.Int(r.fast_failed_requests);
  d.Real(r.served_bytes);
  d.Real(r.mean_service_s);
  d.Real(r.p50_service_s);
  d.Real(r.p99_service_s);
  d.Real(r.load_imbalance_max_mean);
  d.Real(r.load_imbalance_p99_mean);
  d.Int(r.per_level_imbalance.size());
  for (const double v : r.per_level_imbalance) d.Real(v);
  return d.value();
}

uint64_t DigestResult(const spec::RunTotals& t,
                      const std::vector<spec::ServerEvent>& events) {
  Digest d;
  d.Real(t.bytes_sent);
  d.Int(t.server_requests);
  d.Int(t.client_requests);
  d.Real(t.total_latency);
  d.Real(t.miss_bytes);
  d.Real(t.requested_bytes);
  d.Int(t.speculative_docs_sent);
  d.Real(t.speculative_bytes);
  d.Int(t.speculative_hits);
  d.Real(t.wasted_speculative_bytes);
  d.Int(t.prefetch_requests);
  d.Int(t.cache_hits);
  d.Int(t.demand_server_responses);
  d.Real(t.demand_bytes_sent);
  d.Int(t.wasted_speculative_docs);
  d.Int(t.unused_resident_speculative_docs);
  d.Int(t.unavailable_requests);
  d.Int(t.retry_attempts);
  d.Real(t.retry_wait_seconds);
  d.Int(t.brownout_responses);
  d.Int(t.suppressed_speculative_docs);
  d.Int(t.emergent_brownouts);
  d.Int(t.breaker_open_transitions);
  d.Int(t.retries_suppressed_by_budget);
  d.Int(t.shed_speculative_docs);
  d.Int(t.breaker_fast_fails);
  d.Int(events.size());
  for (const spec::ServerEvent& e : events) {
    d.Real(e.time);
    d.Real(e.response_bytes);
  }
  return d.value();
}

std::string FormatStreams(const std::string& config, const Streams& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\",\n {0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull,\n  0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull}},",
                config.c_str(), s.result, s.metrics, s.timeseries,
                s.journeys, s.flight);
  return buf;
}

/// Compares `actual` with the pinned digests of `config`, naming the
/// config and stream on mismatch. The obs streams are skipped when the
/// layer is compiled out.
void ExpectStreams(const std::vector<Expected>& table,
                   const std::string& config, const Streams& actual) {
  const Expected* expected = nullptr;
  for (const Expected& e : table) {
    if (config == e.config) expected = &e;
  }
  const std::string actual_line = FormatStreams(config, actual);
  ASSERT_NE(expected, nullptr)
      << "no pinned digests for " << config << "; actual:\n" << actual_line;
  EXPECT_EQ(actual.result, expected->digests.result)
      << config << ": result fields diverged; actual:\n" << actual_line;
  if (!kObsCompiled) return;
  EXPECT_EQ(actual.metrics, expected->digests.metrics)
      << config << ": metrics stream diverged; actual:\n" << actual_line;
  EXPECT_EQ(actual.timeseries, expected->digests.timeseries)
      << config << ": time-series stream diverged; actual:\n" << actual_line;
  EXPECT_EQ(actual.journeys, expected->digests.journeys)
      << config << ": journey stream diverged; actual:\n" << actual_line;
  EXPECT_EQ(actual.flight, expected->digests.flight)
      << config << ": flight-event stream diverged; actual:\n"
      << actual_line;
}

class OutcomeStreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new core::Workload(core::MakeWorkload(core::SmallConfig()));
    const double horizon_days = workload_->clean().Span() / kDay + 1.0;

    // Zone-correlated node/link/server outages, as in Figure 8.
    net::FaultInjectionConfig dissem_faults;
    dissem_faults.horizon_days = horizon_days;
    dissem_faults.node_failure_rate_per_day = 0.10;
    dissem_faults.link_failure_rate_per_day = 0.05;
    dissem_faults.server_failure_rate_per_day = 0.10;
    dissem_faults.mean_outage_days = 1.0;
    dissem_faults.min_outage_days = 2.0 / 24.0;
    dissem_faults.zone_failure_probability = 0.3;
    Rng dissem_rng(161803);
    dissem_schedule_ = new net::FaultSchedule(net::GenerateFaultSchedule(
        workload_->topology(), dissem_faults, &dissem_rng));

    // Server outages plus scheduled brownouts every other day.
    net::FaultInjectionConfig spec_faults;
    spec_faults.horizon_days = horizon_days;
    spec_faults.server_failure_rate_per_day = 0.5;
    spec_faults.mean_outage_days = 0.5;
    Rng spec_rng(271828);
    spec_schedule_ = new net::FaultSchedule(net::GenerateFaultSchedule(
        workload_->topology(), spec_faults, &spec_rng));
    for (double day = 1.0; day < horizon_days; day += 2.0) {
      const double start = day * kDay + 12.0 * 3600.0;
      spec_schedule_->Add({net::FaultKind::kServerBrownout, /*id=*/0, start,
                           start + 6.0 * 3600.0});
    }
  }
  static void TearDownTestSuite() {
    delete spec_schedule_;
    delete dissem_schedule_;
    delete workload_;
  }

  void SetUp() override {
    was_enabled_ = Enabled();
    was_audit_ = AuditEnabled();
    period_ = JourneySamplePeriod();
    window_ = TimeSeriesWindow();
    SetEnabled(true);
    SetAuditEnabled(true);
    SetJourneySamplePeriod(4);
    SetTimeSeriesWindow(kDefaultTimeSeriesWindowS);
  }
  void TearDown() override {
    ResetStreams();
    SetEnabled(was_enabled_);
    SetAuditEnabled(was_audit_);
    SetJourneySamplePeriod(period_);
    SetTimeSeriesWindow(window_);
  }

  static void ResetStreams() {
    ResetMetrics();
    ResetTimeSeries();
    ResetFlight();
    ResetJourneys();
  }

  static core::Workload* workload_;
  static net::FaultSchedule* dissem_schedule_;
  static net::FaultSchedule* spec_schedule_;

 private:
  bool was_enabled_ = false;
  bool was_audit_ = false;
  uint64_t period_ = kDefaultJourneySamplePeriod;
  double window_ = kDefaultTimeSeriesWindowS;
};

core::Workload* OutcomeStreamTest::workload_ = nullptr;
net::FaultSchedule* OutcomeStreamTest::dissem_schedule_ = nullptr;
net::FaultSchedule* OutcomeStreamTest::spec_schedule_ = nullptr;

// ---------------------------------------------------------------------------
// Dissemination: selection_d x daily capacity x {fault-free, faulted,
// faulted + the full Figure 8 protection stack}.
// ---------------------------------------------------------------------------

const std::vector<Expected>& DissemDigests() {
  static const std::vector<Expected> table = {
      {"dissem d=1 cap=0 fault-free",
       {0x696a54aa9342e00eull, 0xebf8f4b8027f5ef5ull, 0xfc91c184165b43e3ull,
        0x0be35e3d07a3868dull, 0xa0c8a5a1367f704dull}},
      {"dissem d=1 cap=0 faulted",
       {0x44eabcbfbf2a2538ull, 0x5d6c1eb8709a7e73ull, 0xadefe93e09e59121ull,
        0x0eb68a8ac9e103a5ull, 0x4c6a0afa4600c891ull}},
      {"dissem d=1 cap=0 protected",
       {0xbd61c7a852f7bea5ull, 0xd8ef0c6cc0da2106ull, 0x316825ac165312e5ull,
        0x39b86371d0d98c4cull, 0xe4830cb998081e52ull}},
      {"dissem d=1 cap=5 fault-free",
       {0x4843c7780809e3d1ull, 0x5d3e20c1d3589374ull, 0x75ecd5724407535eull,
        0xdb5177deb8f583adull, 0x9574e577edccc49cull}},
      {"dissem d=1 cap=5 faulted",
       {0x21871739ea6ca230ull, 0x7b7a0d4dcc0a5f32ull, 0x95a168ad3605f190ull,
        0x9cb6daa974fd5347ull, 0xdaf51a8499a69542ull}},
      {"dissem d=1 cap=5 protected",
       {0x4c86c4b8773ff6b8ull, 0x2c14aeb7e928df8full, 0x1e894cb1b9ec5213ull,
        0xb713a99476a81e34ull, 0x22c006b149aa1d53ull}},
      {"dissem d=2 cap=0 fault-free",
       {0x83781abfe4f07e96ull, 0xd221259c4a0cc6d5ull, 0xabe6a2d5788c9e57ull,
        0xcfca13fcfd8610c8ull, 0xafb96dadab5a961dull}},
      {"dissem d=2 cap=0 faulted",
       {0xb30576b6a7a8f9c3ull, 0xc9a73232e86c62f2ull, 0x330d1f9d02eb1671ull,
        0x4eddcdb7c1defaffull, 0x33b581c2f77ebd69ull}},
      {"dissem d=2 cap=0 protected",
       {0xf2830f229ec84e87ull, 0x68edcf01cc7f0654ull, 0x5d7c2a86593a34c3ull,
        0x4bbebcdc9d7a2c95ull, 0x0d92ace704610549ull}},
      {"dissem d=2 cap=5 fault-free",
       {0xd3128bf969997c4aull, 0x222356df13f51d7cull, 0xd7835e0b96bba68cull,
        0x5d3c1e96ad575858ull, 0x0faaeb52e21cee8dull}},
      {"dissem d=2 cap=5 faulted",
       {0x69322bb08169a9a4ull, 0xc241d60a6ef3486full, 0x5b2792dbad57356dull,
        0xbfcda315a61642d1ull, 0xbd68b7560f76fc8cull}},
      {"dissem d=2 cap=5 protected",
       {0x75b0e5cdc32cd841ull, 0x18ff98b3700e5f37ull, 0xcfca4e9257687bdaull,
        0x902a96c11f22964bull, 0xf2a12bce983ea5faull}},
      {"dissem d=4 cap=0 fault-free",
       {0xd554499b524094d7ull, 0x5c7f060a0bacda33ull, 0x2eb227c4dc5746e9ull,
        0x86634ac13b28fa2full, 0xf338b113b6c5361bull}},
      {"dissem d=4 cap=0 faulted",
       {0x757dcad9037adecfull, 0xf0c94f1bd591169aull, 0xf7c8795a29a0cd28ull,
        0x1996e354360ee773ull, 0x325f3ddfce94b469ull}},
      {"dissem d=4 cap=0 protected",
       {0xe1fd9b6d93bbc5d4ull, 0xd2511bbe298b3a37ull, 0x58f02d0a4097f531ull,
        0x42dcb3373e51bca6ull, 0xd2ae7c55d23deae0ull}},
      {"dissem d=4 cap=5 fault-free",
       {0xbd33d64740a4cc7bull, 0x9d1bd98579abe8bdull, 0x806e9ca3b193e57cull,
        0x7f4bb1639eee66c3ull, 0xf3b5d7188d3bb928ull}},
      {"dissem d=4 cap=5 faulted",
       {0xeb6ca572c2b48625ull, 0xc4cddc9e93ba2368ull, 0x9439319bb97e0926ull,
        0xc0205313a6ad2806ull, 0x1280e0379497c2e2ull}},
      {"dissem d=4 cap=5 protected",
       {0xcf914f73cab5716dull, 0x693946b23e461686ull, 0x483acf837cc89a27ull,
        0x30299d7e5a76a2a3ull, 0xdb883336d91f07efull}},
  };
  return table;
}

TEST_F(OutcomeStreamTest, DisseminationStreamsArePinned) {
  const dissem::PreparedDissemination prepared = dissem::PrepareDissemination(
      workload_->corpus(), workload_->clean(), workload_->topology(), 0,
      dissem::DisseminationConfig{}.train_fraction);
  ASSERT_GT(prepared.eval_index.size(), kFlightDrainEvery);

  // Figure 8's capacity calibration and full protection stack.
  const double eval_span = std::max(1.0, prepared.span - prepared.split);
  const double eval_requests =
      std::max(1.0, static_cast<double>(prepared.eval_requests));
  net::ProtectionConfig full;
  full.track_load = true;
  full.load.window_s = 12.0 * 3600.0;
  full.load.brownout_duration_s = 4.0 * 3600.0;
  full.load.utilization_threshold = 0.75;
  full.load.admission_threshold = 0.55;
  full.load.service_overhead_s = 0.85 * 1.25 * eval_span / eval_requests;
  full.load.service_rate_bytes_per_s =
      prepared.eval_bytes / (0.15 * 1.25 * eval_span);
  full.circuit_breakers = true;
  full.breaker.failure_threshold = 3;
  full.breaker.cooldown_s = 900.0;
  full.retry_budget = true;
  full.budget.window_s = 3600.0;
  full.budget.max_retry_ratio = 3.0;
  full.budget.min_retries_per_window = 20;
  full.admission_control = true;

  const char* const kFaultNames[] = {"fault-free", "faulted", "protected"};
  for (const uint32_t d : {1u, 2u, 4u}) {
    for (const uint64_t capacity : {0u, 5u}) {
      for (int faults = 0; faults < 3; ++faults) {
        const std::string name = "dissem d=" + std::to_string(d) +
                                 " cap=" + std::to_string(capacity) + " " +
                                 kFaultNames[faults];
        dissem::DisseminationConfig config;
        config.num_proxies = 4;
        config.selection_d = d;
        config.proxy_daily_request_capacity = capacity;
        config.collect_service_times = true;
        if (faults > 0) {
          config.faults = dissem_schedule_;
          config.retry.max_attempts = 6;
          config.retry.timeout_s = 5.0;
          config.retry.base_backoff_s = 1.0;
          config.retry.backoff_multiplier = 2.0;
          config.retry.max_backoff_s = 60.0;
          config.retry.jitter = 0.1;
        }
        if (faults == 2) config.protection = full;

        ResetStreams();
        Streams actual;
        Digest flight;
        Rng rng(20240601);
        dissem::DisseminationReplay replay(prepared, config, &rng,
                                           &workload_->updates());
        const trace::Trace& trace = workload_->clean();
        for (size_t k = 0; k < prepared.eval_index.size(); ++k) {
          const auto& r = trace.requests[prepared.eval_index[k]];
          replay.OnRequest(k, dissem::DisseminationReplay::EvalRecord{
                                  r.time, r.client, r.doc, r.bytes,
                                  prepared.eval_node[k], prepared.eval_day[k]});
          if ((k + 1) % kFlightDrainEvery == 0) DrainFlight(&flight);
        }
        actual.result = DigestResult(replay.Finish());
        DrainFlight(&flight);
        actual.flight = flight.value();
        DigestSnapshots(&actual);
        for (const AuditViolation& v : CheckAudit("outcome_stream_test")) {
          ADD_FAILURE() << name << ": " << v.ToString();
        }
        ExpectStreams(DissemDigests(), name, actual);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Speculation: service modes x {fault-free, faulted with breakers, retry
// budget and load-driven admission control}. The metrics digests were
// re-recorded when the registry lost five always-zero counters,
// spec.closure.{delta_cycles,rows_rebuilt,rows_changed,rows_dropped,
// rows_kept}; the other streams are as first recorded.
// ---------------------------------------------------------------------------

const std::vector<Expected>& SpecDigests() {
  static const std::vector<Expected> table = {
      {"spec none fault-free",
       {0xaa61ac3095313b07ull, 0xf4ceb250f8c7aab0ull, 0xe3bf9b2118cb8a55ull,
        0x06f65940878d7e31ull, 0x711a7b77d30f7810ull}},
      {"spec none faulted",
       {0x7235d6e944985811ull, 0xda34e63f288af35dull, 0x6509ee82d757d80cull,
        0x29644723a741af3full, 0xa078a6d16ffe7192ull}},
      {"spec push fault-free",
       {0xa879b9fd36551bf5ull, 0xf4b40c81d8e51192ull, 0x6554128b10e69482ull,
        0xcb49dfd48a4fab12ull, 0x7556bb86c7f75005ull}},
      {"spec push faulted",
       {0x7eac9e3909bb7ea8ull, 0x3df86deddcab6e07ull, 0xf59c3468502c580eull,
        0xb8e248942e86ba25ull, 0x74d1dc5881e6cb1bull}},
      {"spec hints fault-free",
       {0x48ac14b9a29a6e9full, 0xcd036df565d17e81ull, 0x79dee1f791de2162ull,
        0xe533ed17be93afb1ull, 0x0bceb0770f73b731ull}},
      {"spec hints faulted",
       {0x7eeb1f2b75b7b921ull, 0xf0d8243e0ee0b5ebull, 0x761475ceaab52989ull,
        0xfc816205d64525c0ull, 0x0907ff16de83dab7ull}},
      {"spec hybrid fault-free",
       {0x6b3e7f5203069042ull, 0x1e3c7b20a87be308ull, 0x2a3fcaa3bb43f09aull,
        0x27449684b28aead9ull, 0x890274a34fc0797bull}},
      {"spec hybrid faulted",
       {0x676eb7b59e732ce1ull, 0x016e33d731f5b1e3ull, 0x13c7669c8770d5c7ull,
        0x2ecea37e18426d9aull, 0x416fce868363fe46ull}},
  };
  return table;
}

TEST_F(OutcomeStreamTest, SpeculationStreamsArePinned) {
  const trace::Trace& trace = workload_->clean();
  spec::SpeculationSimulator sim(&workload_->corpus(), &trace);
  const spec::PreparedSpecTrace& pt = sim.prepared();
  ASSERT_GT(pt.size(), kFlightDrainEvery);

  const struct {
    const char* name;
    spec::ServiceMode mode;
  } kModes[] = {
      {"none", spec::ServiceMode::kNone},
      {"push", spec::ServiceMode::kSpeculativePush},
      {"hints", spec::ServiceMode::kServerHints},
      {"hybrid", spec::ServiceMode::kHybrid},
  };
  for (const auto& mode : kModes) {
    for (const bool faulted : {false, true}) {
      const std::string name = std::string("spec ") + mode.name +
                               (faulted ? " faulted" : " fault-free");
      spec::SpeculationConfig config = core::BaselineSpecConfig();
      config.policy.threshold = 0.25;
      config.mode = mode.mode;
      // A cache that forgets between sessions, so client prefetching has
      // something to fetch.
      config.cache.session_timeout = kHour;
      if (faulted) {
        config.faults = spec_schedule_;
        config.retry.max_attempts = 4;
        config.retry.jitter = 0.1;
        config.retry_jitter_seed = 314159;
        config.protection.circuit_breakers = true;
        config.protection.breaker.failure_threshold = 3;
        config.protection.breaker.cooldown_s = 900.0;
        config.protection.retry_budget = true;
        config.protection.budget.max_retry_ratio = 0.05;
        config.protection.budget.min_retries_per_window = 1;
        config.protection.track_load = true;
        config.protection.load.window_s = 12.0 * 3600.0;
        config.protection.load.brownout_duration_s = 4.0 * 3600.0;
        config.protection.load.service_overhead_s =
            0.8 * trace.Span() / static_cast<double>(trace.size());
        config.protection.load.service_rate_bytes_per_s = 1e12;
        config.protection.admission_control = true;
      }

      ResetStreams();
      Streams actual;
      Digest flight;
      std::vector<spec::ServerEvent> events;
      spec::SpeculationReplay replay(&workload_->corpus(), trace.num_clients,
                                     trace.num_servers, config,
                                     sim.AcquireModel(config), &events);
      spec::SpeculationReplay::Record rec;
      for (size_t i = 0; i < pt.size(); ++i) {
        rec.time = pt.time[i];
        rec.client = pt.client[i];
        rec.server = pt.server[i];
        rec.doc = pt.doc[i];
        rec.size_bytes = pt.size_bytes[i];
        rec.day = pt.day[i];
        replay.OnRequest(i, rec);
        if ((i + 1) % kFlightDrainEvery == 0) DrainFlight(&flight);
      }
      actual.result = DigestResult(replay.Finish(), events);
      DrainFlight(&flight);
      actual.flight = flight.value();
      DigestSnapshots(&actual);
      for (const AuditViolation& v : CheckAudit("outcome_stream_test")) {
        ADD_FAILURE() << name << ": " << v.ToString();
      }
      ExpectStreams(SpecDigests(), name, actual);
    }
  }
}

}  // namespace
}  // namespace sds::obs
