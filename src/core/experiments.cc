#include "core/experiments.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>

#include "dissem/allocation.h"
#include "dissem/popularity.h"
#include "dissem/simulator.h"
#include "spec/dependency.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace sds::core {

spec::SpeculationConfig BaselineSpecConfig() {
  spec::SpeculationConfig config;
  config.comm_cost = 1.0;
  config.serv_cost = 10000.0;
  config.dependency.window = 5.0;
  config.dependency.stride_timeout = 5.0;
  config.cache.session_timeout = kInfiniteTime;
  config.cache.capacity_bytes = 0;
  config.policy.kind = spec::PolicyKind::kThreshold;
  config.policy.max_size = 0;
  config.history_days = 60;
  config.update_cycle_days = 1;
  config.mode = spec::ServiceMode::kSpeculativePush;
  return config;
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

Fig1Result RunFig1(const Workload& workload, uint64_t block_size) {
  const auto& corpus = workload.corpus();
  const dissem::ServerPopularity pop = dissem::AnalyzeServer(
      corpus, workload.NewCleanCursor().get(), /*server=*/0);
  const dissem::BlockPopularity blocks =
      dissem::ComputeBlockPopularity(pop, corpus, block_size);

  Fig1Result result;
  result.block_size = block_size;
  result.block_request_fraction = blocks.request_fraction;
  result.cumulative_requests = blocks.cumulative_requests;
  result.cumulative_bytes = blocks.cumulative_bytes;
  result.total_docs =
      static_cast<uint32_t>(corpus.server_docs(0).size());
  result.total_bytes = corpus.ServerBytes(0);
  result.accessed_docs = pop.accessed_docs;
  for (const trace::DocumentId id : corpus.server_docs(0)) {
    if (pop.stats[id].total_requests() > 0) {
      result.accessed_bytes += corpus.doc(id).size_bytes;
    }
  }
  result.top_half_percent_coverage =
      pop.EmpiricalH(0.005 * static_cast<double>(result.total_bytes), corpus);
  result.top_ten_percent_coverage =
      pop.EmpiricalH(0.10 * static_cast<double>(result.total_bytes), corpus);
  return result;
}

Table Fig1Result::ToTable(size_t max_rows) const {
  Table table({"block", "request_fraction", "cum_requests", "cum_bytes"});
  for (size_t i = 0; i < block_request_fraction.size() && i < max_rows; ++i) {
    table.AddRow({std::to_string(i + 1),
                  FormatPercent(block_request_fraction[i], 2),
                  FormatPercent(cumulative_requests[i], 1),
                  FormatPercent(cumulative_bytes[i], 1)});
  }
  return table;
}

// ---------------------------------------------------------------------------
// Tab 1 — document classes
// ---------------------------------------------------------------------------

Tab1Result RunTab1(const Workload& workload) {
  const auto& corpus = workload.corpus();
  const auto pops =
      dissem::AnalyzeAllServers(corpus, workload.NewCleanCursor().get());
  Tab1Result result;
  const uint32_t days = static_cast<uint32_t>(workload.clean_span() / kDay) + 1;
  result.classification =
      dissem::ClassifyDocuments(corpus, pops, workload.updates(), days);
  result.accessed_docs =
      static_cast<uint32_t>(corpus.size()) - result.classification.unaccessed;
  result.remote_mean_update_rate = result.classification.MeanUpdateRate(
      dissem::PopularityClass::kRemotelyPopular);
  result.local_mean_update_rate = result.classification.MeanUpdateRate(
      dissem::PopularityClass::kLocallyPopular);
  result.global_mean_update_rate = result.classification.MeanUpdateRate(
      dissem::PopularityClass::kGloballyPopular);
  return result;
}

Table Tab1Result::ToTable() const {
  Table table({"class", "documents", "share_of_accessed",
               "mean_updates_per_day"});
  const double accessed = std::max(1u, accessed_docs);
  table.AddRow({"remotely-popular",
                std::to_string(classification.remotely_popular),
                FormatPercent(classification.remotely_popular / accessed, 1),
                FormatDouble(remote_mean_update_rate, 4)});
  table.AddRow({"locally-popular",
                std::to_string(classification.locally_popular),
                FormatPercent(classification.locally_popular / accessed, 1),
                FormatDouble(local_mean_update_rate, 4)});
  table.AddRow({"globally-popular",
                std::to_string(classification.globally_popular),
                FormatPercent(classification.globally_popular / accessed, 1),
                FormatDouble(global_mean_update_rate, 4)});
  table.AddRow({"mutable (any class)",
                std::to_string(classification.mutable_docs), "-", "-"});
  return table;
}

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

Fig2Result RunFig2(uint32_t n) {
  SDS_CHECK(n >= 2);
  Fig2Result result;
  // n servers, n-1 of them with λ_i = 1 (units of storage are then 1/λ_i);
  // the deviant server j sweeps λ_j/λ_i over two decades.
  for (double ratio = 0.1; ratio <= 10.0 + 1e-9; ratio *= 1.1547) {
    std::vector<double> lambdas(n, 1.0);
    lambdas[0] = ratio;
    const auto tight = dissem::AllocateEqualRate(lambdas, 1.0);
    const auto lax = dissem::AllocateEqualRate(lambdas, 10.0);
    result.lambda_ratio.push_back(ratio);
    result.tight_allocation.push_back(std::max(0.0, tight[0]));
    result.lax_allocation.push_back(std::max(0.0, lax[0]));
  }
  return result;
}

Table Fig2Result::ToTable() const {
  Table table({"lambda_j/lambda_i", "B_j (tight, B0=1/lambda)",
               "B_j (lax, B0=10/lambda)"});
  for (size_t i = 0; i < lambda_ratio.size(); ++i) {
    table.AddRow({FormatDouble(lambda_ratio[i], 3),
                  FormatDouble(tight_allocation[i], 4),
                  FormatDouble(lax_allocation[i], 4)});
  }
  return table;
}

// ---------------------------------------------------------------------------
// Tab 2
// ---------------------------------------------------------------------------

Tab2Result RunTab2() {
  Tab2Result result;
  const double lambda = 6.247e-7;  // fitted by the paper for cs-www.bu.edu
  result.storage_10_servers_90pct =
      dissem::SymmetricStorageForHitFraction(10, lambda, 0.90);
  result.shield_100_servers_500mb =
      dissem::SymmetricHitFraction(100, lambda, 500.0 * 1024 * 1024);
  result.table.AddRow({"storage for 10 servers @ 90% shield", "36 MB",
                       FormatBytes(result.storage_10_servers_90pct)});
  result.table.AddRow({"shield for 100 servers @ 500 MB", "96%",
                       FormatPercent(result.shield_100_servers_500mb, 1)});
  return result;
}

// ---------------------------------------------------------------------------
// Shared by the dissemination figures (3, 7, 8, 9)
// ---------------------------------------------------------------------------

dissem::PreparedDissemination PrepareServer0(const Workload& workload) {
  return dissem::PrepareDisseminationStream(
      workload.corpus(), workload.topology(), 0,
      dissem::DisseminationConfig{}.train_fraction, workload.clean_span(),
      workload.NewCleanCursor().get());
}

dissem::DisseminationResult SimulateServer0(
    const Workload& workload, const dissem::PreparedDissemination& prepared,
    const dissem::DisseminationConfig& config, Rng* rng) {
  return SimulateDisseminationStream(prepared, config, rng,
                                     &workload.updates(),
                                     workload.NewCleanCursor().get());
}

SpecRuns::SpecRuns(const Workload& workload,
                   const spec::DependencyConfig& dependency)
    : workload_(&workload) {
  if (workload.streaming()) return;
  batch_ = std::make_unique<spec::SpeculationSimulator>(&workload.corpus(),
                                                        workload.clean_.get());
  batch_->Prewarm(dependency);
}

spec::RunTotals SpecRuns::Run(const spec::SpeculationConfig& config,
                              std::vector<spec::ServerEvent>* server_events) {
  if (batch_) return batch_->Run(config, server_events);
  const auto replay = workload_->NewCleanCursor();
  return spec::StreamingSpeculationSimulator(&workload_->corpus(), replay.get())
      .Run(config, server_events);
}

spec::RunTotals SpecRuns::RunBaseline(const spec::SpeculationConfig& config) {
  spec::SpeculationConfig baseline = config;
  baseline.mode = spec::ServiceMode::kNone;
  return Run(baseline);
}

spec::SpeculationMetrics SpecRuns::Evaluate(
    const spec::SpeculationConfig& config) {
  const spec::RunTotals without_spec = RunBaseline(config);
  return spec::ComputeMetrics(Run(config), without_spec);
}

namespace {

// The clients' recovery policy under fault injection: six attempts, 5 s
// timeouts, exponential backoff from 1 s capped at 60 s.
net::RetryPolicy FaultRetryPolicy(double jitter) {
  net::RetryPolicy retry;
  retry.max_attempts = 6;
  retry.timeout_s = 5.0;
  retry.base_backoff_s = 1.0;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff_s = 60.0;
  retry.jitter = jitter;
  const Status status = retry.Validate();
  SDS_CHECK(status.ok()) << status.ToString();
  return retry;
}

// Random outages over the workload's horizon: nodes and the server fail at
// `rate` per day and links at half that, for a day on average (at least two
// hours); `zone_probability` makes a node outage take its subtree down.
net::FaultInjectionConfig FaultInjection(const Workload& workload, double rate,
                                         double zone_probability) {
  net::FaultInjectionConfig config;
  config.horizon_days = workload.clean_span() / kDay + 1.0;
  config.node_failure_rate_per_day = rate;
  config.link_failure_rate_per_day = rate / 2.0;
  config.server_failure_rate_per_day = rate;
  config.mean_outage_days = 1.0;
  config.min_outage_days = 2.0 / 24.0;
  config.zone_failure_probability = zone_probability;
  return config;
}

}  // namespace

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

Fig3Result RunFig3(const Workload& workload, uint32_t max_proxies,
                   const SweepOptions& options) {
  struct Point {
    dissem::DisseminationResult top10;
    dissem::DisseminationResult top4;
    dissem::DisseminationResult tailored;
  };
  Fig3Result result;
  const dissem::PreparedDissemination prepared = PrepareServer0(workload);
  const auto points = SweepMap(
      max_proxies, options,
      [&](size_t index, Rng& rng) {
        dissem::DisseminationConfig config;
        config.num_proxies = static_cast<uint32_t>(index) + 1;
        config.placement = dissem::PlacementStrategy::kGreedy;

        Point point;
        config.dissemination_fraction = 0.10;
        point.top10 = SimulateServer0(workload, prepared, config, &rng);
        config.dissemination_fraction = 0.04;
        point.top4 = SimulateServer0(workload, prepared, config, &rng);
        config.dissemination_fraction = 0.10;
        config.tailored_per_proxy = true;
        point.tailored = SimulateServer0(workload, prepared, config, &rng);
        return point;
      },
      &result.sweep);
  for (uint32_t k = 1; k <= max_proxies; ++k) {
    const Point& point = points[k - 1];
    result.num_proxies.push_back(k);
    result.saved_top10.push_back(point.top10.saved_fraction);
    result.saved_top4.push_back(point.top4.saved_fraction);
    result.storage_top10.push_back(
        static_cast<double>(point.top10.total_storage_bytes));
    result.storage_top4.push_back(
        static_cast<double>(point.top4.total_storage_bytes));
    result.saved_top10_tailored.push_back(point.tailored.saved_fraction);
  }
  return result;
}

Table Fig3Result::ToTable() const {
  Table table({"proxies", "saved(top10%)", "storage(top10%)",
               "saved(top4%)", "storage(top4%)", "saved(top10%,tailored)"});
  for (size_t i = 0; i < num_proxies.size(); ++i) {
    table.AddRow({std::to_string(num_proxies[i]),
                  FormatPercent(saved_top10[i], 1),
                  FormatBytes(storage_top10[i]),
                  FormatPercent(saved_top4[i], 1),
                  FormatBytes(storage_top4[i]),
                  FormatPercent(saved_top10_tailored[i], 1)});
  }
  return table;
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

Fig4Result RunFig4(const Workload& workload, double window, size_t bins,
                   uint32_t history_days) {
  spec::DependencyConfig config;
  config.window = window;
  config.stride_timeout = window;
  config.min_probability = 0.01;
  config.min_support = 3;
  const spec::SparseProbMatrix p = spec::EstimateDependencies(
      workload.NewCleanCursor().get(), workload.corpus().size(), config, 0.0,
      static_cast<double>(history_days) * kDay);

  // [0, 1] with the top edge inclusive: the k = 1 embedding-dependency
  // peak sits at exactly p = 1.0 and must land in the last bin.
  Histogram hist(0.0, 1.0, bins);
  for (trace::DocumentId i = 0; i < p.num_docs(); ++i) {
    for (const auto& e : p.Row(i)) hist.Add(e.probability);
  }

  Fig4Result result;
  result.total_pairs = p.NumEntries();
  for (size_t b = 0; b < hist.num_bins(); ++b) {
    result.bin_lo.push_back(hist.bin_lo(b));
    result.bin_count.push_back(hist.count(b));
  }
  const double min_peak =
      std::max(4.0, 0.005 * static_cast<double>(result.total_pairs));
  for (const size_t b : hist.PeakBins(min_peak)) {
    result.peak_centers.push_back((hist.bin_lo(b) + hist.bin_hi(b)) / 2.0);
  }
  return result;
}

Table Fig4Result::ToTable() const {
  Table table({"p_range_lo", "pairs"});
  for (size_t i = 0; i < bin_lo.size(); ++i) {
    table.AddRow({FormatDouble(bin_lo[i], 3),
                  FormatDouble(bin_count[i], 0)});
  }
  return table;
}

// ---------------------------------------------------------------------------
// Figures 5 & 6
// ---------------------------------------------------------------------------

Fig5Result RunFig5(const Workload& workload, const std::vector<double>& tps,
                   const SweepOptions& options) {
  std::vector<double> grid = tps;
  if (grid.empty()) {
    grid = {1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.05};
  }
  const spec::SpeculationConfig base = BaselineSpecConfig();
  SpecRuns runs(workload, base.dependency);

  Fig5Result result;
  const spec::RunTotals baseline = runs.RunBaseline(base);
  result.points = SweepMap(
      grid.size(), options,
      [&](size_t index, Rng&) {
        spec::SpeculationConfig config = base;
        config.policy.threshold = grid[index];
        config.closure.min_probability = std::min(0.02, grid[index]);
        SpecSweepPoint point;
        point.tp = grid[index];
        point.metrics = spec::ComputeMetrics(runs.Run(config), baseline);
        return point;
      },
      &result.sweep);
  return result;
}

Table Fig5Result::ToTable() const {
  Table table({"Tp", "bandwidth_ratio", "server_load_ratio",
               "service_time_ratio", "miss_rate_ratio", "extra_traffic"});
  for (const auto& p : points) {
    table.AddRow({FormatDouble(p.tp, 2),
                  FormatDouble(p.metrics.bandwidth_ratio, 4),
                  FormatDouble(p.metrics.server_load_ratio, 4),
                  FormatDouble(p.metrics.service_time_ratio, 4),
                  FormatDouble(p.metrics.miss_rate_ratio, 4),
                  FormatPercent(p.metrics.extra_traffic, 1)});
  }
  return table;
}

Table Fig5Result::ToFig6Table() const {
  Table table({"extra_traffic", "load_reduction", "time_reduction",
               "miss_reduction"});
  std::vector<const SpecSweepPoint*> sorted;
  for (const auto& p : points) sorted.push_back(&p);
  std::sort(sorted.begin(), sorted.end(),
            [](const SpecSweepPoint* a, const SpecSweepPoint* b) {
              return a->metrics.extra_traffic < b->metrics.extra_traffic;
            });
  for (const auto* p : sorted) {
    table.AddRow({FormatPercent(p->metrics.extra_traffic, 1),
                  FormatPercent(1.0 - p->metrics.server_load_ratio, 1),
                  FormatPercent(1.0 - p->metrics.service_time_ratio, 1),
                  FormatPercent(1.0 - p->metrics.miss_rate_ratio, 1)});
  }
  return table;
}

// ---------------------------------------------------------------------------
// Figure 7 — availability under fault injection
// ---------------------------------------------------------------------------

Fig7Result RunFig7(const Workload& workload,
                   const std::vector<double>& failure_rates,
                   const std::vector<uint32_t>& proxies,
                   const SweepOptions& options) {
  Fig7Result result;
  result.failure_rates = failure_rates;
  if (result.failure_rates.empty()) {
    result.failure_rates = {0.0, 0.02, 0.05, 0.10};
  }
  result.num_proxies = proxies;
  if (result.num_proxies.empty()) result.num_proxies = {1, 2, 4, 8};

  const size_t cols = result.num_proxies.size();
  // The schedule stream is keyed by the row (rate) only, so every proxy
  // count of one row replays the same outages; the offset keeps it
  // disjoint from the per-point streams below.
  const uint64_t schedule_seed = Rng::Mix(options.seed ^ 0xfa177au);
  const net::RetryPolicy retry = FaultRetryPolicy(/*jitter=*/0.1);
  const dissem::PreparedDissemination prepared = PrepareServer0(workload);
  result.cells = SweepMap(
      result.failure_rates.size() * cols, options,
      [&](size_t index, Rng& rng) {
        const size_t row = index / cols;
        Rng schedule_rng = MakePointRng(schedule_seed, row);
        const net::FaultSchedule schedule = net::GenerateFaultSchedule(
            workload.topology(),
            FaultInjection(workload, result.failure_rates[row],
                           /*zone_probability=*/0.0),
            &schedule_rng);

        dissem::DisseminationConfig config;
        config.num_proxies = result.num_proxies[index % cols];
        config.dissemination_fraction = 0.10;
        config.faults = &schedule;
        config.retry = retry;
        return SimulateServer0(workload, prepared, config, &rng);
      },
      &result.sweep);
  return result;
}

Table Fig7Result::ToTable() const {
  Table table({"fail rate/day", "proxies", "unavailable", "no-proxy unavail",
               "saved", "failovers", "retries", "degraded traffic"});
  for (size_t row = 0; row < failure_rates.size(); ++row) {
    for (size_t col = 0; col < num_proxies.size(); ++col) {
      const auto& c = cell(row, col);
      const double degraded_share =
          c.with_proxies_bytes_hops <= 0.0
              ? 0.0
              : c.degraded_bytes_hops / c.with_proxies_bytes_hops;
      table.AddRow({FormatDouble(failure_rates[row], 3),
                    std::to_string(num_proxies[col]),
                    FormatPercent(c.unavailable_fraction, 2),
                    FormatPercent(c.baseline_unavailable_fraction, 2),
                    FormatPercent(c.saved_fraction, 1),
                    std::to_string(c.failover_requests),
                    std::to_string(c.retry_attempts),
                    FormatPercent(degraded_share, 1)});
    }
  }
  return table;
}

// ---------------------------------------------------------------------------
// Figure 8 — resilience under cascading failures
// ---------------------------------------------------------------------------

const char* Fig8ProtectionToString(Fig8Protection level) {
  switch (level) {
    case Fig8Protection::kOff:
      return "off";
    case Fig8Protection::kBreakers:
      return "breakers";
    case Fig8Protection::kFull:
      return "full";
  }
  return "?";
}

namespace {

// The protection stack of one fig8 column. Load tracking is armed in every
// arm — the cascade engine is part of the simulated world, not a defense —
// so the arms differ only in breakers / budget / admission.
net::ProtectionConfig Fig8ProtectionStack(Fig8Protection level,
                                          const net::LoadTrackerConfig& load) {
  net::ProtectionConfig protection;
  protection.track_load = true;
  protection.load = load;
  if (level == Fig8Protection::kBreakers || level == Fig8Protection::kFull) {
    protection.circuit_breakers = true;
    protection.breaker.failure_threshold = 3;
    // Short cooldown: a recovered target is re-admitted within minutes of
    // its first post-recovery probe, so fail-fast never costs more than a
    // sliver of availability relative to the retry-everything arm.
    protection.breaker.cooldown_s = 900.0;
  }
  if (level == Fig8Protection::kFull) {
    protection.retry_budget = true;
    // Generous enough to cover legitimate failover (one or two retries per
    // affected request) while still capping a six-attempt storm; a tighter
    // ratio suppresses the first failover hop of sparse traffic and turns
    // servable requests into failures.
    protection.budget.window_s = 3600.0;
    protection.budget.max_retry_ratio = 3.0;
    protection.budget.min_retries_per_window = 20;
    protection.admission_control = true;
  }
  return protection;
}

}  // namespace

Fig8Result RunFig8(const Workload& workload,
                   const std::vector<double>& failure_rates,
                   const SweepOptions& options) {
  Fig8Result result;
  result.failure_rates = failure_rates;
  if (result.failure_rates.empty()) {
    result.failure_rates = {0.0, 0.05, 0.10, 0.20};
  }
  result.levels = {Fig8Protection::kOff, Fig8Protection::kBreakers,
                   Fig8Protection::kFull};

  const size_t cols = result.levels.size();
  // Row-keyed schedule stream, as in fig7: every protection stack of one
  // row replays the same (zone-correlated) outages, so the arms are
  // directly comparable.
  const uint64_t schedule_seed = Rng::Mix(options.seed ^ 0xf188e5u);
  // No jitter: the arms of one row must differ only through their
  // protection stacks, not through per-arm backoff luck — with jitter on,
  // a request can straddle an outage edge in one arm and not another,
  // which drowns the per-rate availability ordering in noise.
  const net::RetryPolicy retry = FaultRetryPolicy(/*jitter=*/0.0);
  const dissem::PreparedDissemination prepared = PrepareServer0(workload);

  // Capacity calibration: per-request service cost is set so the home
  // server *alone* would run at kSoloLoad x capacity over the evaluation
  // window. Healthy operation with proxies splits that load and stays
  // below the brownout threshold, but a dead or browned-out entity's
  // redirected share plus retry-storm overhead can push its failover
  // targets over it — the cascade fig8 measures.
  const double eval_span = std::max(1.0, prepared.span - prepared.split);
  const size_t eval_requests =
      std::max<size_t>(1, static_cast<size_t>(prepared.eval_requests));
  const double eval_bytes = prepared.eval_bytes;
  constexpr double kSoloLoad = 1.25;
  net::LoadTrackerConfig load;
  load.window_s = 12.0 * 3600.0;
  load.brownout_duration_s = 4.0 * 3600.0;
  load.utilization_threshold = 0.75;
  load.admission_threshold = 0.55;
  // ~85% of the solo load is per-request connection overhead (what retry
  // storms amplify), the rest is byte transfer.
  load.service_overhead_s =
      0.85 * kSoloLoad * eval_span / static_cast<double>(eval_requests);
  load.service_rate_bytes_per_s =
      eval_bytes <= 0.0 ? 1.5e6 : eval_bytes / (0.15 * kSoloLoad * eval_span);

  result.cells = SweepMap(
      result.failure_rates.size() * cols, options,
      [&](size_t index, Rng& rng) {
        const size_t row = index / cols;
        Rng schedule_rng = MakePointRng(schedule_seed, row);
        const net::FaultSchedule schedule = net::GenerateFaultSchedule(
            workload.topology(),
            FaultInjection(workload, result.failure_rates[row],
                           /*zone_probability=*/0.3),
            &schedule_rng);

        dissem::DisseminationConfig config;
        config.num_proxies = 8;
        config.dissemination_fraction = 0.10;
        config.faults = schedule.empty() ? nullptr : &schedule;
        config.retry = retry;
        config.protection =
            Fig8ProtectionStack(result.levels[index % cols], load);
        config.collect_service_times = true;

        Fig8Result::Cell cell;
        cell.sim = SimulateServer0(workload, prepared, config, &rng);
        cell.scheduled_events = schedule.size();
        cell.availability = 1.0 - cell.sim.unavailable_fraction;
        cell.retry_amplification =
            1.0 + static_cast<double>(cell.sim.retry_attempts) /
                      static_cast<double>(eval_requests);
        // Emergent brownouts per scheduled fault — how much failure the
        // system manufactured beyond what was injected. Degenerate with no
        // injected faults (any background brownouts are visible in the
        // emergent column), so report 0 there rather than a huge ratio.
        cell.cascade_depth =
            cell.scheduled_events == 0
                ? 0.0
                : static_cast<double>(cell.sim.emergent_brownouts) /
                      static_cast<double>(cell.scheduled_events);
        cell.goodput_bytes_per_s = cell.sim.served_bytes / eval_span;
        return cell;
      },
      &result.sweep);
  return result;
}

Table Fig8Result::ToTable() const {
  Table table({"fail rate/day", "protections", "availability", "retry amp",
               "cascade depth", "emergent", "breaker opens", "suppressed",
               "shed", "goodput B/s", "p99 service s"});
  for (size_t row = 0; row < failure_rates.size(); ++row) {
    for (size_t col = 0; col < levels.size(); ++col) {
      const Cell& c = cell(row, col);
      table.AddRow({FormatDouble(failure_rates[row], 3),
                    Fig8ProtectionToString(levels[col]),
                    FormatPercent(c.availability, 2),
                    FormatDouble(c.retry_amplification, 3),
                    FormatDouble(c.cascade_depth, 2),
                    std::to_string(c.sim.emergent_brownouts),
                    std::to_string(c.sim.breaker_open_transitions),
                    std::to_string(c.sim.retries_suppressed_by_budget),
                    std::to_string(c.sim.shed_replica_requests),
                    FormatDouble(c.goodput_bytes_per_s, 0),
                    FormatDouble(c.sim.p99_service_s, 3)});
    }
  }
  return table;
}

// ---------------------------------------------------------------------------
// Figure 9 — randomized load balancing vs the static optimum
// ---------------------------------------------------------------------------

const char* Fig9PolicyToString(Fig9Policy policy) {
  switch (policy) {
    case Fig9Policy::kStatic:
      return "static";
    case Fig9Policy::kDChoice:
      return "d-choice";
    case Fig9Policy::kProximity:
      return "proximity";
  }
  return "?";
}

Fig9Result RunFig9(const Workload& workload,
                   const std::vector<double>& storage_fractions,
                   const std::vector<uint32_t>& proxies,
                   const std::vector<uint32_t>& d_values,
                   const SweepOptions& options) {
  Fig9Result result;
  std::vector<double> storages = storage_fractions;
  if (storages.empty()) storages = {0.04, 0.10};
  std::vector<uint32_t> proxy_counts = proxies;
  if (proxy_counts.empty()) proxy_counts = {2, 4, 8};
  std::vector<uint32_t> ds = d_values;
  if (ds.empty()) ds = {2, 4};

  for (const double storage : storages) {
    for (const uint32_t k : proxy_counts) {
      result.rows.push_back({storage, k});
    }
  }
  for (const bool faulted : {false, true}) {
    result.arms.push_back({Fig9Policy::kStatic, 1, faulted});
    for (const uint32_t d : ds) {
      result.arms.push_back({Fig9Policy::kDChoice, d, faulted});
    }
    result.arms.push_back({Fig9Policy::kProximity, 1, faulted});
  }
  const size_t cols = result.arms.size();

  // No jitter: the arms of one row must differ only through their
  // selection/allocation policies, not through per-arm backoff luck.
  const net::RetryPolicy retry = FaultRetryPolicy(/*jitter=*/0.0);
  const dissem::PreparedDissemination prepared = PrepareServer0(workload);

  // One shared fault overlay for every faulted cell: the environment does
  // not depend on the row, so a single schedule keeps all faulted arms
  // directly comparable. Zone-correlated random outages from a stream that
  // is a pure function of the seed, plus deterministic server-brownout
  // windows (every third evaluation day, 6 hours) — deterministic on both
  // the batch and streaming paths, unlike trace-derived brownouts.
  const net::FaultInjectionConfig fault_config =
      FaultInjection(workload, /*rate=*/0.05, /*zone_probability=*/0.3);
  const double horizon_days = fault_config.horizon_days;
  Rng schedule_rng = MakePointRng(Rng::Mix(options.seed ^ 0xf199baau), 0);
  net::FaultSchedule schedule = net::GenerateFaultSchedule(
      workload.topology(), fault_config, &schedule_rng);
  const long first_eval_day = static_cast<long>(prepared.split / kDay) + 1;
  for (long day = first_eval_day; day < static_cast<long>(horizon_days);
       day += 3) {
    const double start = static_cast<double>(day) * kDay + 12.0 * 3600.0;
    schedule.Add({net::FaultKind::kServerBrownout, /*id=*/0, start,
                  start + 6.0 * 3600.0});
  }

  result.cells = SweepMap(
      result.rows.size() * cols, options,
      [&](size_t index, Rng& rng) {
        const Fig9Result::Row& row = result.rows[index / cols];
        const Fig9Result::Arm& arm = result.arms[index % cols];

        dissem::DisseminationConfig config;
        config.dissemination_fraction = row.storage_fraction;
        config.num_proxies = row.num_proxies;
        switch (arm.policy) {
          case Fig9Policy::kStatic:
            break;
          case Fig9Policy::kDChoice:
            config.selection_d = arm.d;
            break;
          case Fig9Policy::kProximity:
            config.placement = dissem::PlacementStrategy::kProximity;
            config.proximity_allocation = true;
            break;
        }
        if (arm.faulted) {
          config.faults = &schedule;
          config.retry = retry;
        }

        Fig9Result::Cell cell;
        cell.sim = SimulateServer0(workload, prepared, config, &rng);
        cell.availability = 1.0 - cell.sim.unavailable_fraction;
        return cell;
      },
      &result.sweep);
  return result;
}

Table Fig9Result::ToTable() const {
  Table table({"storage", "proxies", "policy", "d", "faults", "saved",
               "proxy hits", "max/mean", "p99/mean", "availability"});
  for (size_t row = 0; row < rows.size(); ++row) {
    for (size_t col = 0; col < arms.size(); ++col) {
      const Cell& c = cell(row, col);
      const Arm& arm = arms[col];
      table.AddRow({FormatPercent(rows[row].storage_fraction, 0),
                    std::to_string(rows[row].num_proxies),
                    Fig9PolicyToString(arm.policy), std::to_string(arm.d),
                    arm.faulted ? "yes" : "no",
                    FormatPercent(c.sim.saved_fraction, 1),
                    FormatPercent(c.sim.proxy_hit_fraction, 1),
                    FormatDouble(c.sim.load_imbalance_max_mean, 3),
                    FormatDouble(c.sim.load_imbalance_p99_mean, 3),
                    FormatPercent(c.availability, 2)});
    }
  }
  return table;
}

// ---------------------------------------------------------------------------
// E1 — update cycle / history length
// ---------------------------------------------------------------------------

ExpUpdateCycleResult RunExpUpdateCycle(const Workload& workload, double tp,
                                       const SweepOptions& options) {
  spec::SpeculationConfig base = BaselineSpecConfig();
  base.policy.threshold = tp;
  SpecRuns runs(workload, base.dependency);

  ExpUpdateCycleResult result;
  const struct {
    uint32_t d;
    uint32_t d_prime;
  } cases[] = {{1, 60}, {7, 60}, {60, 60}, {1, 30}, {7, 30}};
  result.rows = SweepMap(
      std::size(cases), options,
      [&](size_t index, Rng&) {
        spec::SpeculationConfig config = base;
        config.update_cycle_days = cases[index].d;
        config.history_days = cases[index].d_prime;
        ExpUpdateCycleResult::Row row;
        row.update_cycle_days = cases[index].d;
        row.history_days = cases[index].d_prime;
        row.metrics = runs.Evaluate(config);
        return row;
      },
      &result.sweep);
  return result;
}

double ExpUpdateCycleResult::MeanDegradation(size_t row) const {
  SDS_CHECK(!rows.empty() && row < rows.size());
  const auto& base = rows[0].metrics;
  const auto& m = rows[row].metrics;
  const double d_load = m.server_load_ratio - base.server_load_ratio;
  const double d_time = m.service_time_ratio - base.service_time_ratio;
  const double d_miss = m.miss_rate_ratio - base.miss_rate_ratio;
  return (d_load + d_time + d_miss) / 3.0;
}

Table ExpUpdateCycleResult::ToTable() const {
  Table table({"update_cycle_D", "history_D'", "load_ratio", "time_ratio",
               "miss_ratio", "extra_traffic", "degradation_vs_D1"});
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    table.AddRow({std::to_string(r.update_cycle_days),
                  std::to_string(r.history_days),
                  FormatDouble(r.metrics.server_load_ratio, 4),
                  FormatDouble(r.metrics.service_time_ratio, 4),
                  FormatDouble(r.metrics.miss_rate_ratio, 4),
                  FormatPercent(r.metrics.extra_traffic, 1),
                  FormatPercent(MeanDegradation(i), 2)});
  }
  return table;
}

// ---------------------------------------------------------------------------
// E2 — MaxSize
// ---------------------------------------------------------------------------

ExpMaxSizeResult RunExpMaxSize(const Workload& workload, double tp,
                               const SweepOptions& options) {
  spec::SpeculationConfig base = BaselineSpecConfig();
  base.policy.threshold = tp;
  SpecRuns runs(workload, base.dependency);

  // The rows vary only policy.max_size, which the baseline never reads.
  const spec::RunTotals baseline = runs.RunBaseline(base);
  ExpMaxSizeResult result;
  const uint64_t kKb = 1024;
  const uint64_t sizes[] = {2 * kKb,  4 * kKb,   8 * kKb,   15 * kKb,
                            29 * kKb, 64 * kKb,  256 * kKb, 0};
  result.rows = SweepMap(
      std::size(sizes), options,
      [&](size_t index, Rng&) {
        spec::SpeculationConfig config = base;
        config.policy.max_size = sizes[index];
        ExpMaxSizeResult::Row row;
        row.max_size = sizes[index];
        row.metrics = spec::ComputeMetrics(runs.Run(config), baseline);
        return row;
      },
      &result.sweep);
  return result;
}

Table ExpMaxSizeResult::ToTable() const {
  Table table({"MaxSize", "extra_traffic", "load_reduction",
               "time_reduction", "miss_reduction"});
  for (const auto& r : rows) {
    table.AddRow({r.max_size == 0 ? "unlimited" : FormatBytes(
                      static_cast<double>(r.max_size)),
                  FormatPercent(r.metrics.extra_traffic, 1),
                  FormatPercent(1.0 - r.metrics.server_load_ratio, 1),
                  FormatPercent(1.0 - r.metrics.service_time_ratio, 1),
                  FormatPercent(1.0 - r.metrics.miss_rate_ratio, 1)});
  }
  return table;
}

// ---------------------------------------------------------------------------
// E3 — client caching
// ---------------------------------------------------------------------------

ExpClientCachingResult RunExpClientCaching(const Workload& workload,
                                           double tp,
                                           const SweepOptions& options) {
  spec::SpeculationConfig base = BaselineSpecConfig();
  base.policy.threshold = tp;
  SpecRuns runs(workload, base.dependency);

  ExpClientCachingResult result;
  const ExpClientCachingResult::Row cases[] = {
      {"no cache (SessionTimeout=0)", 0.0, 0, {}},
      {"single-session (1h)", 3600.0, 0, {}},
      {"finite LRU 256 KB, multi-session", kInfiniteTime, 256 * 1024, {}},
      {"infinite multi-session", kInfiniteTime, 0, {}},
  };
  result.rows = SweepMap(
      std::size(cases), options,
      [&](size_t index, Rng&) {
        spec::SpeculationConfig config = base;
        config.cache.session_timeout = cases[index].session_timeout;
        config.cache.capacity_bytes = cases[index].capacity;
        ExpClientCachingResult::Row row = cases[index];
        row.metrics = runs.Evaluate(config);
        return row;
      },
      &result.sweep);
  return result;
}

Table ExpClientCachingResult::ToTable() const {
  Table table({"client_cache", "extra_traffic", "load_reduction",
               "time_reduction", "miss_reduction"});
  for (const auto& r : rows) {
    table.AddRow({r.label, FormatPercent(r.metrics.extra_traffic, 1),
                  FormatPercent(1.0 - r.metrics.server_load_ratio, 1),
                  FormatPercent(1.0 - r.metrics.service_time_ratio, 1),
                  FormatPercent(1.0 - r.metrics.miss_rate_ratio, 1)});
  }
  return table;
}

// ---------------------------------------------------------------------------
// E4 — cooperative clients
// ---------------------------------------------------------------------------

ExpCooperativeResult RunExpCooperative(const Workload& workload,
                                       const SweepOptions& options) {
  const spec::SpeculationConfig base = BaselineSpecConfig();
  SpecRuns runs(workload, base.dependency);

  // The rows vary the threshold and cooperative_clients, which the
  // baseline never reads.
  const spec::RunTotals baseline = runs.RunBaseline(base);
  const double tps[] = {0.5, 0.25, 0.1};
  ExpCooperativeResult result;
  result.rows = SweepMap(
      std::size(tps) * 2, options,
      [&](size_t index, Rng&) {
        spec::SpeculationConfig config = base;
        config.policy.threshold = tps[index / 2];
        config.cooperative_clients = (index % 2) != 0;
        ExpCooperativeResult::Row row;
        row.cooperative = config.cooperative_clients;
        row.tp = config.policy.threshold;
        row.metrics = spec::ComputeMetrics(runs.Run(config), baseline);
        return row;
      },
      &result.sweep);
  return result;
}

Table ExpCooperativeResult::ToTable() const {
  Table table({"Tp", "cooperative", "extra_traffic", "load_reduction",
               "wasted_spec_bytes"});
  for (const auto& r : rows) {
    table.AddRow(
        {FormatDouble(r.tp, 2), r.cooperative ? "yes" : "no",
         FormatPercent(r.metrics.extra_traffic, 1),
         FormatPercent(1.0 - r.metrics.server_load_ratio, 1),
         FormatBytes(r.metrics.with_speculation.wasted_speculative_bytes)});
  }
  return table;
}

// ---------------------------------------------------------------------------
// E5 — prefetching modes
// ---------------------------------------------------------------------------

ExpPrefetchResult RunExpPrefetch(const Workload& workload, double tp,
                                 const SweepOptions& options) {
  spec::SpeculationConfig base = BaselineSpecConfig();
  base.policy.threshold = tp;
  // Client-initiated prefetching is only meaningful against a cache that
  // forgets: with the baseline infinite multi-session cache everything a
  // user's profile knows about is already cached. Use the single-session
  // cache of the paper's client-prefetch study.
  base.cache.session_timeout = kHour;
  SpecRuns runs(workload, base.dependency);

  const spec::ServiceMode modes[] = {
      spec::ServiceMode::kSpeculativePush, spec::ServiceMode::kServerHints,
      spec::ServiceMode::kClientPrefetch, spec::ServiceMode::kHybrid};
  ExpPrefetchResult result;
  result.rows = SweepMap(
      std::size(modes), options,
      [&](size_t index, Rng&) {
        spec::SpeculationConfig config = base;
        config.mode = modes[index];
        ExpPrefetchResult::Row row;
        row.mode = modes[index];
        row.metrics = runs.Evaluate(config);
        return row;
      },
      &result.sweep);
  return result;
}

Table ExpPrefetchResult::ToTable() const {
  Table table({"mode", "extra_traffic", "load_ratio", "time_reduction",
               "miss_reduction", "spec_hits"});
  for (const auto& r : rows) {
    table.AddRow(
        {spec::ServiceModeToString(r.mode),
         FormatPercent(r.metrics.extra_traffic, 1),
         FormatDouble(r.metrics.server_load_ratio, 4),
         FormatPercent(1.0 - r.metrics.service_time_ratio, 1),
         FormatPercent(1.0 - r.metrics.miss_rate_ratio, 1),
         std::to_string(r.metrics.with_speculation.speculative_hits)});
  }
  return table;
}

}  // namespace sds::core
