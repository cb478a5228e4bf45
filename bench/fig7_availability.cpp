/// \file
/// Figure 7 (this reproduction's extension): availability under fault
/// injection. Sweeps failure rate x number of proxies over the
/// dissemination simulator with node/link/server outages overlaid and
/// retry-with-backoff clients, then shows the speculation simulator
/// degrading gracefully through server outages and load brownouts.
///
/// Expected shape: at any fixed failure rate the unavailable-request
/// fraction falls as proxies are added (replicas keep documents reachable
/// while the home server is down), far below the no-proxy baseline; the
/// residual floor is the non-disseminated traffic share.
///
/// `--smoke` runs a reduced grid on the small workload (CI bit-rot guard).

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "net/faults.h"
#include "util/ascii_chart.h"
#include "util/table.h"

namespace {

/// Lowers the brownout threshold until at least `min_days` of `load`
/// trip, so the demo exercises brownouts whatever the absolute load is.
sds::net::BrownoutConfig TunedBrownouts(const sds::net::DailyLoad& load,
                                        uint32_t min_days) {
  sds::net::BrownoutConfig config;
  while (config.utilization_threshold > 1e-9) {
    sds::net::FaultSchedule scratch;
    if (sds::net::AddLoadBrownouts(load, config, &scratch) >= min_days) {
      break;
    }
    config.utilization_threshold /= 2.0;
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  const bool smoke = bench_args.smoke;
  bench::BenchReport bench_report("fig7_availability");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("fig7_availability",
                     "Figure 7 (availability under fault injection)");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const std::vector<double> rates =
      smoke ? std::vector<double>{0.05} : std::vector<double>{};
  const std::vector<uint32_t> proxies =
      smoke ? std::vector<uint32_t>{1, 2, 4} : std::vector<uint32_t>{};
  const core::Fig7Result result = bench_report.Stage(
      "run", [&] { return core::RunFig7(workload, rates, proxies); });
  std::printf("%s\n", result.ToTable().ToAlignedString().c_str());
  std::printf("%s\n\n", result.sweep.Summary().c_str());

  if (!smoke) {
    AsciiChart chart(72, 16);
    std::vector<double> xs;
    for (const uint32_t k : result.num_proxies) {
      xs.push_back(static_cast<double>(k));
    }
    for (size_t row = 0; row < result.failure_rates.size(); ++row) {
      if (result.failure_rates[row] <= 0.0) continue;
      std::vector<double> ys;
      for (size_t col = 0; col < result.num_proxies.size(); ++col) {
        ys.push_back(result.cell(row, col).unavailable_fraction);
      }
      char label[64];
      std::snprintf(label, sizeof(label), "fail rate %.2f/day",
                    result.failure_rates[row]);
      chart.AddSeries(label, xs, ys);
    }
    std::printf("unavailable-request fraction vs number of proxies\n%s\n",
                chart.Render().c_str());
  }

  // --- Speculative service through outages and brownouts. ---
  net::FaultSchedule schedule;
  net::FaultInjectionConfig fault_config;
  fault_config.horizon_days = workload.clean_span() / kDay + 1.0;
  fault_config.server_failure_rate_per_day = 0.05;
  fault_config.mean_outage_days = 0.5;
  Rng fault_rng(271828);
  schedule = net::GenerateFaultSchedule(workload.topology(), fault_config,
                                        &fault_rng);
  const net::DailyLoad load =
      net::CountDailyLoad(workload.NewCleanCursor().get(), /*server=*/0);
  const net::BrownoutConfig brownouts = TunedBrownouts(load, smoke ? 2 : 10);
  const uint32_t brownout_days =
      net::AddLoadBrownouts(load, brownouts, &schedule);

  spec::SpeculationConfig config = core::BaselineSpecConfig();
  config.policy.threshold = 0.25;
  core::SpecRuns runs(workload, config.dependency);
  const spec::SpeculationMetrics healthy = runs.Evaluate(config);
  config.faults = &schedule;
  config.retry.max_attempts = 4;
  config.retry.jitter = 0.1;
  config.retry_jitter_seed = 314159;
  const spec::SpeculationMetrics degraded = runs.Evaluate(config);

  Table spec_table({"run", "bandwidth", "server load", "unavailable",
                    "retries", "suppressed pushes"});
  const auto add_spec_row = [&](const char* label,
                                const spec::SpeculationMetrics& m) {
    spec_table.AddRow(
        {label, FormatDouble(m.bandwidth_ratio, 4),
         FormatDouble(m.server_load_ratio, 4),
         FormatPercent(m.unavailable_request_fraction, 2),
         std::to_string(m.with_speculation.retry_attempts),
         std::to_string(m.with_speculation.suppressed_speculative_docs)});
  };
  add_spec_row("healthy", healthy);
  add_spec_row("faults injected", degraded);
  std::printf(
      "speculative service with server outages (0.05/day) and %u brownout\n"
      "days (threshold %.4g utilization): pushes shed during brownouts,\n"
      "misses retried with backoff during outages\n%s\n",
      brownout_days, brownouts.utilization_threshold,
      spec_table.ToAlignedString().c_str());
  bench_report.RequestsProcessed(
      static_cast<double>(result.cells.size()) *
      static_cast<double>(workload.filter_stats().kept));
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
