/// \file
/// Figure 8 (this reproduction's extension): resilience under cascading
/// failures. Sweeps failure rate x protection stack over the dissemination
/// simulator with the cascade engine armed — offered load is tracked per
/// proxy/server during the replay, redirected failover and retry traffic
/// counts toward the target's load, and crossing the threshold trips an
/// emergent brownout mid-run. The arms compare no defenses, circuit
/// breakers, and the full stack (breakers + retry budget + admission
/// control); a second section drives the speculation simulator into
/// load-shed and breaker territory.
///
/// Expected shape: the unprotected system collapses super-linearly as the
/// failure rate grows (retry storms keep overloaded targets pinned down),
/// while the full stack flattens the cascade: retry amplification is
/// strictly lower under the budget and availability stays no worse at
/// every swept rate — up to a vanishing tail (a fail-fast client can
/// forgo a recovery that lands late in the backoff ladder it skipped).
///
/// `--smoke` runs a reduced grid on the small workload (CI bit-rot guard).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "net/faults.h"
#include "spec/simulator.h"
#include "util/ascii_chart.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  const bool smoke = bench_args.smoke;
  bench::BenchReport bench_report("fig8_resilience");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("fig8_resilience",
                     "Figure 8 (cascading failures vs self-protection)");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const std::vector<double> rates =
      smoke ? std::vector<double>{0.0, 0.10} : std::vector<double>{};
  const core::Fig8Result result =
      bench_report.Stage("run", [&] { return core::RunFig8(workload, rates); });
  std::printf("%s\n", result.ToTable().ToAlignedString().c_str());
  std::printf("%s\n\n", result.sweep.Summary().c_str());

  // Flat report keys for the perf-smoke diff: the two headline curves.
  const size_t last_row = result.failure_rates.size() - 1;
  const auto level_index = [&](core::Fig8Protection level) {
    for (size_t i = 0; i < result.levels.size(); ++i) {
      if (result.levels[i] == level) return i;
    }
    return size_t{0};
  };
  const auto& worst_off =
      result.cell(last_row, level_index(core::Fig8Protection::kOff));
  const auto& worst_full =
      result.cell(last_row, level_index(core::Fig8Protection::kFull));
  bench_report.Metric("availability_off_worst", worst_off.availability);
  bench_report.Metric("availability_full_worst", worst_full.availability);
  bench_report.Metric("retry_amp_off_worst", worst_off.retry_amplification);
  bench_report.Metric("retry_amp_full_worst", worst_full.retry_amplification);
  bench_report.Metric("cascade_depth_off_worst", worst_off.cascade_depth);
  bench_report.Metric("cascade_depth_full_worst", worst_full.cascade_depth);
  bench_report.Metric(
      "emergent_brownouts_off_worst",
      static_cast<double>(worst_off.sim.emergent_brownouts));
  bench_report.Metric(
      "emergent_brownouts_full_worst",
      static_cast<double>(worst_full.sim.emergent_brownouts));

  if (!smoke) {
    AsciiChart chart(72, 16);
    for (size_t col = 0; col < result.levels.size(); ++col) {
      std::vector<double> ys;
      for (size_t row = 0; row < result.failure_rates.size(); ++row) {
        ys.push_back(result.cell(row, col).availability);
      }
      chart.AddSeries(core::Fig8ProtectionToString(result.levels[col]),
                      result.failure_rates, ys);
    }
    std::printf("availability vs failure rate, by protection stack\n%s\n",
                chart.Render().c_str());
  }

  // --- Speculative service under the same machinery: a deliberately tight
  // tracker sheds speculation under load (emergent brownouts + admission),
  // and scheduled outages exercise the breaker/budget path. ---
  spec::SpeculationConfig config = core::BaselineSpecConfig();
  config.policy.threshold = 0.25;
  core::SpecRuns runs(workload, config.dependency);
  const spec::SpeculationMetrics healthy = runs.Evaluate(config);

  // Tight capacity: the eval-window request rate alone exceeds the
  // admission threshold, so speculative pushes are shed mid-run.
  const double span = workload.clean_span();
  spec::SpeculationConfig overloaded = config;
  overloaded.protection.track_load = true;
  overloaded.protection.load.window_s = 12.0 * 3600.0;
  overloaded.protection.load.brownout_duration_s = 4.0 * 3600.0;
  overloaded.protection.load.service_overhead_s =
      1.5 * span / static_cast<double>(workload.filter_stats().kept);
  overloaded.protection.load.service_rate_bytes_per_s = 1e12;
  overloaded.protection.admission_control = true;
  const spec::SpeculationMetrics shed = runs.Evaluate(overloaded);

  net::FaultSchedule schedule;
  net::FaultInjectionConfig fault_config;
  fault_config.horizon_days = span / kDay + 1.0;
  // High enough that even the 14-day smoke trace draws several outages.
  fault_config.server_failure_rate_per_day = 0.5;
  fault_config.mean_outage_days = 0.5;
  Rng fault_rng(271828);
  schedule = net::GenerateFaultSchedule(workload.topology(), fault_config,
                                        &fault_rng);
  spec::SpeculationConfig protected_outages = overloaded;
  protected_outages.faults = &schedule;
  protected_outages.retry.max_attempts = 4;
  protected_outages.retry.jitter = 0.1;
  protected_outages.retry_jitter_seed = 314159;
  protected_outages.protection.circuit_breakers = true;
  protected_outages.protection.retry_budget = true;
  protected_outages.protection.budget.max_retry_ratio = 0.05;
  protected_outages.protection.budget.min_retries_per_window = 1;
  const spec::SpeculationMetrics stormy = runs.Evaluate(protected_outages);

  Table spec_table({"run", "bandwidth", "unavailable", "emergent", "shed",
                    "fast fails", "suppressed retries"});
  const auto add_spec_row = [&](const char* label,
                                const spec::SpeculationMetrics& m) {
    spec_table.AddRow(
        {label, FormatDouble(m.bandwidth_ratio, 4),
         FormatPercent(m.unavailable_request_fraction, 2),
         std::to_string(m.with_speculation.emergent_brownouts),
         std::to_string(m.with_speculation.shed_speculative_docs),
         std::to_string(m.with_speculation.breaker_fast_fails),
         std::to_string(m.with_speculation.retries_suppressed_by_budget)});
  };
  add_spec_row("healthy", healthy);
  add_spec_row("overloaded, admission control", shed);
  add_spec_row("outages, full protection", stormy);
  std::printf(
      "speculative service under the cascade engine: a tight capacity model\n"
      "sheds pushes via admission control; scheduled outages (0.5/day)\n"
      "exercise breakers and the retry budget\n%s\n",
      spec_table.ToAlignedString().c_str());
  bench_report.Metric(
      "spec_shed_speculative_docs",
      static_cast<double>(shed.with_speculation.shed_speculative_docs));
  bench_report.Metric(
      "spec_breaker_fast_fails",
      static_cast<double>(stormy.with_speculation.breaker_fast_fails));

  bench_report.RequestsProcessed(
      static_cast<double>(result.cells.size()) *
      static_cast<double>(workload.filter_stats().kept));
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
