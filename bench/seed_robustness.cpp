/// \file
/// Robustness: the headline reproduced numbers across independent workload
/// seeds. A reproduction whose anchors only hold for one lucky trace is no
/// reproduction; this bench reruns the key figures on several freshly
/// generated workloads and reports mean +/- stddev.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "core/workload.h"
#include "dissem/simulator.h"
#include "spec/simulator.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

std::string MeanSd(const sds::RunningStats& stats, int digits = 1) {
  return sds::FormatPercent(stats.mean(), digits) + " +/- " +
         sds::FormatPercent(stats.stddev(), digits);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("seed_robustness");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("seed_robustness",
                     "headline anchors across workload seeds");

  RunningStats fig1_top05, fig3_saved, load_5pct_band, load_30pct_band,
      traffic_at_03;
  double replayed = 0.0;
  const uint64_t seeds[] = {1, 2026, 555, 90210, 31337};
  for (const uint64_t seed : seeds) {
    core::WorkloadConfig config = bench::BenchWorkloadConfig(bench_args);
    config.seed = seed;
    const core::Workload workload = core::MakeWorkload(config);

    fig1_top05.Add(core::RunFig1(workload).top_half_percent_coverage);

    Rng rng(seed);
    dissem::DisseminationConfig dconfig;
    dconfig.num_proxies = 4;
    const auto prepared = core::PrepareServer0(workload);
    fig3_saved.Add(
        core::SimulateServer0(workload, prepared, dconfig, &rng)
            .saved_fraction);
    replayed += static_cast<double>(prepared.eval_requests);

    spec::SpeculationConfig sconfig = core::BaselineSpecConfig();
    core::SpecRuns runs(workload, sconfig.dependency);
    sconfig.policy.threshold = 0.8;  // the ~+3-5% traffic point
    const auto modest = runs.Evaluate(sconfig);
    load_5pct_band.Add(1.0 - modest.server_load_ratio);
    sconfig.policy.threshold = 0.3;
    const auto aggressive = runs.Evaluate(sconfig);
    load_30pct_band.Add(1.0 - aggressive.server_load_ratio);
    traffic_at_03.Add(aggressive.extra_traffic);
    // Each Evaluate replays its config and the mode-kNone twin.
    replayed += static_cast<double>(
        modest.with_speculation.client_requests +
        modest.without_speculation.client_requests +
        aggressive.with_speculation.client_requests +
        aggressive.without_speculation.client_requests);
    std::printf("seed %llu done\n", static_cast<unsigned long long>(seed));
  }

  Table table({"anchor", "paper", "mean +/- sd over seeds"});
  table.AddRow({"Fig1: top 0.5% byte coverage", "69%", MeanSd(fig1_top05)});
  table.AddRow({"Fig3: saved bytes x hops (4 proxies, 10%)", "~40%",
                MeanSd(fig3_saved)});
  table.AddRow({"Fig5: load cut at Tp=0.8 (~3-5% traffic)", "~30%",
                MeanSd(load_5pct_band)});
  table.AddRow({"Fig5: load cut at Tp=0.3", "~42-45%",
                MeanSd(load_30pct_band)});
  table.AddRow({"Fig5: extra traffic at Tp=0.3", "tens of %",
                MeanSd(traffic_at_03)});
  std::printf("\n%s", table.ToAlignedString().c_str());
  bench_report.RequestsProcessed(replayed);
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
