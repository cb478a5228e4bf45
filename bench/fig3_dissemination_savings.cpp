/// \file
/// Figure 3: percentage of remote bandwidth (bytes x hops) saved by
/// disseminating the most popular 10% / 4% of the server's data to an
/// increasing number of service proxies, placed on the clientele tree.
///
/// Paper shape: savings grow steeply for the first few proxies and
/// saturate (up to ~40% traffic reduction); the 10% curve dominates the 4%
/// curve; tailored (geographic) dissemination does better still.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "util/ascii_chart.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("fig3_dissemination_savings");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("fig3_dissemination_savings",
                     "Figure 3 (bandwidth saved by dissemination)");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const core::Fig3Result result = bench_report.Stage(
      "run", [&] { return core::RunFig3(workload, /*max_proxies=*/16); });
  std::printf("%s\n", result.ToTable().ToAlignedString().c_str());
  std::printf("%s\n\n", result.sweep.Summary().c_str());

  AsciiChart chart(72, 16);
  std::vector<double> xs;
  for (const uint32_t k : result.num_proxies) {
    xs.push_back(static_cast<double>(k));
  }
  chart.AddSeries("top 10% disseminated", xs, result.saved_top10);
  chart.AddSeries("top 4% disseminated", xs, result.saved_top4);
  chart.AddSeries("top 10%, tailored per proxy", xs,
                  result.saved_top10_tailored);
  std::printf("saved fraction vs number of proxies\n%s\n",
              chart.Render().c_str());
  bench_report.RequestsProcessed(
      16.0 * 3.0 * static_cast<double>(workload.filter_stats().kept));
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
