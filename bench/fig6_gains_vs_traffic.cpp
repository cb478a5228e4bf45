/// \file
/// Figure 6: performance gains of speculative service as a function of the
/// extra traffic invested (re-plot of the Figure 5 sweep).
///
/// Paper anchors: +5% traffic -> -30% server load / -23% service time /
/// -18% miss rate; +10% -> 35/27/23; +50% -> 45/40/35; the second +50%
/// adds only ~7/6/2 more (diminishing returns).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "util/ascii_chart.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("fig6_gains_vs_traffic");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("fig6_gains_vs_traffic",
                     "Figure 6 (performance gains versus bandwidth used)");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const core::Fig5Result sweep = bench_report.Stage(
      "run", [&] { return core::RunFig5(workload); });
  std::printf("%s\n", sweep.ToFig6Table().ToAlignedString().c_str());
  std::printf("%s\n\n", sweep.sweep.Summary().c_str());

  AsciiChart chart(72, 16);
  std::vector<double> traffic, load, time, miss;
  for (const auto& p : sweep.points) {
    traffic.push_back(p.metrics.extra_traffic);
    load.push_back(1.0 - p.metrics.server_load_ratio);
    time.push_back(1.0 - p.metrics.service_time_ratio);
    miss.push_back(1.0 - p.metrics.miss_rate_ratio);
  }
  chart.AddSeries("server load reduction", traffic, load);
  chart.AddSeries("service time reduction", traffic, time);
  chart.AddSeries("miss rate reduction", traffic, miss);
  std::printf("reductions vs extra traffic fraction\n%s\n",
              chart.Render().c_str());
  bench_report.RequestsProcessed(
      static_cast<double>(sweep.points.size() + 1) *
      static_cast<double>(workload.filter_stats().kept));
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
