/// \file
/// Figure 5: baseline speculative service. Sweeps the speculation threshold
/// T_p under the paper's baseline parameters and reports the four ratios
/// (bandwidth, server load, service time, client miss rate).
///
/// Paper anchors: 5% extra bandwidth -> ~30% server-load / ~23% service-
/// time / ~18% miss-rate reduction; 10% -> 35/27/23; speculation saturates
/// past ~50% extra traffic.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "util/ascii_chart.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("fig5_speculation_baseline");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("fig5_speculation_baseline",
                     "Figure 5 (baseline simulation results)");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const core::Fig5Result result = bench_report.Stage(
      "run", [&] { return core::RunFig5(workload); });
  std::printf("%s\n", result.ToTable().ToAlignedString().c_str());
  std::printf("%s\n\n", result.sweep.Summary().c_str());

  AsciiChart chart(72, 18);
  std::vector<double> tps, bw, load, time, miss;
  for (const auto& p : result.points) {
    tps.push_back(p.tp);
    bw.push_back(p.metrics.bandwidth_ratio);
    load.push_back(p.metrics.server_load_ratio);
    time.push_back(p.metrics.service_time_ratio);
    miss.push_back(p.metrics.miss_rate_ratio);
  }
  chart.AddSeries("bandwidth ratio", tps, bw);
  chart.AddSeries("server load ratio", tps, load);
  chart.AddSeries("service time ratio", tps, time);
  chart.AddSeries("miss rate ratio", tps, miss);
  std::printf("ratios vs Tp (x axis: Tp)\n%s\n", chart.Render().c_str());
  // points + 1 full-trace replays (one speculative run per point plus the
  // shared baseline).
  bench_report.RequestsProcessed(
      static_cast<double>(result.points.size() + 1) *
      static_cast<double>(workload.filter_stats().kept));
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
