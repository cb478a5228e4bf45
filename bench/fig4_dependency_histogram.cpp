/// \file
/// Figure 4: histogram of document pairs (D_i, D_j) over ranges of
/// p[i, j], estimated with T_w = 5 s from one month of trace.
///
/// Paper shape: a series of peaks near p = 1/k (links are followed with
/// roughly equal probability, and anchors per page are integral), with the
/// rightmost peak (p = 1) produced by embedding dependencies.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "util/histogram.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("fig4_dependency_histogram");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("fig4_dependency_histogram",
                     "Figure 4 (pairs per range of p[i,j])");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const core::Fig4Result result = bench_report.Stage(
      "run", [&] { return core::RunFig4(workload); });
  std::printf("dependency pairs: %zu\n", result.total_pairs);
  std::printf("detected peaks near p = ");
  for (const double c : result.peak_centers) std::printf("%.3f ", c);
  std::printf("(expect values near 1, 1/2, 1/3, ...)\n\n");

  Histogram hist(0.0, 1.0, result.bin_lo.size());
  for (size_t i = 0; i < result.bin_lo.size(); ++i) {
    hist.Add(result.bin_lo[i] + 1e-6, result.bin_count[i]);
  }
  std::printf("%s\n", hist.Render(56).c_str());
  bench_report.RequestsProcessed(
      static_cast<double>(workload.filter_stats().kept));
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
