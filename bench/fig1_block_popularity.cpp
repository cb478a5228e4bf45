/// \file
/// Figure 1: popularity of 256 KB data blocks of the home server, plus the
/// server bandwidth saved if the most popular blocks are serviced at an
/// earlier stage.
///
/// Paper anchors: the most popular 0.5% of bytes account for ~69% of
/// remote requests; 10% of blocks account for ~91%; 656 of 2000+ files
/// were remotely accessed (~73% of bytes).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "util/ascii_chart.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("fig1_block_popularity");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("fig1_block_popularity",
                     "Figure 1 (popularity of data blocks)");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const core::Fig1Result result = bench_report.Stage(
      "run", [&] { return core::RunFig1(workload); });
  std::printf("server docs: %u total (%s), %u accessed (%s)\n",
              result.total_docs,
              FormatBytes(static_cast<double>(result.total_bytes)).c_str(),
              result.accessed_docs,
              FormatBytes(static_cast<double>(result.accessed_bytes)).c_str());
  std::printf("top 0.5%% of bytes -> %s of remote requests (paper: ~69%%)\n",
              FormatPercent(result.top_half_percent_coverage, 1).c_str());
  std::printf("top 10%%  of bytes -> %s of remote requests (paper: ~91%%)\n\n",
              FormatPercent(result.top_ten_percent_coverage, 1).c_str());

  std::printf("%s\n", result.ToTable().ToAlignedString().c_str());

  AsciiChart chart(72, 16);
  std::vector<double> xs, req, bytes;
  for (size_t i = 0; i < result.cumulative_requests.size(); ++i) {
    xs.push_back(static_cast<double>(i + 1));
    req.push_back(result.cumulative_requests[i]);
    bytes.push_back(result.cumulative_bytes[i]);
  }
  chart.SetYRange(0.0, 1.0);
  chart.AddSeries("cumulative request coverage", xs, req);
  chart.AddSeries("cumulative bandwidth saved", xs, bytes);
  std::printf("coverage vs blocks of decreasing popularity\n%s\n",
              chart.Render().c_str());
  bench_report.RequestsProcessed(
      static_cast<double>(workload.filter_stats().kept));
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
