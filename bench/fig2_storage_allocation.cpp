/// \file
/// Figure 2: optimal storage allocation for a server j among n equally
/// popular servers (eq. 7), for a tight proxy (B_0 = 1/lambda_i) and a lax
/// proxy (B_0 = 10/lambda_i), as lambda_j varies.
///
/// Paper shape: under lax storage, more uniformly accessed servers
/// (smaller lambda_j) get more space; under tight storage intermediate
/// lambda_j is favored.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "util/ascii_chart.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("fig2_storage_allocation");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("fig2_storage_allocation",
                     "Figure 2 (storage allocation for R_i = R)");
  const core::Fig2Result result = bench_report.Stage(
      "run", [&] { return core::RunFig2(/*n=*/10); });
  std::printf("%s\n", result.ToTable().ToAlignedString().c_str());

  AsciiChart chart(72, 18);
  chart.AddSeries("tight (B0 = 1/lambda)", result.lambda_ratio,
                  result.tight_allocation);
  chart.AddSeries("lax (B0 = 10/lambda)", result.lambda_ratio,
                  result.lax_allocation);
  std::printf("B_j vs lambda_j/lambda_i (allocation in units of 1/lambda)\n%s\n",
              chart.Render().c_str());
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
