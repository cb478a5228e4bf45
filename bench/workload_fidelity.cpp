/// \file
/// Workload fidelity: the trace-substitution argument of DESIGN.md made
/// measurable. Since the 1995 BU traces are unavailable, the synthetic
/// workload must reproduce every statistical property the paper's results
/// depend on; this bench prints each property next to the value the paper
/// reports.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/fidelity.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("workload_fidelity");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("workload_fidelity",
                     "trace reconstruction vs the paper's measurements");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  const core::FidelityReport report = core::ComputeFidelityReport(workload);
  std::printf("%s\n", report.ToTable().ToAlignedString().c_str());
  std::printf("every row is asserted (with tolerances) by\n"
              "tests/integration/fidelity_test.cc; deviations are discussed\n"
              "in EXPERIMENTS.md.\n");
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
