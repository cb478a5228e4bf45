/// \file
/// Section 2.3 worked numbers for symmetric clusters (eq. 10, corrected):
/// 10 servers shielded 90% with ~36 MB; 100 servers shielded ~96% with
/// 500 MB, at lambda = 6.247e-7 (fitted by the paper for cs-www.bu.edu).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "dissem/allocation.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("tab2_symmetric_cluster");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("tab2_symmetric_cluster",
                     "Section 2.3 symmetric-cluster worked numbers (eq. 10)");
  const core::Tab2Result result = bench_report.Stage(
      "run", [&] { return core::RunTab2(); });
  std::printf("%s\n", result.table.ToAlignedString().c_str());

  // Storage requirement as a function of the shield target.
  Table sweep({"alpha", "storage (10 servers)", "storage (100 servers)"});
  const double lambda = 6.247e-7;
  for (const double alpha : {0.5, 0.75, 0.9, 0.95, 0.96, 0.99}) {
    sweep.AddRow(
        {FormatPercent(alpha, 0),
         FormatBytes(dissem::SymmetricStorageForHitFraction(10, lambda,
                                                            alpha)),
         FormatBytes(dissem::SymmetricStorageForHitFraction(100, lambda,
                                                            alpha))});
  }
  std::printf("%s", sweep.ToAlignedString().c_str());
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
