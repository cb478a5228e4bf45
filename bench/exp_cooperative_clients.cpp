/// \file
/// Section 3.4 "Cooperative Clients": requests piggy-back a digest of the
/// client's cache so the server never pushes documents the client already
/// holds.
///
/// Paper anchor: cooperation improves bandwidth utilisation (less wasted
/// speculation) at equal or better gains.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("exp_cooperative_clients");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("exp_cooperative_clients",
                     "Section 3.4 cooperative clients");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const core::ExpCooperativeResult result = bench_report.Stage(
      "run", [&] { return core::RunExpCooperative(workload); });
  std::printf("%s\n", result.ToTable().ToAlignedString().c_str());
  std::printf("%s\n\n", result.sweep.Summary().c_str());
  std::printf("paper: cooperative clients waste less bandwidth for the\n"
              "same speculation level.\n");
  // The shared baseline replay and one replay per row.
  double replayed = static_cast<double>(
      result.rows.front().metrics.without_speculation.client_requests);
  for (const auto& row : result.rows) {
    replayed +=
        static_cast<double>(row.metrics.with_speculation.client_requests);
  }
  bench_report.RequestsProcessed(replayed);
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
