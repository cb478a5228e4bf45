/// \file
/// Section 2 classification: remotely / locally / globally popular
/// documents by remote-to-local access ratio, and the mutability analysis.
///
/// Paper anchors (974 accessed documents): 99 remotely popular, 510
/// locally popular, 365 globally popular (~10% / 52% / 37%); locally
/// popular documents updated ~2%/day, others < 0.5%/day; frequent updates
/// confined to a very small "mutable" subset.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("tab1_document_classes");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("tab1_document_classes",
                     "Section 2 document classification");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const core::Tab1Result result = bench_report.Stage(
      "run", [&] { return core::RunTab1(workload); });
  std::printf("accessed documents: %u\n\n", result.accessed_docs);
  std::printf("%s\n", result.ToTable().ToAlignedString().c_str());
  std::printf("paper shares of accessed docs: remote ~10%%, local ~52%%, "
              "global ~37%%\n");
  std::printf("paper update rates: local ~0.02/day, remote+global < 0.005/day\n");
  bench_report.RequestsProcessed(
      static_cast<double>(workload.filter_stats().kept));
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
