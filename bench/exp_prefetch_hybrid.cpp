/// \file
/// Section 3.4 "Server-assisted Prefetching": server-initiated speculative
/// push vs client-initiated prefetching from per-user profiles vs the
/// hybrid protocol (push near-certain documents, let clients prefetch the
/// rest).
///
/// Paper anchor: client-initiated prefetching works for frequently
/// re-traversed documents but not for newly traversed ones — only
/// server-side speculation covers those — motivating the hybrid.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("exp_prefetch_hybrid");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("exp_prefetch_hybrid",
                     "Section 3.4 server-assisted prefetching / hybrid");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const core::ExpPrefetchResult result = bench_report.Stage(
      "run", [&] { return core::RunExpPrefetch(workload); });
  std::printf("%s\n", result.ToTable().ToAlignedString().c_str());
  std::printf("%s\n\n", result.sweep.Summary().c_str());
  std::printf("paper: client profiles help on revisits; server speculation\n"
              "covers newly traversed documents; hybrid combines both.\n");
  // Each row replays with speculation and its mode-kNone twin.
  double replayed = 0.0;
  for (const auto& row : result.rows) {
    replayed += static_cast<double>(
        row.metrics.with_speculation.client_requests +
        row.metrics.without_speculation.client_requests);
  }
  bench_report.RequestsProcessed(replayed);
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
