/// \file
/// Section 3.4 "Effect of Client Caching": speculative service under
/// different client cache models, emulated via SessionTimeout (0 = no
/// cache, 1 h = infinite single-session cache, infinity = infinite
/// multi-session cache) plus a finite LRU variant.
///
/// Paper anchors: gains persist even with no long-term cache; with an
/// infinite cache the relative gains shrink a little (35/27/23 ->
/// 32/24/19 at +10% traffic).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("exp_client_caching");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("exp_client_caching",
                     "Section 3.4 effect of client caching");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const core::ExpClientCachingResult result =
      bench_report.Stage(
      "run", [&] { return core::RunExpClientCaching(workload); });
  std::printf("%s\n", result.ToTable().ToAlignedString().c_str());
  std::printf("%s\n\n", result.sweep.Summary().c_str());
  std::printf("paper: speculative gains survive without any long-term\n"
              "cache and shrink only slightly with an infinite cache.\n");
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
