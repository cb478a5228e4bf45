/// \file
/// Ablation: both protocols deployed together — the paper's concluding
/// vision. Dissemination shortens paths (bytes x hops), speculation sheds
/// requests (server load); combined, speculative pushes from nearby
/// proxies are also cheap, so the protocols compound.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/combined.h"
#include "core/experiments.h"
#include "core/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("abl_combined");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("abl_combined",
                     "ablation: dissemination + speculation combined");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  // Isolated protocols (speculation disabled via Tp > 1; dissemination
  // disabled via zero proxies) and the combination.
  struct Case {
    const char* label;
    uint32_t proxies;
    double fraction;
    double tp;
  };
  const std::vector<Case> cases = {
      {"dissemination only (4 proxies, 10%)", 4, 0.10, 1.01},
      {"speculation only (Tp = 0.3)", 0, 0.10, 0.3},
      {"combined (4 proxies, Tp = 0.3)", 4, 0.10, 0.3},
      {"combined (8 proxies, Tp = 0.2)", 8, 0.10, 0.2},
  };

  const auto prepared = core::PrepareServer0(workload);
  core::SweepStats stats;
  const auto results = core::SweepMap(
      cases.size(), core::SweepOptions{.seed = 23},
      [&](size_t index, Rng& rng) {
        core::CombinedConfig config;
        config.dissemination.num_proxies = cases[index].proxies;
        config.dissemination.dissemination_fraction = cases[index].fraction;
        config.speculation = core::BaselineSpecConfig();
        config.speculation.policy.threshold = cases[index].tp;
        return core::SimulateCombined(prepared, config, &rng,
                                      workload.NewCleanCursor().get());
      },
      &stats);

  Table table({"config", "bytes x hops", "server load", "service time",
               "proxy share", "cache hits"});
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& result = results[i];
    table.AddRow({cases[i].label, FormatDouble(result.bytes_hops_ratio, 3),
                  FormatDouble(result.server_load_ratio, 3),
                  FormatDouble(result.service_time_ratio, 3),
                  FormatPercent(result.proxy_share, 1),
                  FormatPercent(result.cache_hit_share, 1)});
  }
  std::printf("%s\n", table.ToAlignedString().c_str());
  std::printf("%s\n\n", stats.Summary().c_str());
  std::printf("ratios are vs plain service (no proxies, no speculation,\n"
              "same client caches) over the evaluation half of the trace.\n");
  double replayed = 0.0;
  for (const auto& result : results) {
    replayed += static_cast<double>(result.requests_replayed);
  }
  bench_report.RequestsProcessed(replayed);
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
