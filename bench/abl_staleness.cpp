/// \file
/// Ablation: the consistency cost of disseminating mutable documents —
/// §2's rationale for classifying documents into mutable and immutable
/// before pushing. Measures the fraction of proxy-served requests that hit
/// a stale copy, with and without mutable-document exclusion and periodic
/// re-dissemination.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "core/sweep.h"
#include "dissem/simulator.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("abl_staleness");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("abl_staleness",
                     "ablation: mutable documents and staleness");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  struct Case {
    bool exclude;
    uint32_t repush;
  };
  std::vector<Case> cases;
  for (const bool exclude : {false, true}) {
    for (const uint32_t repush : {0u, 30u, 7u, 1u}) {
      cases.push_back({exclude, repush});
    }
  }

  const auto prepared = core::PrepareServer0(workload);
  core::SweepStats stats;
  const auto results = core::SweepMap(
      cases.size(), core::SweepOptions{.seed = 17},
      [&](size_t index, Rng& rng) {
        dissem::DisseminationConfig config;
        config.num_proxies = 4;
        config.exclude_mutable = cases[index].exclude;
        config.redisseminate_every_days = cases[index].repush;
        return core::SimulateServer0(workload, prepared, config, &rng);
      },
      &stats);

  Table table({"exclude mutable", "re-push every", "saved", "stale serves",
               "stale fraction"});
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& result = results[i];
    table.AddRow({cases[i].exclude ? "yes" : "no",
                  cases[i].repush == 0 ? "never"
                                       : std::to_string(cases[i].repush) + "d",
                  FormatPercent(result.saved_fraction, 1),
                  std::to_string(result.stale_proxy_requests),
                  FormatPercent(result.stale_fraction, 2)});
  }
  std::printf("%s\n", table.ToAlignedString().c_str());
  std::printf("%s\n\n", stats.Summary().c_str());
  std::printf("excluding the small mutable subset removes most staleness\n"
              "at almost no bandwidth cost; frequent re-pushing is the\n"
              "expensive alternative.\n");
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
