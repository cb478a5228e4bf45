/// \file
/// Ablation: server-initiated dissemination (push) versus demand-driven
/// proxy caching (pull-through LRU) at equal storage — the comparison
/// behind the paper's core claim that servers, "who unquestionably have a
/// better view of data access patterns than clients", should drive
/// replication.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "core/sweep.h"
#include "dissem/pull_cache.h"
#include "dissem/simulator.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("abl_push_vs_pull");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("abl_push_vs_pull",
                     "ablation: dissemination vs pull-through caching");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  struct Case {
    double fraction;
    uint32_t proxies;
  };
  std::vector<Case> cases;
  for (const double fraction : {0.02, 0.04, 0.10, 0.20}) {
    for (const uint32_t k : {2u, 4u, 8u}) {
      cases.push_back({fraction, k});
    }
  }

  struct Point {
    dissem::DisseminationResult push;
    dissem::PullCacheResult pull;
  };
  const auto prepared = core::PrepareServer0(workload);
  core::SweepStats stats;
  const auto points = core::SweepMap(
      cases.size(), core::SweepOptions{.seed = 11},
      [&](size_t index, Rng& rng) {
        Point point;
        dissem::DisseminationConfig push;
        push.dissemination_fraction = cases[index].fraction;
        push.num_proxies = cases[index].proxies;
        point.push = core::SimulateServer0(workload, prepared, push, &rng);

        dissem::PullCacheConfig pull;
        pull.storage_fraction = cases[index].fraction;
        pull.num_proxies = cases[index].proxies;
        point.pull = SimulatePullThroughCache(
            prepared, pull, &workload.updates(),
            workload.NewCleanCursor().get());
        return point;
      },
      &stats);

  Table table({"storage/proxy", "proxies", "push saved", "push hits",
               "pull saved", "pull hits", "pull evictions"});
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& point = points[i];
    table.AddRow(
        {FormatBytes(cases[i].fraction *
                     static_cast<double>(workload.corpus().ServerBytes(0))),
         std::to_string(cases[i].proxies),
         FormatPercent(point.push.saved_fraction, 1),
         FormatPercent(point.push.proxy_hit_fraction, 1),
         FormatPercent(point.pull.saved_fraction, 1),
         FormatPercent(point.pull.proxy_hit_fraction, 1),
         std::to_string(point.pull.evictions)});
  }
  std::printf("%s\n", table.ToAlignedString().c_str());
  std::printf("%s\n\n", stats.Summary().c_str());
  std::printf("push knows the popularity profile up front; pull pays a\n"
              "compulsory miss (full-path fetch) for every first access at\n"
              "each proxy and churns under tight budgets.\n");
  // Each case replays the prepared evaluation window twice (push, pull).
  bench_report.RequestsProcessed(2.0 * static_cast<double>(cases.size()) *
                                 static_cast<double>(prepared.eval_requests));
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
