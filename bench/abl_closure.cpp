/// \file
/// Ablation: interpretations of the paper's under-specified closure
/// P* = P^N — max-product (probability of the most likely request chain,
/// our default), capped sum-product (paths add up), and no closure at all
/// (raw P). Also isolates the contribution of chains: how much of the
/// speculation value comes from multi-hop inference.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "core/sweep.h"
#include "spec/closure.h"
#include "spec/simulator.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("abl_closure");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("abl_closure", "ablation: closure semantics for P*");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  core::SpecRuns runs(workload, core::BaselineSpecConfig().dependency);
  // The cases vary only fields the mode-kNone baseline never reads.
  const spec::RunTotals baseline =
      runs.RunBaseline(core::BaselineSpecConfig());

  struct Case {
    double tp;
    const char* label;
    bool use_closure;
    spec::ClosureSemantics semantics;
  };
  std::vector<Case> cases;
  for (const double tp : {0.5, 0.25, 0.1}) {
    cases.push_back({tp, "raw P (no closure)", false,
                     spec::ClosureSemantics::kMaxProduct});
    cases.push_back({tp, "max-product P*", true,
                     spec::ClosureSemantics::kMaxProduct});
    cases.push_back({tp, "sum-product P* (capped)", true,
                     spec::ClosureSemantics::kSumProductCapped});
  }

  core::SweepStats stats;
  const auto metrics = core::SweepMap(
      cases.size(), core::SweepOptions{},
      [&](size_t index, Rng&) {
        spec::SpeculationConfig config = core::BaselineSpecConfig();
        config.policy.threshold = cases[index].tp;
        config.use_closure = cases[index].use_closure;
        config.closure.semantics = cases[index].semantics;
        return spec::ComputeMetrics(runs.Run(config), baseline);
      },
      &stats);

  Table table({"Tp", "semantics", "extra_traffic", "load_reduction",
               "spec hit rate"});
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& m = metrics[i];
    const auto& w = m.with_speculation;
    table.AddRow(
        {FormatDouble(cases[i].tp, 2), cases[i].label,
         FormatPercent(m.extra_traffic, 1),
         FormatPercent(1.0 - m.server_load_ratio, 1),
         FormatPercent(w.speculative_docs_sent == 0
                           ? 0.0
                           : static_cast<double>(w.speculative_hits) /
                                 static_cast<double>(w.speculative_docs_sent),
                       1)});
  }
  std::printf("%s\n", table.ToAlignedString().c_str());
  std::printf("%s\n\n", stats.Summary().c_str());
  std::printf("the closure adds multi-hop candidates: more coverage than\n"
              "raw P at the same threshold; sum-product promotes targets\n"
              "reachable along many chains (embedding-heavy pages).\n\n");

  // The shared baseline replay and one replay per case.
  double replayed = static_cast<double>(baseline.client_requests);
  for (const auto& m : metrics) {
    replayed += static_cast<double>(m.with_speculation.client_requests);
  }
  bench_report.RequestsProcessed(replayed);
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
