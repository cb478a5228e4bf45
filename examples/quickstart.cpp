/// \file
/// Quickstart: synthesize a small web workload, then run both of the
/// paper's protocols — popularity-based data dissemination and speculative
/// service — and print their headline numbers.

#include <cstdio>

#include "core/experiments.h"
#include "core/workload.h"
#include "dissem/expfit.h"
#include "dissem/popularity.h"
#include "dissem/simulator.h"
#include "spec/simulator.h"
#include "trace/sessionizer.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace sds;

  // 1. Synthesize a workload: corpus + link graph + 14-day trace + topology.
  const core::WorkloadConfig config = core::SmallConfig();
  const core::Workload workload = core::MakeWorkload(config);

  std::printf("== workload ==\n");
  std::printf("documents:        %zu (%s)\n", workload.corpus().size(),
              FormatBytes(static_cast<double>(workload.corpus().TotalBytes()))
                  .c_str());
  std::printf("raw accesses:     %zu\n", workload.generated().trace.size());
  std::printf("clean accesses:   %zu (dropped %llu 404s, %llu scripts)\n",
              workload.clean().size(),
              static_cast<unsigned long long>(
                  workload.filter_stats().dropped_not_found),
              static_cast<unsigned long long>(
                  workload.filter_stats().dropped_script));
  std::printf("sessions:         %llu\n",
              static_cast<unsigned long long>(
                  trace::CountSegments(workload.clean(), 30.0 * kMinute)));

  // 2. Dissemination protocol: popularity skew, fitted lambda, savings.
  const auto pop =
      dissem::AnalyzeServer(workload.corpus(), workload.clean(), 0);
  const auto fit =
      dissem::FitExponentialPopularity(pop, workload.corpus());
  std::printf("\n== dissemination protocol ==\n");
  std::printf("remote requests:  %llu\n",
              static_cast<unsigned long long>(pop.total_remote_requests));
  std::printf("H(top 10%% bytes): %.1f%% of remote requests\n",
              100.0 * pop.EmpiricalH(0.10 * workload.corpus().ServerBytes(0),
                                     workload.corpus()));
  std::printf("fitted lambda:    %.3g per byte (R^2 = %.3f)\n", fit.lambda,
              fit.r_squared);

  Rng rng(7);
  dissem::DisseminationConfig dconfig;
  dconfig.dissemination_fraction = 0.10;
  dconfig.num_proxies = 4;
  const auto dresult = core::SimulateServer0(
      workload, core::PrepareServer0(workload), dconfig, &rng);
  std::printf(
      "4 proxies, top 10%% disseminated: %.1f%% of bytes x hops saved, "
      "%.1f%% of requests intercepted\n",
      100.0 * dresult.saved_fraction, 100.0 * dresult.proxy_hit_fraction);

  // 3. Speculative service at the paper's baseline parameters.
  spec::SpeculationSimulator sim(&workload.corpus(), &workload.clean());
  spec::SpeculationConfig sconfig = core::BaselineSpecConfig();
  sconfig.policy.threshold = 0.25;
  const auto metrics = sim.Evaluate(sconfig);
  std::printf("\n== speculative service (Tp = 0.25) ==\n");
  std::printf("extra traffic:    %+.1f%%\n", 100.0 * metrics.extra_traffic);
  std::printf("server load:      %.1f%% reduction\n",
              100.0 * (1.0 - metrics.server_load_ratio));
  std::printf("service time:     %.1f%% reduction\n",
              100.0 * (1.0 - metrics.service_time_ratio));
  std::printf("client miss rate: %.1f%% reduction\n",
              100.0 * (1.0 - metrics.miss_rate_ratio));
  return 0;
}
