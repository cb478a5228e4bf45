/// \file
/// Ablation: multi-level dissemination hierarchies and dynamic shielding —
/// §2.3's answer to "isn't that proxy going to become a performance
/// bottleneck?". Compares proxy placements restricted to a single
/// hierarchy level against the unrestricted multi-level greedy, and shows
/// how dynamic shielding caps per-proxy load at some bandwidth cost.

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
  bench::BenchReport bench_report("abl_hierarchy");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("abl_hierarchy",
                     "ablation: multi-level dissemination + shielding");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const auto prepared = core::PrepareServer0(workload);
  auto run = [&](const dissem::DisseminationConfig& config, Rng& rng) {
    return core::SimulateServer0(workload, prepared, config, &rng);
  };

  struct LevelCase {
    const char* label;
    std::vector<uint32_t> depths;
    uint32_t proxies;
  };
  std::vector<LevelCase> level_cases;
  for (const uint32_t k : {4u, 8u}) {
    level_cases.push_back({"regional only (depth 1)", {1}, k});
    level_cases.push_back({"organisation only (depth 2)", {2}, k});
    level_cases.push_back({"subnet only (depth 3)", {3}, k});
    level_cases.push_back({"multi-level (unrestricted)", {}, k});
  }
  core::SweepStats level_stats;
  const auto level_results = core::SweepMap(
      level_cases.size(), core::SweepOptions{.seed = 13},
      [&](size_t index, Rng& rng) {
        dissem::DisseminationConfig config;
        config.num_proxies = level_cases[index].proxies;
        config.placement_depths = level_cases[index].depths;
        return run(config, rng);
      },
      &level_stats);

  Table levels({"placement level", "proxies", "saved", "max proxy share"});
  for (size_t i = 0; i < level_cases.size(); ++i) {
    const auto& result = level_results[i];
    uint64_t total = result.server_requests;
    uint64_t max_proxy = 0;
    for (const uint64_t n : result.proxy_requests) {
      total += n;
      max_proxy = std::max(max_proxy, n);
    }
    levels.AddRow({level_cases[i].label,
                   std::to_string(level_cases[i].proxies),
                   FormatPercent(result.saved_fraction, 1),
                   FormatPercent(total == 0 ? 0.0
                                            : static_cast<double>(max_proxy) /
                                                  static_cast<double>(total),
                                 1)});
  }
  std::printf("%s\n", levels.ToAlignedString().c_str());
  std::printf("%s\n\n", level_stats.Summary().c_str());

  const std::vector<uint64_t> caps = {0, 400, 150, 50};
  core::SweepStats shield_stats;
  const auto shield_results = core::SweepMap(
      caps.size(), core::SweepOptions{.seed = 13},
      [&](size_t index, Rng& rng) {
        dissem::DisseminationConfig config;
        config.num_proxies = 4;
        config.proxy_daily_request_capacity = caps[index];
        return run(config, rng);
      },
      &shield_stats);

  Table shielding({"daily capacity/proxy", "saved", "overflow requests"});
  for (size_t i = 0; i < caps.size(); ++i) {
    shielding.AddRow({caps[i] == 0 ? "unlimited" : std::to_string(caps[i]),
                      FormatPercent(shield_results[i].saved_fraction, 1),
                      std::to_string(
                          shield_results[i].shielding_overflow_requests)});
  }
  std::printf("dynamic shielding (B_0 effectively reduced when the proxy\n"
              "overloads, pushing requests back to the server):\n%s",
              shielding.ToAlignedString().c_str());
  std::printf("%s\n", shield_stats.Summary().c_str());
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
