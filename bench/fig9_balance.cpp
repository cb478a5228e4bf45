/// \file
/// Figure 9 (this reproduction's extension): randomized d-choice replica
/// selection and proximity-aware allocation vs the static Lagrange
/// optimum. Sweeps storage x proxy count over three request-time/placement
/// policies — the legacy static optimum (every request to the nearest
/// on-route holder), power-of-d-choices (sample d candidate holders per
/// request, serve from the least loaded), and proximity-weighted
/// placement + allocation (trade peak hit ratio for shorter routes and a
/// capped candidate neighborhood) — each fault-free and under a shared
/// outage/brownout schedule.
///
/// Expected shape: at equal storage, d >= 2 cuts the max/mean proxy-load
/// imbalance well below the static optimum (two random choices
/// exponentially improve the max load) at a modest bytes-hops cost, while
/// proximity allocation shifts budget toward close, hot proxies. The d=1
/// configuration makes zero RNG draws and is bit-identical to the legacy
/// static path — asserted here across two different seeds.
///
/// `--smoke` runs a reduced grid on the small workload (CI bit-rot guard).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "dissem/simulator.h"
#include "util/ascii_chart.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  const bool smoke = bench_args.smoke;
  bench::BenchReport bench_report("fig9_balance");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("fig9_balance",
                     "Figure 9 (d-choice and proximity load balancing)");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const std::vector<double> storages =
      smoke ? std::vector<double>{0.10} : std::vector<double>{};
  const std::vector<uint32_t> proxies =
      smoke ? std::vector<uint32_t>{4} : std::vector<uint32_t>{};
  const std::vector<uint32_t> ds =
      smoke ? std::vector<uint32_t>{2} : std::vector<uint32_t>{};
  const core::Fig9Result result = bench_report.Stage("run", [&] {
    return core::RunFig9(workload, storages, proxies, ds);
  });
  std::printf("%s\n", result.ToTable().ToAlignedString().c_str());
  std::printf("%s\n\n", result.sweep.Summary().c_str());

  // Flat report keys for the perf-smoke diff: the headline imbalance and
  // savings numbers at the largest fault-free cell, plus the faulted
  // availability split.
  const auto arm_index = [&](core::Fig9Policy policy, uint32_t d,
                             bool faulted) {
    for (size_t i = 0; i < result.arms.size(); ++i) {
      const auto& arm = result.arms[i];
      if (arm.policy == policy && arm.d == d && arm.faulted == faulted) {
        return i;
      }
    }
    return size_t{0};
  };
  const size_t last_row = result.rows.size() - 1;
  const uint32_t first_d = 2;  // smallest d arm in both grids
  const auto& c_static =
      result.cell(last_row, arm_index(core::Fig9Policy::kStatic, 1, false));
  const auto& c_dchoice = result.cell(
      last_row, arm_index(core::Fig9Policy::kDChoice, first_d, false));
  const auto& c_prox = result.cell(
      last_row, arm_index(core::Fig9Policy::kProximity, 1, false));
  bench_report.Metric("imbalance_static", c_static.sim.load_imbalance_max_mean);
  bench_report.Metric("imbalance_d2", c_dchoice.sim.load_imbalance_max_mean);
  bench_report.Metric("imbalance_proximity",
                      c_prox.sim.load_imbalance_max_mean);
  bench_report.Metric("imbalance_p99_static",
                      c_static.sim.load_imbalance_p99_mean);
  bench_report.Metric("imbalance_p99_d2",
                      c_dchoice.sim.load_imbalance_p99_mean);
  bench_report.Metric("saved_static", c_static.sim.saved_fraction);
  bench_report.Metric("saved_d2", c_dchoice.sim.saved_fraction);
  bench_report.Metric("saved_proximity", c_prox.sim.saved_fraction);
  const auto& f_static =
      result.cell(last_row, arm_index(core::Fig9Policy::kStatic, 1, true));
  const auto& f_dchoice = result.cell(
      last_row, arm_index(core::Fig9Policy::kDChoice, first_d, true));
  bench_report.Metric("availability_static_faulted", f_static.availability);
  bench_report.Metric("availability_d2_faulted", f_dchoice.availability);

  // --- d=1 bit-identity: the selection_d=1 configuration must make zero
  // extra RNG draws, so running it under a *different* seed still
  // reproduces the static optimum bit for bit. ---
  const auto prepared = core::PrepareServer0(workload);
  dissem::DisseminationConfig static_config;
  static_config.num_proxies = 4;
  static_config.dissemination_fraction = 0.10;
  dissem::DisseminationConfig d1_config = static_config;
  d1_config.selection_d = 1;
  Rng static_rng(0x51a71c);
  Rng d1_rng(0xd1d1d1);  // different stream on purpose
  const dissem::DisseminationResult r_static =
      core::SimulateServer0(workload, prepared, static_config, &static_rng);
  const dissem::DisseminationResult r_d1 =
      core::SimulateServer0(workload, prepared, d1_config, &d1_rng);
  const bool d1_identical =
      r_static.baseline_bytes_hops == r_d1.baseline_bytes_hops &&
      r_static.with_proxies_bytes_hops == r_d1.with_proxies_bytes_hops &&
      r_static.saved_fraction == r_d1.saved_fraction &&
      r_static.proxy_hit_fraction == r_d1.proxy_hit_fraction &&
      r_static.proxy_requests == r_d1.proxy_requests &&
      r_static.server_requests == r_d1.server_requests &&
      r_static.shielding_overflow_requests ==
          r_d1.shielding_overflow_requests &&
      r_static.stale_proxy_requests == r_d1.stale_proxy_requests &&
      r_static.load_imbalance_max_mean == r_d1.load_imbalance_max_mean &&
      r_static.load_imbalance_p99_mean == r_d1.load_imbalance_p99_mean &&
      r_static.per_level_imbalance == r_d1.per_level_imbalance;
  std::printf("d=1 bit-identical to static optimum (across seeds): %s\n\n",
              d1_identical ? "yes" : "NO");
  bench_report.Metric("d1_bit_identical", d1_identical ? 1.0 : 0.0);

  if (!smoke) {
    // Imbalance vs proxy count at the largest storage fraction, fault-free.
    const double last_storage = result.rows[last_row].storage_fraction;
    AsciiChart chart(72, 16);
    for (size_t col = 0; col < result.arms.size(); ++col) {
      const auto& arm = result.arms[col];
      if (arm.faulted) continue;
      std::vector<double> xs;
      std::vector<double> ys;
      for (size_t row = 0; row < result.rows.size(); ++row) {
        if (result.rows[row].storage_fraction != last_storage) continue;
        xs.push_back(static_cast<double>(result.rows[row].num_proxies));
        ys.push_back(result.cell(row, col).sim.load_imbalance_max_mean);
      }
      std::string label = core::Fig9PolicyToString(arm.policy);
      if (arm.policy == core::Fig9Policy::kDChoice) {
        label += "-d" + std::to_string(arm.d);
      }
      chart.AddSeries(label, xs, ys);
    }
    std::printf("max/mean proxy load vs proxy count, by policy\n%s\n",
                chart.Render().c_str());
  }

  bench_report.RequestsProcessed(
      static_cast<double>(result.cells.size()) *
      static_cast<double>(workload.filter_stats().kept));
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
