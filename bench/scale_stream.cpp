/// \file
/// Streaming-pipeline scale bench: proves the event pipeline holds its
/// resident set while the request volume grows by an order of magnitude,
/// then pushes one synthetic day to ten million clients / on the order of
/// one hundred million requests — far past what the materialize-then-
/// replay pipeline could hold in memory.
///
/// Two parts, smallest first (peak RSS is a process-lifetime high-water
/// mark, so each part may only grow it):
///
///  1. Day-scaling series: client population and requests/day held
///     constant, days swept 1x -> 10x. Every row runs the fig6-style
///     dissemination pipeline (streaming prepare + greedy fault-free
///     simulate at the paper's 4% and 10% fractions) off generator-backed
///     cursors. Near-flat RSS across the series (ratio <= 1.2 at 10x
///     requests) is the pipeline's O(lookahead) residency claim; the
///     ratio is exported for CI to enforce.
///
///  2. Headline point: one day, 10M clients (~100M raw requests at full
///     scale), same pipeline, reported as requests/sec + peak RSS.
///
/// `--smoke` shrinks both parts by ~1000x for CI; the JSON schema is
/// identical.

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "core/workload.h"
#include "dissem/simulator.h"
#include "util/rng.h"

namespace {

struct RowResult {
  double requests = 0.0;       // raw generated requests (one pass)
  double replayed = 0.0;       // requests pumped through all passes
  double seconds = 0.0;        // wall clock for the whole row
  double peak_rss_bytes = 0.0; // VmHWM after the row
  double saved_top10 = 0.0;
  double saved_top4 = 0.0;
};

// One scale point: build a streaming workload (never materialising the
// trace), prepare the dissemination context from one cursor pass, then
// simulate the 10% and 4% dissemination levels from fresh cursors.
RowResult RunRow(uint32_t num_clients, uint32_t days,
                 double sessions_per_client_per_day, uint64_t seed) {
  using namespace sds;
  // Re-baseline the high-water mark so each row reports its own peak
  // (prior rows' freed memory stays resident in allocator arenas but no
  // longer inflates the mark). Where unsupported the mark is monotone and
  // the rows run smallest-first, so the flatness ratio only over-reports.
  bench::ResetPeakRss();
  const bench::Stopwatch watch;

  core::WorkloadConfig config;
  config.streaming = true;
  config.tracegen.num_clients = num_clients;
  config.tracegen.days = days;
  config.tracegen.sessions_per_client_per_day = sessions_per_client_per_day;
  config.seed = seed;
  const core::Workload workload = core::MakeWorkload(config);

  RowResult row;
  row.requests = static_cast<double>(workload.filter_stats().kept +
                                     workload.filter_stats().dropped_not_found +
                                     workload.filter_stats().dropped_script);

  const auto prepared = core::PrepareServer0(workload);

  dissem::DisseminationConfig sim_config;
  sim_config.num_proxies = 4;
  sim_config.placement = dissem::PlacementStrategy::kGreedy;
  Rng rng(seed ^ 0x5ca1eu);

  sim_config.dissemination_fraction = 0.10;
  row.saved_top10 =
      core::SimulateServer0(workload, prepared, sim_config, &rng).saved_fraction;
  sim_config.dissemination_fraction = 0.04;
  row.saved_top4 =
      core::SimulateServer0(workload, prepared, sim_config, &rng).saved_fraction;

  // Four full passes over the raw stream: the construction drain, the
  // prepare pass and the two simulates.
  row.replayed = 4.0 * row.requests;
  row.seconds = watch.Seconds();
  row.peak_rss_bytes = static_cast<double>(bench::PeakRssBytes());
  return row;
}

void PrintRow(const char* label, const RowResult& row) {
  std::printf(
      "%-12s %12.0f requests  %7.1f s  %8.0f req/s  rss %6.1f MB  "
      "saved(10%%/4%%) %.3f/%.3f\n",
      label, row.requests, row.seconds,
      row.seconds > 0.0 ? row.replayed / row.seconds : 0.0,
      row.peak_rss_bytes / (1024.0 * 1024.0), row.saved_top10,
      row.saved_top4);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("scale_stream");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("scale_stream",
                     "streaming pipeline scalability (near-flat RSS)");

  // ~6 raw requests per client-day; the series runs dense sessions so the
  // saturating O(clients) generator model state (per-client browser caches,
  // per-node tailored counts) reaches steady state within the first row and
  // the measured growth reflects per-request residency. The headline runs
  // 1.6 sessions so 10M clients land near 100M requests.
  constexpr double kSessions = 4.0;
  constexpr double kHeadlineSessions = 1.6;
  const uint32_t series_clients = bench_args.smoke ? 1'000 : 100'000;
  const uint32_t headline_clients = bench_args.smoke ? 10'000 : 10'000'000;
  const std::vector<uint32_t> day_grid = {1, 2, 5, 10};

  std::printf("day-scaling series: %u clients, %.0f session/client/day\n",
              series_clients, kSessions);
  // Warm the allocator arenas so the first measured row is not charged
  // for one-time heap growth the later rows inherit for free.
  RunRow(series_clients, 1, kSessions, 20260807);
  std::vector<RowResult> series;
  for (const uint32_t days : day_grid) {
    series.push_back(RunRow(series_clients, days, kSessions, 20260808));
    char label[32];
    std::snprintf(label, sizeof label, "days=%u", days);
    PrintRow(label, series.back());

    const size_t i = series.size() - 1;
    char key[64];
    std::snprintf(key, sizeof key, "series_%ux", day_grid[i]);
    bench_report.Metric(std::string(key) + "_requests", series[i].requests);
    bench_report.Metric(std::string(key) + "_s", series[i].seconds);
    bench_report.Metric(std::string(key) + "_rss_bytes",
                        series[i].peak_rss_bytes);
    bench_report.RequestsProcessed(series[i].replayed);
  }

  // The residency claim: 10x the requests, (almost) the same peak RSS.
  // VmHWM is monotone, so the ratio can only be >= what the 10x row truly
  // needs; <= 1.2 means the pipeline added essentially nothing per day.
  const double rss_ratio =
      series.front().peak_rss_bytes > 0.0
          ? series.back().peak_rss_bytes / series.front().peak_rss_bytes
          : 0.0;
  const double request_growth =
      series.front().requests > 0.0
          ? series.back().requests / series.front().requests
          : 0.0;
  std::printf("\nrequest growth 1x -> %.1fx, peak-RSS ratio %.3f %s\n",
              request_growth, rss_ratio,
              rss_ratio <= 1.2 ? "(near-flat: OK)" : "(NOT flat)");
  bench_report.Metric("series_request_growth", request_growth);
  bench_report.Metric("series_rss_ratio", rss_ratio);

  std::printf("\nheadline: %u clients, one day\n", headline_clients);
  const RowResult headline =
      RunRow(headline_clients, 1, kHeadlineSessions, 20260809);
  PrintRow("headline", headline);
  bench_report.Metric("headline_clients",
                      static_cast<double>(headline_clients));
  bench_report.Metric("headline_requests", headline.requests);
  bench_report.Metric("headline_s", headline.seconds);
  bench_report.Metric("headline_rps",
                      headline.seconds > 0.0
                          ? headline.replayed / headline.seconds
                          : 0.0);
  bench_report.Metric("headline_rss_bytes", headline.peak_rss_bytes);
  bench_report.RequestsProcessed(headline.replayed);

  bench_report.Metric("total_s", bench_total.Seconds());
  const int exit_code = bench::FinishBench(&bench_report, bench_args);
  // CI treats a non-flat series as a bench failure, not just a bad number.
  if (rss_ratio > 1.2) {
    std::fprintf(stderr,
                 "error: peak-RSS ratio %.3f exceeds 1.2 at %.1fx requests\n",
                 rss_ratio, request_growth);
    return 1;
  }
  return exit_code;
}
