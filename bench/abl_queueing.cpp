/// \file
/// Ablation: what the paper's "server load reduction" buys operationally.
/// Feeds the server request streams of the plain and the speculative runs
/// through an FCFS server queue (fixed overhead + bytes/rate). One
/// university trace barely loads a server, so arrival times are compressed
/// by a factor C — modeling a server C times busier (more clients, same
/// behaviour). Near saturation a ~33% request cut collapses waiting time
/// by far more, which is the real argument for shedding load.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"
#include "spec/queueing.h"
#include "spec/simulator.h"
#include "util/table.h"

namespace {

std::vector<sds::spec::ServerEvent> Compress(
    const std::vector<sds::spec::ServerEvent>& events, double factor) {
  std::vector<sds::spec::ServerEvent> out = events;
  for (auto& e : out) e.time /= factor;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sds;
  const bench::BenchArgs bench_args = bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("abl_queueing");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("abl_queueing",
                     "ablation: load reduction under a server queue");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  spec::SpeculationConfig baseline = core::BaselineSpecConfig();
  core::SpecRuns runs(workload, baseline.dependency);

  baseline.mode = spec::ServiceMode::kNone;
  std::vector<spec::ServerEvent> plain_events;
  runs.Run(baseline, &plain_events);

  spec::SpeculationConfig speculative = core::BaselineSpecConfig();
  speculative.policy.threshold = 0.3;
  std::vector<spec::ServerEvent> spec_events;
  runs.Run(speculative, &spec_events);

  std::printf("server requests: plain %zu, speculative %zu (-%0.1f%%)\n\n",
              plain_events.size(), spec_events.size(),
              100.0 * (1.0 - static_cast<double>(spec_events.size()) /
                                 static_cast<double>(plain_events.size())));

  spec::QueueConfig queue;
  queue.service_overhead_s = 0.04;
  queue.service_rate_bytes_per_s = 1e6;

  Table table({"load factor C", "util (plain)", "wait (plain)",
               "util (spec)", "wait (spec)", "wait cut", "p95 cut"});
  for (const double c : {100.0, 300.0, 600.0, 1200.0, 2000.0}) {
    const auto plain =
        ComputeQueueStats(Compress(plain_events, c), queue);
    const auto with = ComputeQueueStats(Compress(spec_events, c), queue);
    table.AddRow(
        {FormatDouble(c, 0), FormatPercent(plain.utilization, 1),
         FormatDouble(plain.mean_wait_s, 3) + " s",
         FormatPercent(with.utilization, 1),
         FormatDouble(with.mean_wait_s, 3) + " s",
         plain.mean_wait_s <= 0.0
             ? "-"
             : FormatPercent(1.0 - with.mean_wait_s / plain.mean_wait_s, 1),
         plain.p95_response_s <= 0.0
             ? "-"
             : FormatPercent(1.0 - with.p95_response_s / plain.p95_response_s,
                             1)});
  }
  std::printf("%s\n", table.ToAlignedString().c_str());
  std::printf("speculative responses are bigger (extra bytes), yet the\n"
              "request cut shrinks waiting time by more than the 33%% load\n"
              "cut itself as the server gets busier.\n");
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
