/// \file
/// google-benchmark microbenchmarks of the library's hot kernels: workload
/// generation, dependency estimation, closure rows, storage allocation and
/// the speculation replay loop. Not a paper artefact — these guard against
/// performance regressions of the simulator itself.
///
/// The closure-row, dependency-count, route-plan and placement kernels time
/// the flat (CSR / indexed / bitmap) layouts; the speedups over the
/// hash-map versions they replaced are recorded in docs/PERF.md. BM_PathUp
/// times the fault-schedule reachability check of the failover chain.
///
/// `--smoke` shortens every benchmark's min time; `--json` writes
/// BENCH_micro_kernels.json (google-benchmark's JSON format).

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <filesystem>

#include "core/experiments.h"
#include "core/workload.h"
#include "trace/clf.h"
#include "trace/cursor.h"
#include "dissem/allocation.h"
#include "dissem/popularity.h"
#include "dissem/simulator.h"
#include "net/faults.h"
#include "net/placement.h"
#include "spec/closure.h"
#include "spec/dependency.h"
#include "spec/simulator.h"
#include "util/distributions.h"
#include "util/rng.h"

namespace {

using namespace sds;

const core::Workload& SharedWorkload() {
  static const core::Workload& workload =
      *new core::Workload(core::MakeWorkload(core::SmallConfig()));
  return workload;
}

void BM_ZipfSample(benchmark::State& state) {
  const ZipfDistribution zipf(100000, 1.1);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_WorkloadGeneration(benchmark::State& state) {
  for (auto _ : state) {
    const core::Workload w = core::MakeWorkload(core::SmallConfig());
    benchmark::DoNotOptimize(w.clean().size());
  }
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMillisecond);

void BM_DependencyEstimation(benchmark::State& state) {
  const auto& w = SharedWorkload();
  spec::DependencyConfig config;
  for (auto _ : state) {
    const auto p = spec::EstimateDependencies(w.clean(), w.corpus().size(),
                                              config);
    benchmark::DoNotOptimize(p.NumEntries());
  }
}
BENCHMARK(BM_DependencyEstimation)->Unit(benchmark::kMillisecond);

const spec::SparseProbMatrix& SharedDependencyMatrix() {
  static const spec::SparseProbMatrix& p =
      *new spec::SparseProbMatrix(spec::EstimateDependencies(
          SharedWorkload().clean(), SharedWorkload().corpus().size(),
          spec::DependencyConfig{}));
  return p;
}

void BM_ClosureRows(benchmark::State& state) {
  const auto& p = SharedDependencyMatrix();
  spec::ClosureConfig closure_config;
  spec::ClosureScratch scratch;
  trace::DocumentId doc = 0;
  for (auto _ : state) {
    doc = (doc + 1) % static_cast<trace::DocumentId>(p.num_docs());
    benchmark::DoNotOptimize(
        spec::ComputeClosureRow(p, doc, closure_config, &scratch).size());
  }
}
BENCHMARK(BM_ClosureRows);

void BM_DependencyCountFlat(benchmark::State& state) {
  const auto& w = SharedWorkload();
  spec::DependencyConfig config;
  for (auto _ : state) {
    const auto days = spec::CountDailyDependencies(w.clean(), config);
    benchmark::DoNotOptimize(days.size());
  }
}
BENCHMARK(BM_DependencyCountFlat)->Unit(benchmark::kMillisecond);

void BM_ExponentialAllocation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<dissem::ServerDemand> servers;
  Rng rng(3);
  for (int i = 0; i < n; ++i) {
    servers.push_back({1e6 * (1.0 + rng.NextDouble()),
                       1e-6 * (0.5 + rng.NextDouble())});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dissem::AllocateExponential(servers, 50e6).size());
  }
}
BENCHMARK(BM_ExponentialAllocation)->Arg(10)->Arg(100)->Arg(1000);

void BM_SpeculationReplay(benchmark::State& state) {
  const auto& w = SharedWorkload();
  spec::SpeculationSimulator sim(&w.corpus(), &w.clean());
  spec::SpeculationConfig config = core::BaselineSpecConfig();
  config.policy.threshold = 0.25;
  sim.Run(config);  // warm the per-day delta cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Run(config).server_requests);
  }
}
BENCHMARK(BM_SpeculationReplay)->Unit(benchmark::kMillisecond);

void BM_PopularityAnalysis(benchmark::State& state) {
  const auto& w = SharedWorkload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dissem::AnalyzeServer(w.corpus(), w.clean(), 0)
            .total_remote_requests);
  }
}
BENCHMARK(BM_PopularityAnalysis)->Unit(benchmark::kMillisecond);

const dissem::PreparedDissemination& SharedPrepared() {
  static const dissem::PreparedDissemination& prepared =
      *new dissem::PreparedDissemination(dissem::PrepareDissemination(
          SharedWorkload().corpus(), SharedWorkload().clean(),
          SharedWorkload().topology(), 0,
          dissem::DisseminationConfig{}.train_fraction));
  return prepared;
}

std::vector<net::NodeId> SharedProxyPlacement() {
  return net::GreedyPlacement(SharedPrepared().tree, 4, 1.0).proxies;
}

/// Route-plan lookup over the evaluation replay: one flat array indexed by
/// the prepared per-request plan index (the current hot path).
void BM_RoutePlanIndexedLookup(benchmark::State& state) {
  const auto& prepared = SharedPrepared();
  const std::vector<dissem::RoutePlan> plans =
      dissem::BuildRoutePlans(prepared, SharedProxyPlacement());
  for (auto _ : state) {
    uint64_t hops = 0;
    for (size_t k = 0; k < prepared.eval_node.size(); ++k) {
      hops += plans[prepared.eval_node[k]].hops_to_server;
    }
    benchmark::DoNotOptimize(hops);
  }
}
BENCHMARK(BM_RoutePlanIndexedLookup);

/// Placement evaluation with the epoch-stamped membership bitmap: proxy
/// membership is marked once per call, each route hop is an O(1) stamp
/// compare (the current EvaluatePlacement, also the GreedyCore inner
/// loop's shape).
void BM_EvaluatePlacementBitmap(benchmark::State& state) {
  const auto& tree = SharedPrepared().tree;
  const std::vector<net::NodeId> proxies = SharedProxyPlacement();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::EvaluatePlacement(tree, proxies, 1.0));
  }
}
BENCHMARK(BM_EvaluatePlacementBitmap);

/// Fault-interval data for the Covers kernel: one node with many
/// overlapping outages over a year, queried across the whole horizon.
struct FaultCoversFixture {
  net::FaultSchedule schedule;
  std::vector<SimTime> queries;
};

const FaultCoversFixture& SharedFaultCovers() {
  static const FaultCoversFixture& fixture = *[] {
    auto* f = new FaultCoversFixture;
    Rng rng(7);
    const double horizon = 365.0 * kDay;
    for (int i = 0; i < 2000; ++i) {
      const SimTime start = rng.NextDouble() * horizon;
      const SimTime end = start + (0.5 + rng.NextDouble()) * 3600.0;
      f->schedule.Add({net::FaultKind::kNodeOutage, 17, start, end});
    }
    for (int i = 0; i < 4096; ++i) {
      f->queries.push_back(rng.NextDouble() * horizon);
    }
    return f;
  }();
  return fixture;
}

/// Point-in-set query via the merged, sorted interval list (the
/// binary-search NodeDown path).
void BM_FaultCoversBinary(benchmark::State& state) {
  const auto& fixture = SharedFaultCovers();
  for (auto _ : state) {
    uint64_t hits = 0;
    for (const SimTime t : fixture.queries) {
      hits += fixture.schedule.NodeDown(17, t) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_FaultCoversBinary);

/// Route reachability as the faulted dissemination replay asks it: a
/// paper-scale topology under Figure 8's worst outage rate (0.2/day for
/// nodes and servers, 0.1/day for links, zone failures at 0.3) over the
/// paper's 90-day trace. Queries go from client subnets to the home
/// server's node (Arg 0) or to an interior region/organisation node, where
/// proxies sit (Arg 1). One iteration is one query, so Time is ns/query.
struct PathUpFixture {
  std::unique_ptr<net::Topology> topology;
  net::FaultSchedule schedule;
  struct Query {
    net::NodeId from;
    net::NodeId to;
    SimTime t;
  };
  std::vector<Query> to_server;
  std::vector<Query> to_interior;
};

const PathUpFixture& SharedPathUp() {
  static const PathUpFixture& fixture = *[] {
    auto* f = new PathUpFixture;
    const core::WorkloadConfig paper = core::PaperScaleConfig();
    const uint32_t num_clients = paper.tracegen.num_clients;
    std::vector<bool> remote(num_clients);
    for (uint32_t c = 0; c < num_clients; ++c) remote[c] = c % 10 != 0;
    Rng rng(11);
    f->topology = std::make_unique<net::Topology>(net::Topology::Generate(
        paper.topology, num_clients, remote, 1, &rng));
    const net::Topology& topo = *f->topology;

    net::FaultInjectionConfig faults;
    faults.horizon_days = paper.tracegen.days + 1.0;
    faults.node_failure_rate_per_day = 0.20;
    faults.link_failure_rate_per_day = 0.10;
    faults.server_failure_rate_per_day = 0.20;
    faults.mean_outage_days = 1.0;
    faults.min_outage_days = 2.0 / 24.0;
    faults.zone_failure_probability = 0.3;
    f->schedule = net::GenerateFaultSchedule(topo, faults, &rng);

    std::vector<net::NodeId> interior;
    for (net::NodeId n = 1; n < topo.num_nodes(); ++n) {
      if (topo.depth(n) <= 2) interior.push_back(n);
    }
    const double horizon = faults.horizon_days * kDay;
    for (int i = 0; i < 4096; ++i) {
      const net::NodeId from = topo.client_node(
          static_cast<trace::ClientId>(rng.NextBounded(num_clients)));
      f->to_server.push_back(
          {from, topo.server_node(0), rng.NextDouble() * horizon});
      f->to_interior.push_back(
          {from, interior[rng.NextBounded(interior.size())],
           rng.NextDouble() * horizon});
    }
    return f;
  }();
  return fixture;
}

void BM_PathUp(benchmark::State& state) {
  const auto& fixture = SharedPathUp();
  const auto& queries =
      state.range(0) == 0 ? fixture.to_server : fixture.to_interior;
  size_t i = 0;
  for (auto _ : state) {
    const auto& q = queries[i];
    benchmark::DoNotOptimize(
        fixture.schedule.PathUp(*fixture.topology, q.from, q.to, q.t));
    i = i + 1 == queries.size() ? 0 : i + 1;
  }
}
BENCHMARK(BM_PathUp)->Arg(0)->Arg(1);

// --- CLF line scanning: the mmap cursor (ReadClfFile drains the same) ---
//
// ClfCursor maps the file and parses string_views in place with a bounded
// reorder heap; this measures one full pass of a raw CLF log.

const std::string& ClfScanFixture() {
  static const std::string* path = [] {
    const auto file =
        std::filesystem::temp_directory_path() / "sds_micro_clf_scan.log";
    const core::Workload& w = SharedWorkload();
    const Status status =
        trace::WriteClfFile(file.string(), w.generated().trace, w.corpus());
    SDS_CHECK(status.ok()) << status.ToString();
    return new std::string(file.string());
  }();
  return *path;
}

void BM_ClfScanMmap(benchmark::State& state) {
  const std::string& path = ClfScanFixture();
  const core::Workload& w = SharedWorkload();
  for (auto _ : state) {
    trace::ClfCursor cursor(path, &w.corpus());
    size_t n = 0;
    for (auto chunk = cursor.NextChunk(); !chunk.empty();
         chunk = cursor.NextChunk()) {
      n += chunk.size();
    }
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(cursor.status().ok());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(w.generated().trace.requests.size()));
}
BENCHMARK(BM_ClfScanMmap)->Unit(benchmark::kMillisecond);

}  // namespace

/// Custom main so the suite accepts the repo-wide bench flags: `--smoke`
/// maps to a short --benchmark_min_time, `--json` to google-benchmark's
/// JSON writer targeting BENCH_micro_kernels.json. All other arguments
/// pass through to google-benchmark untouched.
int main(int argc, char** argv) {
  std::vector<std::string> args_storage;
  args_storage.reserve(static_cast<size_t>(argc) + 2);
  args_storage.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args_storage.push_back("--benchmark_min_time=0.05");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      args_storage.push_back("--benchmark_out=BENCH_micro_kernels.json");
      args_storage.push_back("--benchmark_out_format=json");
    } else {
      args_storage.push_back(argv[i]);
    }
  }
  std::vector<char*> bench_argv;
  bench_argv.reserve(args_storage.size());
  for (std::string& arg : args_storage) {
    bench_argv.push_back(arg.data());
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
