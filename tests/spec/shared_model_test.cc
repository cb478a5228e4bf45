// Shared daily models: SpeculationSimulator::Run hands every concurrent run
// with the same model key one SpeculationModel. These tests pin that the
// key separates every field P and P* depend on, that sharing never changes
// a result (each run must equal a SpeculationReplay over a private model
// fed from the same CountDailyDependencies table), and that the Figure 5
// grid builds its model once while its points overlap.

#include <atomic>
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.h"
#include "core/sweep.h"
#include "core/workload.h"
#include "spec/closure.h"
#include "spec/dependency.h"
#include "spec/simulator.h"

namespace sds::spec {
namespace {

void ExpectTotalsEq(const RunTotals& a, const RunTotals& b,
                    const std::string& ctx) {
  EXPECT_EQ(a.bytes_sent, b.bytes_sent) << ctx;
  EXPECT_EQ(a.server_requests, b.server_requests) << ctx;
  EXPECT_EQ(a.client_requests, b.client_requests) << ctx;
  EXPECT_EQ(a.total_latency, b.total_latency) << ctx;
  EXPECT_EQ(a.miss_bytes, b.miss_bytes) << ctx;
  EXPECT_EQ(a.requested_bytes, b.requested_bytes) << ctx;
  EXPECT_EQ(a.speculative_docs_sent, b.speculative_docs_sent) << ctx;
  EXPECT_EQ(a.speculative_bytes, b.speculative_bytes) << ctx;
  EXPECT_EQ(a.speculative_hits, b.speculative_hits) << ctx;
  EXPECT_EQ(a.wasted_speculative_bytes, b.wasted_speculative_bytes) << ctx;
  EXPECT_EQ(a.prefetch_requests, b.prefetch_requests) << ctx;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << ctx;
  EXPECT_EQ(a.demand_server_responses, b.demand_server_responses) << ctx;
  EXPECT_EQ(a.demand_bytes_sent, b.demand_bytes_sent) << ctx;
  EXPECT_EQ(a.wasted_speculative_docs, b.wasted_speculative_docs) << ctx;
  EXPECT_EQ(a.unused_resident_speculative_docs,
            b.unused_resident_speculative_docs)
      << ctx;
  EXPECT_EQ(a.unavailable_requests, b.unavailable_requests) << ctx;
  EXPECT_EQ(a.retry_attempts, b.retry_attempts) << ctx;
  EXPECT_EQ(a.retry_wait_seconds, b.retry_wait_seconds) << ctx;
  EXPECT_EQ(a.brownout_responses, b.brownout_responses) << ctx;
  EXPECT_EQ(a.suppressed_speculative_docs, b.suppressed_speculative_docs)
      << ctx;
  EXPECT_EQ(a.emergent_brownouts, b.emergent_brownouts) << ctx;
  EXPECT_EQ(a.breaker_open_transitions, b.breaker_open_transitions) << ctx;
  EXPECT_EQ(a.retries_suppressed_by_budget, b.retries_suppressed_by_budget)
      << ctx;
  EXPECT_EQ(a.shed_speculative_docs, b.shed_speculative_docs) << ctx;
  EXPECT_EQ(a.breaker_fast_fails, b.breaker_fast_fails) << ctx;
}

/// The Figure 5 grid: the kNone baseline, then 12 T_p points.
std::vector<SpeculationConfig> Fig5Grid() {
  const SpeculationConfig base = core::BaselineSpecConfig();
  std::vector<SpeculationConfig> grid(1, base);
  grid[0].mode = ServiceMode::kNone;
  for (const double tp :
       {1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.05}) {
    SpeculationConfig config = base;
    config.policy.threshold = tp;
    config.closure.min_probability = std::min(0.02, tp);
    grid.push_back(config);
  }
  return grid;
}

class SharedModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new core::Workload(core::MakeWorkload(core::SmallConfig()));
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }

  static std::unique_ptr<SpeculationSimulator> NewSimulator() {
    return std::make_unique<SpeculationSimulator>(&workload_->corpus(),
                                                  &workload_->clean());
  }

  /// `config` replayed through a SpeculationReplay whose private model
  /// reads a CountDailyDependencies table of its own.
  static RunTotals PrivateReplay(const SpeculationSimulator& sim,
                                 const SpeculationConfig& config) {
    const std::vector<DayCounts> deltas =
        CountDailyDependencies(workload_->clean(), config.dependency);
    SpeculationReplay replay(
        &workload_->corpus(), workload_->clean().num_clients,
        workload_->clean().num_servers, config,
        [&deltas](long day) -> const DayCounts* {
          return day >= 0 && static_cast<size_t>(day) < deltas.size()
                     ? &deltas[day]
                     : nullptr;
        },
        nullptr);
    const PreparedSpecTrace& pt = sim.prepared();
    SpeculationReplay::Record rec;
    for (size_t i = 0; i < pt.size(); ++i) {
      rec.time = pt.time[i];
      rec.client = pt.client[i];
      rec.server = pt.server[i];
      rec.doc = pt.doc[i];
      rec.size_bytes = pt.size_bytes[i];
      rec.day = pt.day[i];
      replay.OnRequest(i, rec);
    }
    return replay.Finish();
  }

  static core::Workload* workload_;
};

core::Workload* SharedModelTest::workload_ = nullptr;

SpeculationConfig KeyBase() {
  SpeculationConfig config = core::BaselineSpecConfig();
  config.policy.threshold = 0.25;
  config.history_days = 7;
  return config;
}

struct KeyField {
  const char* name;
  std::function<void(SpeculationConfig*)> base;
  std::function<void(SpeculationConfig*)> vary;
};

std::vector<KeyField> KeyFields() {
  const auto none = [](SpeculationConfig*) {};
  const auto decay = [](SpeculationConfig* c) {
    c->estimator = SpeculationConfig::EstimatorKind::kExponentialDecay;
  };
  return {
      {"dependency.window", none,
       [](SpeculationConfig* c) { c->dependency.window = 10.0; }},
      {"dependency.stride_timeout", none,
       [](SpeculationConfig* c) { c->dependency.stride_timeout = 2.0; }},
      {"dependency.min_probability", none,
       [](SpeculationConfig* c) { c->dependency.min_probability = 0.05; }},
      {"dependency.min_support", none,
       [](SpeculationConfig* c) { c->dependency.min_support = 2; }},
      {"history_days", none,
       [](SpeculationConfig* c) { c->history_days = 3; }},
      {"update_cycle_days", none,
       [](SpeculationConfig* c) { c->update_cycle_days = 3; }},
      {"estimator", none, decay},
      {"decay_per_day", decay,
       [](SpeculationConfig* c) { c->decay_per_day = 0.8; }},
      {"closure.semantics", none,
       [](SpeculationConfig* c) {
         c->closure.semantics = ClosureSemantics::kSumProductCapped;
       }},
      {"closure.min_probability", none,
       [](SpeculationConfig* c) { c->closure.min_probability = 0.05; }},
      {"closure.max_depth", none,
       [](SpeculationConfig* c) { c->closure.max_depth = 2; }},
      {"closure.max_expansions", none,
       [](SpeculationConfig* c) { c->closure.max_expansions = 3; }},
  };
}

TEST_F(SharedModelTest, EveryKeyFieldSeparatesModels) {
  for (const KeyField& field : KeyFields()) {
    SCOPED_TRACE(field.name);
    const auto sim = NewSimulator();
    SpeculationConfig a = KeyBase();
    field.base(&a);
    SpeculationConfig b = a;
    field.vary(&b);

    // Holding both handles keeps both models in flight: a key that ignored
    // the field would hand b the model of a.
    const std::shared_ptr<SpeculationModel> model_a = sim->AcquireModel(a);
    const std::shared_ptr<SpeculationModel> model_b = sim->AcquireModel(b);
    ASSERT_NE(model_a, nullptr);
    ASSERT_NE(model_b, nullptr);
    EXPECT_NE(model_a, model_b);
    EXPECT_EQ(sim->model_builds(), 2u);

    RunTotals run_a, run_b;
    std::thread ta([&] { run_a = sim->Run(a); });
    std::thread tb([&] { run_b = sim->Run(b); });
    ta.join();
    tb.join();
    EXPECT_EQ(sim->model_builds(), 2u);
    ExpectTotalsEq(run_a, PrivateReplay(*sim, a), std::string("a"));
    ExpectTotalsEq(run_b, PrivateReplay(*sim, b), std::string("b"));
  }
}

TEST_F(SharedModelTest, PolicyFieldsShareOneModel) {
  const auto sim = NewSimulator();
  SpeculationConfig a = KeyBase();
  SpeculationConfig b = a;
  b.policy.threshold = 0.6;
  b.policy.max_size = 4096;
  b.cache.session_timeout = 1800.0;
  b.use_closure = false;
  b.mode = ServiceMode::kServerHints;
  const std::shared_ptr<SpeculationModel> model_a = sim->AcquireModel(a);
  EXPECT_EQ(sim->AcquireModel(b), model_a);
  EXPECT_EQ(sim->model_builds(), 1u);
  ExpectTotalsEq(sim->Run(b), PrivateReplay(*sim, b), "shared b");
}

TEST_F(SharedModelTest, ModesWithoutASharedModel) {
  const auto sim = NewSimulator();
  SpeculationConfig none = KeyBase();
  none.mode = ServiceMode::kNone;
  EXPECT_EQ(sim->AcquireModel(none), nullptr);
  SpeculationConfig prefetch = KeyBase();
  prefetch.mode = ServiceMode::kClientPrefetch;
  EXPECT_EQ(sim->AcquireModel(prefetch), nullptr);
  ExpectTotalsEq(sim->Run(prefetch), PrivateReplay(*sim, prefetch),
                 "prefetch");
  EXPECT_EQ(sim->model_builds(), 0u);
}

TEST_F(SharedModelTest, Fig5GridMatchesPrivateReplayAtAnyWorkerCount) {
  const std::vector<SpeculationConfig> grid = Fig5Grid();
  const auto reference_sim = NewSimulator();
  std::vector<RunTotals> reference;
  for (const SpeculationConfig& config : grid) {
    reference.push_back(PrivateReplay(*reference_sim, config));
  }
  const uint32_t hw = core::ResolveSweepWorkers(0);
  for (const uint32_t workers : {1u, 2u, hw}) {
    const auto sim = NewSimulator();
    sim->Prewarm(grid[0].dependency);
    core::SweepOptions options;
    options.workers = workers;
    const std::vector<RunTotals> totals = core::SweepMap(
        grid.size(), options,
        [&](size_t i, Rng&) { return sim->Run(grid[i]); });
    for (size_t i = 0; i < grid.size(); ++i) {
      ExpectTotalsEq(totals[i], reference[i],
                     "workers " + std::to_string(workers) + " point " +
                         std::to_string(i));
    }
  }
}

TEST_F(SharedModelTest, ConcurrentPointsBuildTheModelOnce) {
  const std::vector<SpeculationConfig> grid = Fig5Grid();
  const auto sim = NewSimulator();
  sim->Prewarm(grid[0].dependency);
  // The 12 T_p points share one key. While one handle keeps the model in
  // flight, the points build it once, however the pool schedules them.
  const std::shared_ptr<SpeculationModel> model = sim->AcquireModel(grid[1]);
  core::SweepOptions options;
  options.workers = static_cast<uint32_t>(grid.size());
  std::atomic<size_t> done{0};
  core::RunSweep(grid.size(), options, [&](size_t i, Rng&) {
    sim->Run(grid[i]);
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), grid.size());
  EXPECT_EQ(sim->model_builds(), 1u);

  // Each epoch was built once: the daily cycle rebuilds on every day from
  // 1 to the last day the replay reached.
  EXPECT_EQ(model->epochs_built(), sim->prepared().day.back());
}

TEST_F(SharedModelTest, LookAheadBuildsEachEpochOnceAndNonePastTheLastDay) {
  // Whoever obtains epoch k builds k + 1 ahead, but never an epoch whose
  // rebuild day the replays do not reach: a lone run leaves exactly the
  // epochs it consumed, and so do 2 and 4 overlapping runs.
  const std::vector<SpeculationConfig> grid = Fig5Grid();
  for (const uint32_t cycle : {1u, 3u}) {
    for (const size_t runs : {size_t{1}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "cycle " << cycle << " runs " << runs);
      const auto sim = NewSimulator();
      std::vector<SpeculationConfig> configs(grid.begin() + 1,
                                             grid.begin() + 1 + runs);
      for (SpeculationConfig& config : configs) {
        config.update_cycle_days = cycle;
      }
      const std::shared_ptr<SpeculationModel> model =
          sim->AcquireModel(configs[0]);
      std::vector<std::thread> threads;
      for (const SpeculationConfig& config : configs) {
        threads.emplace_back([&sim, &config] { sim->Run(config); });
      }
      for (std::thread& t : threads) t.join();
      EXPECT_EQ(sim->model_builds(), 1u);
      const long last_day = sim->prepared().day.back();
      size_t rebuild_days = 0;
      for (long day = 1; day <= last_day; ++day) {
        rebuild_days += SpeculationModel::RebuildsOn(day, cycle) ? 1 : 0;
      }
      EXPECT_EQ(model->epochs_built(), rebuild_days);
    }
  }
}

TEST_F(SharedModelTest, SerialRunsRebuildPerRun) {
  // A model lives only while a run holds it: runs that never overlap each
  // build their own, as a serial sweep always did.
  const std::vector<SpeculationConfig> grid = Fig5Grid();
  const auto sim = NewSimulator();
  for (size_t i = 1; i < grid.size(); ++i) sim->Run(grid[i]);
  EXPECT_EQ(sim->model_builds(), grid.size() - 1);
}

TEST_F(SharedModelTest, ConcurrentRowFillsAgree) {
  // Threads racing to fill the same closure rows all read one row per doc,
  // equal to the directly computed one.
  const SpeculationConfig config = KeyBase();
  const SparseProbMatrix p = EstimateDependencies(
      workload_->clean(), workload_->corpus().size(), config.dependency);
  const ClosureEpoch epoch(p, config.closure);
  const size_t num_docs = workload_->corpus().size();
  constexpr int kThreads = 4;
  std::vector<std::vector<SparseProbMatrix::RowView>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ClosureScratch scratch;
      for (size_t k = 0; k < num_docs; ++k) {
        // Each thread walks the docs from a different start.
        const auto doc =
            static_cast<trace::DocumentId>((k + t * num_docs / kThreads) %
                                           num_docs);
        seen[t].push_back(epoch.ClosureRow(doc, &scratch));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClosureScratch scratch;
  for (int t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < num_docs; ++k) {
      const auto doc = static_cast<trace::DocumentId>(
          (k + t * num_docs / kThreads) % num_docs);
      const SparseProbMatrix::RowView row = seen[t][k];
      EXPECT_EQ(row.data(), epoch.ClosureRow(doc, &scratch).data());
      if (t != 0) continue;
      const auto direct = ComputeClosureRow(p, doc, config.closure);
      ASSERT_EQ(row.size(), direct.size()) << doc;
      for (size_t e = 0; e < direct.size(); ++e) {
        EXPECT_EQ(row[e].doc, direct[e].doc);
        EXPECT_EQ(row[e].probability, direct[e].probability);
      }
    }
  }
}

}  // namespace
}  // namespace sds::spec
