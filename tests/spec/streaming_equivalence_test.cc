// Differential tests for the streaming spec pipeline: the
// StreamingSpeculationSimulator and QueueSimulator must be bit-identical
// to their batch counterparts on the same request stream — not
// approximately equal; every RunTotals field and every server event must
// match exactly, because the streaming classes are the batch loop bodies
// re-fed from cursors, not re-implementations. The dependency counter has
// one implementation, so its cursor form is checked against the
// brute-force reference scan instead, run by run.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "core/workload.h"
#include "spec/dependency.h"
#include "spec/metrics.h"
#include "spec/queueing.h"
#include "spec/simulator.h"
#include "trace/cursor.h"
#include "reference_dependencies.h"

namespace sds::spec {
namespace {

// One shared small workload (batch mode, so both the materialized trace
// and cursors over the same stream are available side by side).
const core::Workload& SharedWorkload() {
  static const core::Workload* workload =
      new core::Workload(core::MakeWorkload(core::SmallConfig()));
  return *workload;
}

// ---------------------------------------------------------------------------
// Dependency counting
// ---------------------------------------------------------------------------

// The independent oracle for the counter: the brute-force per-client scan
// over the materialised clean trace (runs sorted by key).
std::vector<DayCounts> ReferenceCounts(const DependencyConfig& config) {
  return reference::DailyCounts(SharedWorkload().clean(), config);
}

// Compares one day's counts with the (sorted) reference run by run.
void ExpectDayEq(const DayCounts& want, DayCounts got, size_t day) {
  got.Normalize();
  EXPECT_EQ(want.pair_counts, got.pair_counts) << "day " << day;
  EXPECT_EQ(want.occurrences, got.occurrences) << "day " << day;
}

void ExpectDaysEq(const std::vector<DayCounts>& batch,
                  const std::vector<DayCounts>& stream) {
  ASSERT_EQ(batch.size(), stream.size());
  for (size_t d = 0; d < batch.size(); ++d) ExpectDayEq(batch[d], stream[d], d);
}

TEST(StreamingDependencyTest, MatchesBatchOnDefaultConfig) {
  const DependencyConfig config;
  const auto cursor = SharedWorkload().NewCleanCursor();
  ExpectDaysEq(ReferenceCounts(config),
               CountDailyDependencies(cursor.get(), config));
}

TEST(StreamingDependencyTest, MatchesBatchOnWideWindow) {
  DependencyConfig config;
  config.window = 60.0;
  config.stride_timeout = 300.0;
  const auto cursor = SharedWorkload().NewCleanCursor();
  ExpectDaysEq(ReferenceCounts(config),
               CountDailyDependencies(cursor.get(), config));
}

TEST(StreamingDependencyTest, MatchesBatchOnTightStride) {
  DependencyConfig config;
  config.window = 30.0;
  config.stride_timeout = 2.0;  // stride breaks dominate
  const auto cursor = SharedWorkload().NewCleanCursor();
  ExpectDaysEq(ReferenceCounts(config),
               CountDailyDependencies(cursor.get(), config));
}

// The pump-ahead pattern the streaming simulator uses: query each day the
// moment DayFinal flips, drop history behind the query point, and still
// read batch-identical counts. This pins both the day-finality rule and
// DropBefore leaving live days untouched.
TEST(StreamingDependencyTest, IncrementalFinalityAndDropBefore) {
  const DependencyConfig config;
  const auto batch = ReferenceCounts(config);

  DailyDependencyAccumulator acc(config,
                                 SharedWorkload().clean().num_clients);
  const auto cursor = SharedWorkload().NewCleanCursor();
  uint32_t next_day = 0;  // first day not yet verified
  const auto drain_final_days = [&] {
    while (next_day < batch.size() && acc.DayFinal(next_day)) {
      const DayCounts* counts = acc.Counts(next_day);
      ASSERT_NE(counts, nullptr);
      ExpectDayEq(batch[next_day], *counts, next_day);
      ++next_day;
      if (next_day > 2) acc.DropBefore(next_day - 2);
    }
  };
  for (auto chunk = cursor->NextChunk(); !chunk.empty();
       chunk = cursor->NextChunk()) {
    for (const auto& r : chunk) acc.OnRequest(r);
    drain_final_days();
  }
  acc.FinishStream();
  drain_final_days();
  EXPECT_EQ(next_day, batch.size());
}

TEST(StreamingDependencyTest, EmptyStream) {
  const DependencyConfig config;
  trace::Trace empty;
  empty.num_clients = 0;
  empty.num_servers = 1;
  trace::VectorCursor cursor(&empty);
  const auto days = CountDailyDependencies(&cursor, config);
  ASSERT_EQ(days.size(), 1u);  // matches batch: one empty day
  EXPECT_TRUE(days[0].pair_counts.empty());
  EXPECT_TRUE(days[0].occurrences.empty());
}

// A final day the accumulator no longer (or never) holds reads as the empty
// DayCounts, as a day without traffic does.
TEST(StreamingDependencyTest, DroppedAndUnseenFinalDaysAreEmpty) {
  const DependencyConfig config;
  const auto batch = ReferenceCounts(config);
  ASSERT_GE(batch.size(), 3u);
  ASSERT_FALSE(batch[0].occurrences.empty());

  DailyDependencyAccumulator acc(config,
                                 SharedWorkload().clean().num_clients);
  const auto cursor = SharedWorkload().NewCleanCursor();
  for (auto chunk = cursor->NextChunk(); !chunk.empty();
       chunk = cursor->NextChunk()) {
    for (const auto& r : chunk) acc.OnRequest(r);
  }
  acc.FinishStream();
  ExpectDayEq(batch[0], *acc.Counts(0), 0);
  acc.DropBefore(2);
  for (const uint32_t day :
       {0u, 1u, static_cast<uint32_t>(batch.size()) + 5}) {
    const DayCounts* counts = acc.Counts(day);
    ASSERT_NE(counts, nullptr);
    EXPECT_TRUE(counts->pair_counts.empty()) << "day " << day;
    EXPECT_TRUE(counts->occurrences.empty()) << "day " << day;
  }
  ExpectDayEq(batch[2], *acc.Counts(2), 2);
}

// Neither an occurrence nor a pair may count toward a day DropBefore
// already released.
TEST(StreamingDependencyDeathTest, CountBelowTheFloorAborts) {
  const DependencyConfig config;
  trace::Request late_leader;
  late_leader.client = 0;
  late_leader.doc = 1;
  late_leader.time = kDay - 1.0;
  trace::Request follower = late_leader;
  follower.doc = 2;
  follower.time = kDay + 1.0;  // pairs with the day-0 leader
  EXPECT_DEATH(
      {
        DailyDependencyAccumulator acc(config, 1);
        acc.DropBefore(1);
        acc.OnRequest(late_leader);
      },
      "day 0 is below the DropBefore floor 1");
  EXPECT_DEATH(
      {
        DailyDependencyAccumulator acc(config, 1);
        acc.OnRequest(late_leader);
        acc.DropBefore(1);
        acc.OnRequest(follower);
      },
      "pair led on day 0, below the DropBefore floor 1");
}

// ---------------------------------------------------------------------------
// Speculation replay
// ---------------------------------------------------------------------------

void ExpectTotalsEq(const RunTotals& a, const RunTotals& b) {
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.server_requests, b.server_requests);
  EXPECT_EQ(a.client_requests, b.client_requests);
  EXPECT_EQ(a.total_latency, b.total_latency);
  EXPECT_EQ(a.miss_bytes, b.miss_bytes);
  EXPECT_EQ(a.requested_bytes, b.requested_bytes);
  EXPECT_EQ(a.speculative_docs_sent, b.speculative_docs_sent);
  EXPECT_EQ(a.speculative_bytes, b.speculative_bytes);
  EXPECT_EQ(a.speculative_hits, b.speculative_hits);
  EXPECT_EQ(a.wasted_speculative_bytes, b.wasted_speculative_bytes);
  EXPECT_EQ(a.prefetch_requests, b.prefetch_requests);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.demand_server_responses, b.demand_server_responses);
  EXPECT_EQ(a.demand_bytes_sent, b.demand_bytes_sent);
  EXPECT_EQ(a.wasted_speculative_docs, b.wasted_speculative_docs);
  EXPECT_EQ(a.unused_resident_speculative_docs,
            b.unused_resident_speculative_docs);
  EXPECT_EQ(a.unavailable_requests, b.unavailable_requests);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_EQ(a.retry_wait_seconds, b.retry_wait_seconds);
  EXPECT_EQ(a.brownout_responses, b.brownout_responses);
  EXPECT_EQ(a.suppressed_speculative_docs, b.suppressed_speculative_docs);
  EXPECT_EQ(a.emergent_brownouts, b.emergent_brownouts);
  EXPECT_EQ(a.breaker_open_transitions, b.breaker_open_transitions);
  EXPECT_EQ(a.retries_suppressed_by_budget, b.retries_suppressed_by_budget);
  EXPECT_EQ(a.shed_speculative_docs, b.shed_speculative_docs);
  EXPECT_EQ(a.breaker_fast_fails, b.breaker_fast_fails);
}

void ExpectEventsEq(const std::vector<ServerEvent>& batch,
                    const std::vector<ServerEvent>& stream) {
  ASSERT_EQ(batch.size(), stream.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].time, stream[i].time) << "event " << i;
    EXPECT_EQ(batch[i].response_bytes, stream[i].response_bytes)
        << "event " << i;
  }
}

// Runs `config` through both paths and requires bit-identical totals and
// server-event streams.
void ExpectRunEquivalence(const SpeculationConfig& config) {
  const core::Workload& w = SharedWorkload();
  SpeculationSimulator batch(&w.corpus(), &w.clean());
  std::vector<ServerEvent> batch_events;
  const RunTotals batch_totals = batch.Run(config, &batch_events);

  const auto replay = w.NewCleanCursor();
  StreamingSpeculationSimulator stream(&w.corpus(), replay.get());
  std::vector<ServerEvent> stream_events;
  const RunTotals stream_totals = stream.Run(config, &stream_events);

  ExpectTotalsEq(batch_totals, stream_totals);
  ExpectEventsEq(batch_events, stream_events);
}

SpeculationConfig SmallHistoryBase() {
  SpeculationConfig config;
  // Short history + multi-day cycle stresses the day roll, the window
  // expiry path and the accumulator's DropBefore floor.
  config.history_days = 3;
  config.update_cycle_days = 2;
  return config;
}

TEST(StreamingSimulatorTest, NoneModeMatchesBatch) {
  SpeculationConfig config;
  config.mode = ServiceMode::kNone;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, NoneModeNeedsNoDepsCursor) {
  // An explicit null deps cursor is accepted; runs read only the replay
  // cursor (fig5 runs the baseline this way before the sweep).
  const core::Workload& w = SharedWorkload();
  SpeculationConfig config;
  config.mode = ServiceMode::kNone;
  SpeculationSimulator batch(&w.corpus(), &w.clean());
  const auto replay = w.NewCleanCursor();
  StreamingSpeculationSimulator stream(&w.corpus(), replay.get(), nullptr);
  ExpectTotalsEq(batch.Run(config), stream.Run(config));
}

TEST(StreamingSimulatorTest, PushModeMatchesBatch) {
  SpeculationConfig config;
  config.mode = ServiceMode::kSpeculativePush;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, PushWithoutClosureMatchesBatch) {
  SpeculationConfig config;
  config.mode = ServiceMode::kSpeculativePush;
  config.use_closure = false;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, ExponentialDecayMatchesBatch) {
  SpeculationConfig config;
  config.mode = ServiceMode::kSpeculativePush;
  config.estimator = SpeculationConfig::EstimatorKind::kExponentialDecay;
  config.decay_per_day = 0.9;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, ClientPrefetchMatchesBatch) {
  SpeculationConfig config;
  config.mode = ServiceMode::kClientPrefetch;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, HybridMatchesBatch) {
  SpeculationConfig config;
  config.mode = ServiceMode::kHybrid;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, CooperativeClientsMatchBatch) {
  SpeculationConfig config;
  config.mode = ServiceMode::kSpeculativePush;
  config.cooperative_clients = true;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, ShortHistoryMultiDayCycleMatchesBatch) {
  SpeculationConfig config = SmallHistoryBase();
  config.mode = ServiceMode::kSpeculativePush;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, OneDayHistoryMatchesBatch) {
  // D' = 1: the window holds a single day, so every fold both adds the
  // finished day and removes the one before it, right at the floor.
  SpeculationConfig config;
  config.mode = ServiceMode::kSpeculativePush;
  config.history_days = 1;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, EvaluateMatchesBatchEvaluate) {
  const core::Workload& w = SharedWorkload();
  SpeculationConfig config;
  config.mode = ServiceMode::kSpeculativePush;

  SpeculationSimulator batch(&w.corpus(), &w.clean());
  const SpeculationMetrics bm = batch.Evaluate(config);

  const auto replay = w.NewCleanCursor();
  StreamingSpeculationSimulator stream(&w.corpus(), replay.get());
  const SpeculationMetrics sm = stream.Evaluate(config);

  EXPECT_EQ(bm.bandwidth_ratio, sm.bandwidth_ratio);
  EXPECT_EQ(bm.server_load_ratio, sm.server_load_ratio);
  EXPECT_EQ(bm.service_time_ratio, sm.service_time_ratio);
  EXPECT_EQ(bm.miss_rate_ratio, sm.miss_rate_ratio);
  EXPECT_EQ(bm.extra_traffic, sm.extra_traffic);
  ExpectTotalsEq(bm.with_speculation, sm.with_speculation);
  ExpectTotalsEq(bm.without_speculation, sm.without_speculation);
}

// ---------------------------------------------------------------------------
// Chunk boundaries of the single-pass pump
// ---------------------------------------------------------------------------

// Re-slices a materialized trace into chunks of `chunk_size` requests,
// copied into storage the next call overwrites (as real cursors do), and
// counts how it is driven.
class ResliceCursor : public trace::RequestCursor {
 public:
  ResliceCursor(const trace::Trace* trace, size_t chunk_size)
      : trace_(trace), chunk_size_(chunk_size) {}

  std::span<const trace::Request> NextChunk() override {
    ++calls;
    const size_t n = std::min(chunk_size_, trace_->size() - pos_);
    if (n == 0) ++empty_returns;
    chunk_.assign(trace_->requests.begin() + pos_,
                  trace_->requests.begin() + pos_ + n);
    pos_ += n;
    requests += n;
    return chunk_;
  }
  void Rewind() override {
    ++rewinds;
    pos_ = 0;
  }
  uint32_t num_clients() const override { return trace_->num_clients; }
  uint32_t num_servers() const override { return trace_->num_servers; }

  size_t calls = 0;
  size_t rewinds = 0;
  size_t empty_returns = 0;
  size_t requests = 0;

 private:
  const trace::Trace* trace_;
  size_t chunk_size_;
  size_t pos_ = 0;
  std::vector<trace::Request> chunk_;
};

// Requests of `trace` less than `window` seconds past each midnight, by
// day. A run parks at most one day's count plus one chunk when it pumps a
// day final.
std::vector<size_t> RequestsPastMidnight(const trace::Trace& trace,
                                         SimTime window) {
  std::vector<size_t> per_day(
      static_cast<size_t>(DayOfTime(trace.Span())) + 1, 0);
  for (const trace::Request& r : trace.requests) {
    const size_t day = static_cast<size_t>(DayOfTime(r.time));
    if (r.time - static_cast<SimTime>(day) * kDay < window) ++per_day[day];
  }
  return per_day;
}

// Every chunking of the same stream, down to one request per chunk, yields
// the batch results bit for bit. Each run rewinds and drains its replay
// cursor exactly once, never reads the deps cursor, and parks only what
// finalising a day needs. The small trace is quiet in the seconds after
// midnight, so a one-hour T_w is what makes the runs read ahead; a copy
// cut half an hour into its busiest early morning makes a pump reach the
// end of the stream.
TEST(StreamingSimulatorTest, AnyChunkingMatchesBatchInOnePass) {
  const core::Workload& w = SharedWorkload();
  const trace::Trace& clean = w.clean();
  const std::vector<size_t> early = RequestsPastMidnight(clean, 1800.0);
  const SimTime cut_time =
      static_cast<SimTime>(std::max_element(early.begin(), early.end()) -
                           early.begin()) *
          kDay +
      1800.0;
  trace::Trace cut = clean;
  std::erase_if(cut.requests, [cut_time](const trace::Request& r) {
    return r.time >= cut_time;
  });

  SpeculationConfig push;
  push.mode = ServiceMode::kSpeculativePush;
  SpeculationConfig hybrid;
  hybrid.mode = ServiceMode::kHybrid;
  SpeculationConfig decay = push;
  decay.estimator = SpeculationConfig::EstimatorKind::kExponentialDecay;
  decay.decay_per_day = 0.9;
  SpeculationConfig small_history = SmallHistoryBase();
  small_history.mode = ServiceMode::kSpeculativePush;

  const trace::Trace* const traces[] = {&clean, &cut};
  for (const trace::Trace* stream_trace : traces) {
    SpeculationSimulator batch(&w.corpus(), stream_trace);
    for (SpeculationConfig config : {push, hybrid, decay, small_history}) {
      for (const SimTime window : {5.0, 3600.0}) {
        config.dependency.window = window;
        std::vector<ServerEvent> batch_events;
        const RunTotals batch_totals = batch.Run(config, &batch_events);
        const std::vector<size_t> past_midnight =
            RequestsPastMidnight(*stream_trace, window);
        const size_t window_requests =
            *std::max_element(past_midnight.begin(), past_midnight.end());
        for (const size_t chunk_size :
             {size_t{1}, size_t{7}, size_t{4096}, stream_trace->size()}) {
          SCOPED_TRACE(testing::Message()
                       << ServiceModeToString(config.mode) << " history "
                       << config.history_days << " window " << window
                       << " chunk " << chunk_size << " requests "
                       << stream_trace->size());
          ResliceCursor replay(stream_trace, chunk_size);
          ResliceCursor deps(stream_trace, chunk_size);
          StreamingSpeculationSimulator stream(&w.corpus(), &replay, &deps);
          std::vector<ServerEvent> stream_events;
          ExpectTotalsEq(batch_totals, stream.Run(config, &stream_events));
          ExpectEventsEq(batch_events, stream_events);

          EXPECT_EQ(replay.rewinds, 1u);
          EXPECT_EQ(replay.empty_returns, 1u);
          EXPECT_EQ(replay.requests, stream_trace->size());
          EXPECT_EQ(deps.calls, 0u);
          EXPECT_EQ(deps.rewinds, 0u);

          const auto& ahead = stream.last_lookahead();
          EXPECT_LE(ahead.requests, window_requests + chunk_size);
          if (chunk_size >= 4096) {
            EXPECT_LE(ahead.chunks, 2u);
          } else if (window_requests > 0) {
            EXPECT_GE(ahead.chunks, 1u);
          }
        }
      }
    }
  }
}

// A streaming run's model is private and builds each epoch only when the
// day-roll asks for it, so its pass reads ahead only as far as finalising
// the current day needs; a model that built ahead would read a day further.
// The maxima are pinned for the default T_w and a one-hour one.
TEST(StreamingSimulatorTest, PrivateModelLookaheadIsPinned) {
  const core::Workload& w = SharedWorkload();
  struct Case {
    SimTime window;
    size_t chunk_size;
    size_t chunks;
    size_t requests;
  };
  for (const Case& c : {Case{5.0, 7, 0, 0}, Case{5.0, 4096, 0, 0},
                        Case{3600.0, 7, 7, 49}, Case{3600.0, 4096, 1, 3320}}) {
    SCOPED_TRACE(testing::Message()
                 << "window " << c.window << " chunk " << c.chunk_size);
    SpeculationConfig config;
    config.mode = ServiceMode::kSpeculativePush;
    config.dependency.window = c.window;
    ResliceCursor replay(&w.clean(), c.chunk_size);
    StreamingSpeculationSimulator stream(&w.corpus(), &replay);
    stream.Run(config);
    EXPECT_EQ(stream.last_lookahead().chunks, c.chunks);
    EXPECT_EQ(stream.last_lookahead().requests, c.requests);
  }
}

// ---------------------------------------------------------------------------
// Queue statistics
// ---------------------------------------------------------------------------

TEST(StreamingQueueTest, PushFinishMatchesComputeQueueStats) {
  const core::Workload& w = SharedWorkload();
  SpeculationSimulator sim(&w.corpus(), &w.clean());
  SpeculationConfig config;
  config.mode = ServiceMode::kSpeculativePush;
  std::vector<ServerEvent> events;
  sim.Run(config, &events);
  ASSERT_FALSE(events.empty());

  QueueConfig qc;
  qc.service_overhead_s = 0.05;
  qc.service_rate_bytes_per_s = 1.5e6;
  const QueueStats batch = ComputeQueueStats(events, qc);

  QueueSimulator queue(qc);
  for (const ServerEvent& e : events) queue.Push(e);
  const QueueStats stream = queue.Finish();

  EXPECT_EQ(batch.requests, stream.requests);
  EXPECT_EQ(batch.utilization, stream.utilization);
  EXPECT_EQ(batch.mean_wait_s, stream.mean_wait_s);
  EXPECT_EQ(batch.mean_response_s, stream.mean_response_s);
  EXPECT_EQ(batch.p95_response_s, stream.p95_response_s);
  EXPECT_EQ(batch.max_queue_depth, stream.max_queue_depth);
}

TEST(StreamingQueueTest, EmptyFinishMatchesBatchEmpty) {
  QueueConfig qc;
  const QueueStats batch = ComputeQueueStats({}, qc);
  QueueSimulator queue(qc);
  const QueueStats stream = queue.Finish();
  EXPECT_EQ(batch.requests, stream.requests);
  EXPECT_EQ(batch.utilization, stream.utilization);
}

}  // namespace
}  // namespace sds::spec
