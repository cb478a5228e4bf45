#ifndef SDS_SPEC_SIMULATOR_H_
#define SDS_SPEC_SIMULATOR_H_

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/faults.h"
#include "obs/journey.h"
#include "obs/trace.h"
#include "spec/aging.h"
#include "spec/client_cache.h"
#include "spec/closure.h"
#include "spec/dependency.h"
#include "spec/metrics.h"
#include "spec/policy.h"
#include "spec/queueing.h"
#include "trace/corpus.h"
#include "trace/cursor.h"
#include "trace/request.h"
#include "util/rng.h"

namespace sds::spec {

/// \brief Service protocol variant (§3.2 and §3.4 of the paper).
enum class ServiceMode : uint8_t {
  /// Plain request/response (the baseline both runs are compared to).
  kNone = 0,
  /// Server-initiated speculative service: the server pushes documents
  /// with p*[i,j] >= T_p along with every response.
  kSpeculativePush = 1,
  /// Client-initiated prefetching from per-user profiles (server attaches
  /// hints; the client decides using its own access history).
  kClientPrefetch = 2,
  /// Hybrid: the server pushes only near-certain documents (embedding
  /// grade, p* >= 0.95); the client prefetches the rest from its profile.
  kHybrid = 3,
  /// Server-assisted prefetching (§3.4): the server attaches the list of
  /// candidate URLs to each response instead of pushing bodies; the client
  /// fetches the hinted documents it does not hold. No duplicate bytes are
  /// ever sent, but every accepted hint is a separate server request.
  kServerHints = 4,
};

const char* ServiceModeToString(ServiceMode mode);

/// \brief Full parameter set of the trace-driven speculation simulation;
/// defaults are the paper's baseline model (table in §3.2).
struct SpeculationConfig {
  // Cost model: cost of communicating one byte and of servicing one
  // request, used for the service-time metric.
  double comm_cost = 1.0;
  double serv_cost = 10000.0;
  /// If true, speculative bytes in a response delay the requested document
  /// (strictly serial transfer). Default false: the requested document is
  /// delivered first and speculative documents trail it, so a miss costs
  /// ServCost + CommCost x size(requested) regardless of speculation —
  /// matching the paper's monotone service-time curves.
  bool charge_speculative_latency = false;

  /// Dependency estimation (T_w, StrideTimeout, pruning).
  DependencyConfig dependency;
  /// Closure computation.
  ClosureConfig closure;
  /// If false, the policy consults the raw P instead of the closure P*.
  bool use_closure = true;
  /// How P and the cached P* rows are maintained across update cycles.
  /// kBatch is the only mode and nothing reads this field; it is not part
  /// of the model key.
  ClosureMode closure_mode = ClosureMode::kBatch;
  /// How past observations are weighted when estimating P.
  enum class EstimatorKind : uint8_t {
    /// The paper's baseline: a sliding window of the last D' days.
    kSlidingWindow = 0,
    /// The aging mechanism of §3.4: counters decay exponentially per day
    /// (effective history ~ 1 / (1 - decay) days).
    kExponentialDecay = 1,
  };
  EstimatorKind estimator = EstimatorKind::kSlidingWindow;
  double decay_per_day = 0.95;
  /// D': days of history used to estimate P and P* (sliding window only).
  uint32_t history_days = 60;
  /// D: the relations are re-estimated every this many days.
  uint32_t update_cycle_days = 1;

  /// Speculation policy (T_p, MaxSize, ...).
  PolicyConfig policy;
  /// Client caching model (SessionTimeout, capacity).
  ClientCacheConfig cache;

  ServiceMode mode = ServiceMode::kSpeculativePush;
  /// Cooperative clients (§3.4): requests piggy-back a digest of the
  /// client's cache, letting the server skip documents already cached.
  bool cooperative_clients = false;

  /// Failure schedule overlaid on the replay (null or empty = fault-free,
  /// bit-identical to the pre-fault-injection simulator). Server outages
  /// make cache misses retry with backoff and eventually fail; brownouts
  /// (kServerBrownout) keep demand service up but shed all speculative
  /// pushes, hints and prefetch service. Must outlive the run.
  const net::FaultSchedule* faults = nullptr;
  /// Retry policy for misses that hit a server outage.
  net::RetryPolicy retry;
  /// Seed of the jitter stream used by `retry` (the simulator has no Rng
  /// parameter; sweeps derive this from their per-point stream to keep
  /// parallel == serial bit-identity). Unused when jitter == 0.
  uint64_t retry_jitter_seed = 0;
  /// Self-protection stack (docs/FAULTS.md "Cascades and self-protection").
  /// With `track_load` armed, every request the server absorbs counts
  /// toward a rolling utilization window and crossing the threshold sheds
  /// speculative work mid-run (an emergent brownout); circuit breakers
  /// fail misses fast during outages and retry budgets cap storm retries.
  /// All off by default, leaving existing replays bit-identical.
  net::ProtectionConfig protection;
};

/// \brief Immutable flat view of the replayable requests of a trace
/// (kDocument/kAlias only), with document sizes and day indices resolved
/// up front. Built once per simulator and shared read-only by every Run:
/// the replay loop streams these parallel arrays instead of re-filtering
/// request structs and chasing corpus lookups on every sweep point.
struct PreparedSpecTrace {
  std::vector<SimTime> time;
  std::vector<trace::ClientId> client;
  std::vector<trace::ServerId> server;
  std::vector<trace::DocumentId> doc;
  /// Corpus size of `doc` (the response size of a demand fetch).
  std::vector<uint64_t> size_bytes;
  /// DayOfTime(time), precomputed for the day-roll check.
  std::vector<uint32_t> day;

  size_t size() const { return time.size(); }
};

namespace internal {

/// Per-client access profile for client-initiated prefetching: the same
/// pair statistics as the server's P, but restricted to this user's own
/// history and learned online (only the past is ever consulted).
struct UserProfile {
  std::unordered_map<uint64_t, uint32_t> pair_counts;
  std::unordered_map<trace::DocumentId, uint32_t> occurrences;
  /// Recent requests within the dependency window.
  std::deque<std::pair<SimTime, trace::DocumentId>> recent;

  void Observe(trace::DocumentId doc, SimTime now,
               const DependencyConfig& config);
  double Probability(trace::DocumentId i, trace::DocumentId j,
                     uint32_t min_support) const;
  /// Documents this user historically requests after `doc`, with
  /// probability above the threshold.
  std::vector<CandidateDoc> Successors(trace::DocumentId doc,
                                       double threshold,
                                       uint32_t min_support) const;
};

}  // namespace internal

/// \brief Source of finished per-day dependency counts for the replay's
/// day-roll. Called with a day index >= 0; returns nullptr when the day is
/// outside the counted range (equivalent to an empty day). The batch path
/// wraps the cached CountDailyDependencies vector; the streaming path reads
/// the replay's own cursor ahead, through a DailyDependencyAccumulator,
/// just far enough to finalise the day.
using DayCountsSource = std::function<const DayCounts*(long day)>;

/// \brief P and P* across a replay's update cycles, as a sequence of
/// epochs.
///
/// Epoch k is the model re-estimated on the k-th rebuild day (day 1, then
/// every day divisible by update_cycle_days): P from the day counts the
/// estimator holds at that point, plus its lazily computed P* rows. Epochs
/// are built in order on first request, so a model only ever reads the day
/// counts it needs, in the order a replay's day-roll would. P and P* depend
/// on the trace and on the fields of SpeculationSimulator's model key, never
/// on the policy, so every run with the same key can read the same epochs.
///
/// A model that keeps its epochs serves any number of concurrent runs that
/// are at different days (SpeculationSimulator shares one per key among its
/// in-flight runs); Epoch is thread-safe and epoch pointers stay valid for
/// the model's lifetime. A private model keeps only the newest epoch: the
/// previous one is freed when the next is built.
class SpeculationModel {
 public:
  /// `num_docs` bounds the document ids; `deltas` supplies the finished
  /// day counts and must be thread-safe if runs share the model. `config`
  /// is copied; only its model-key fields are read.
  SpeculationModel(size_t num_docs, const SpeculationConfig& config,
                   DayCountsSource deltas, bool keep_epochs);

  /// True if the model is re-estimated when the day-roll reaches `day`.
  static bool RebuildsOn(long day, uint32_t update_cycle_days) {
    return day == 1 || day % update_cycle_days == 0;
  }

  /// The k-th epoch, building every epoch up to it first.
  const ClosureEpoch* Epoch(size_t k);

  /// Epochs built so far.
  size_t epochs_built() const;

 private:
  /// Folds finished day `day` into the estimator's counters.
  void FoldDay(long day);
  /// Steps the day-roll to the next rebuild day and re-estimates there.
  std::unique_ptr<const ClosureEpoch> BuildNext();

  const SpeculationConfig config_;
  const DayCountsSource deltas_;
  const bool keep_epochs_;

  /// Epoch-building state, guarded by build_mutex_.
  std::mutex build_mutex_;
  long day_ = 0;
  std::optional<WindowedCounts> counts_;
  std::optional<DecayedCounts> decayed_;

  /// Built epochs (null once a private model moved past them), guarded by
  /// epochs_mutex_ so readers never wait for a build in progress.
  mutable std::mutex epochs_mutex_;
  std::vector<std::unique_ptr<const ClosureEpoch>> epochs_;
};

/// \brief The speculation replay loop, one request at a time.
///
/// Holds every piece of per-run state (client caches, protection stack,
/// totals, its position in the model) so a run needs only O(clients +
/// model) resident memory regardless of trace length. SpeculationSimulator::Run
/// feeds it from the prepared flat arrays with a model shared among its
/// in-flight runs; the streaming path feeds it straight from a request
/// cursor with a private model. Both produce bit-identical RunTotals.
class SpeculationReplay {
 public:
  /// `corpus`, `config` and `deltas` must outlive the replay. `deltas` may
  /// be empty only when the mode needs no model; the replay builds a
  /// private SpeculationModel over it. `server_events`, if non-null, is
  /// cleared and then receives one time-ordered entry per request that
  /// reached the server.
  SpeculationReplay(const trace::Corpus* corpus, uint32_t num_clients,
                    uint32_t num_servers, const SpeculationConfig& config,
                    DayCountsSource deltas,
                    std::vector<ServerEvent>* server_events);

  /// Reads the epochs of `model` (null only when the mode needs no model),
  /// which may be shared with other runs of the same model key.
  SpeculationReplay(const trace::Corpus* corpus, uint32_t num_clients,
                    uint32_t num_servers, const SpeculationConfig& config,
                    std::shared_ptr<SpeculationModel> model,
                    std::vector<ServerEvent>* server_events);

  /// One replayable (kDocument/kAlias) request, with its corpus size and
  /// day index resolved. `i` is the global ordinal of the request among
  /// eligible requests (drives journey sampling).
  struct Record {
    SimTime time = 0.0;
    trace::ClientId client = 0;
    trace::ServerId server = 0;
    trace::DocumentId doc = trace::kInvalidDocument;
    uint64_t size_bytes = 0;
    uint32_t day = 0;
  };

  void OnRequest(size_t i, const Record& rec);

  /// Folds per-cache waste and protection counters into the totals and
  /// emits the run's observability block. The replay is spent afterwards.
  RunTotals Finish();

 private:
  /// How one client request ended, as its journey reports it.
  struct Outcome {
    int32_t served_by = obs::kServedByServer;
    uint32_t retries = 0;
    double backoff_s = 0.0;
    uint32_t pushed_docs = 0;
    double response_bytes = 0.0;
    double transfer_s = 0.0;
  };

  void RollDay(uint32_t day);
  /// The row of `doc` the policy consults: P* (or P without closure) of
  /// the current epoch.
  SparseProbMatrix::RowView ModelRow(trace::DocumentId doc);
  /// Records a miss that never reached the server (`decision` names why).
  void RecordUnavailable(size_t i, const Record& rec, const char* decision,
                         Outcome o);
  /// Records the journey of request `i`, if sampled.
  void RecordJourney(size_t i, const Record& rec, const Outcome& o);
  /// Counts one speculative document sent (pushed, hinted or prefetched).
  void CountSpeculative(SimTime now, uint64_t size);
  /// Accounts one background fetch of `doc` from the server (an accepted
  /// hint or a client prefetch) into the client's cache.
  void RecordPrefetch(size_t i, const char* stage, const Record& rec,
                      trace::DocumentId doc, uint64_t size);

  obs::SpanGuard run_span_;
  obs::JourneyRun journey_;
  const trace::Corpus* corpus_;
  const SpeculationConfig* config_;
  std::vector<ServerEvent>* server_events_;

  bool server_speculates_ = false;
  bool server_hints_ = false;
  bool client_prefetches_ = false;
  bool faulty_ = false;
  bool track_load_ = false;
  bool breakers_armed_ = false;
  bool budget_armed_ = false;
  bool admission_armed_ = false;

  std::shared_ptr<SpeculationModel> model_;
  /// The epoch the run reads, and how many it consumed.
  const ClosureEpoch* epoch_ = nullptr;
  size_t epochs_consumed_ = 0;
  bool model_ready_ = false;
  long current_day_ = 0;
  ClosureScratch scratch_;
  /// Epoch-stamped per-doc marks of the closure rows looked up in the
  /// current epoch: their count is what a private model would have
  /// computed, whoever actually computed a shared row.
  std::vector<uint32_t> row_stamp_;
  uint64_t rows_looked_up_ = 0;

  std::vector<ClientCache> caches_;
  std::vector<internal::UserProfile> profiles_;
  PolicyConfig push_policy_;
  RunTotals totals_;
  Rng retry_rng_;

  net::LoadTracker tracker_;
  std::vector<net::CircuitBreaker> breakers_;
  net::RetryBudget retry_budget_;
};

/// \brief Trace-driven simulator of speculative service.
///
/// Construct once per (corpus, trace); Run replays the trace under a
/// configuration and returns raw totals; Evaluate additionally replays the
/// plain protocol with identical caching and returns the paper's four
/// ratios. Per-day dependency counts are cached across runs that share
/// (T_w, StrideTimeout), and concurrent runs with the same model key share
/// one SpeculationModel, which makes parameter sweeps (T_p, MaxSize, ...)
/// cheap.
///
/// Thread safety: Run and Evaluate may be called concurrently from any
/// number of threads on the same simulator (replay state is local to the
/// call; the per-day count cache and the model map are mutex-guarded, and
/// their contents are pure functions of their keys). Core sweeps call
/// Prewarm first so that workers do not serialise on the first cache
/// fill.
class SpeculationSimulator {
 public:
  /// `corpus` and `trace` must outlive the simulator. The trace should be
  /// preprocessed (FilterTrace); kNotFound/kScript records are ignored.
  SpeculationSimulator(const trace::Corpus* corpus,
                       const trace::Trace* trace);

  SpeculationSimulator(const SpeculationSimulator&) = delete;
  SpeculationSimulator& operator=(const SpeculationSimulator&) = delete;

  /// Replays the trace under `config`. If `server_events` is non-null it
  /// receives one time-ordered entry per request that reached the server
  /// (misses, prefetches, hint fetches) with its response size, ready for
  /// ComputeQueueStats.
  RunTotals Run(const SpeculationConfig& config,
                std::vector<ServerEvent>* server_events = nullptr);

  /// Runs `config` and its mode-kNone twin and computes the four ratios.
  SpeculationMetrics Evaluate(const SpeculationConfig& config);

  /// The model `config` reads: the one an in-flight run with the same model
  /// key holds, else a new one. Null for modes that need no model. Holding
  /// the handle keeps the model, and with it every epoch built so far,
  /// alive for later runs; Run holds it for its duration only, so runs
  /// share a model exactly while they overlap.
  std::shared_ptr<SpeculationModel> AcquireModel(
      const SpeculationConfig& config);

  /// Shared models built so far (one per AcquireModel that found no live
  /// model for its key).
  uint64_t model_builds() const;

  /// Builds the per-day dependency counts for `config` now (a no-op if
  /// already cached). Parallel sweeps whose points share a dependency
  /// config call this once up front so the table is construction-time
  /// built instead of lazily filled under the cache mutex.
  void Prewarm(const DependencyConfig& config);

  /// The shared flat replay context (exposed for benchmarks).
  const PreparedSpecTrace& prepared() const { return prepared_; }

 private:
  /// Cache key for (window, stride_timeout): the doubles are keyed by
  /// their bit patterns, so -0.0 and 0.0 map to distinct entries instead
  /// of aliasing, and a NaN parameter gets a well-defined slot instead of
  /// breaking the map's strict weak ordering (NaN < NaN is false both
  /// ways under operator< on doubles, which std::map must not see).
  using DeltaKey = std::array<uint64_t, 2>;
  static DeltaKey MakeDeltaKey(const DependencyConfig& config) {
    return {std::bit_cast<uint64_t>(config.window),
            std::bit_cast<uint64_t>(config.stride_timeout)};
  }

  /// Every field the model's day-roll, BuildMatrix and ComputeClosureRow
  /// read, by bit pattern like DeltaKey: runs whose keys are equal read
  /// identical epochs.
  using ModelKey = std::array<uint64_t, 12>;
  static ModelKey MakeModelKey(const SpeculationConfig& config);

  const std::vector<DayCounts>& DailyDeltas(const DependencyConfig& config);

  const trace::Corpus* corpus_;
  const trace::Trace* trace_;
  PreparedSpecTrace prepared_;
  /// Cache of per-day dependency counts keyed by the bit-exact
  /// (window, stride timeout) pair. Guarded by delta_mutex_; entries are
  /// immutable once inserted and std::map never moves them, so returned
  /// references stay valid.
  std::map<DeltaKey, std::vector<DayCounts>> delta_cache_;
  std::mutex delta_mutex_;
  /// Models of the in-flight runs, by key; an entry expires with the last
  /// run that holds its model. Guarded by model_mutex_.
  std::map<ModelKey, std::weak_ptr<SpeculationModel>> models_;
  uint64_t model_builds_ = 0;
  mutable std::mutex model_mutex_;
};

/// \brief Streaming counterpart of SpeculationSimulator: replays a
/// time-ordered request cursor with O(clients + model + lookahead)
/// resident state instead of materializing the trace.
///
/// Each run reads the cursor once. Every chunk the replay pulls also feeds
/// the run's DailyDependencyAccumulator. When the day-roll asks for a day
/// that is not final yet, the run pulls further chunks ahead of the replay
/// (a day is final one dependency window past its end), counts them and
/// parks copies until the replay reaches them. Results are bit-identical
/// to the batch simulator on the materialized trace (pinned by
/// tests/spec/streaming_equivalence_test.cc).
class StreamingSpeculationSimulator {
 public:
  /// `corpus` and `replay` must outlive the simulator; `replay` is
  /// Rewind()-ed at the start of each run. `deps` is unused: runs count
  /// dependencies from `replay`. It stays for existing callers.
  StreamingSpeculationSimulator(const trace::Corpus* corpus,
                                trace::RequestCursor* replay,
                                trace::RequestCursor* deps = nullptr);

  RunTotals Run(const SpeculationConfig& config,
                std::vector<ServerEvent>* server_events = nullptr);

  /// Runs `config` and its mode-kNone twin and computes the four ratios.
  SpeculationMetrics Evaluate(const SpeculationConfig& config);

  /// How far the last Run read ahead of its replay: the most cursor chunks
  /// and requests it held parked at once.
  struct Lookahead {
    size_t chunks = 0;
    size_t requests = 0;
  };
  const Lookahead& last_lookahead() const { return lookahead_; }

 private:
  const trace::Corpus* corpus_;
  trace::RequestCursor* replay_;
  Lookahead lookahead_;
};

}  // namespace sds::spec

#endif  // SDS_SPEC_SIMULATOR_H_
