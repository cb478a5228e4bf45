#ifndef SDS_NET_FAULTS_H_
#define SDS_NET_FAULTS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "net/topology.h"
#include "trace/cursor.h"
#include "trace/request.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/status.h"

namespace sds::net {

/// \brief What kind of entity a scheduled fault takes down.
enum class FaultKind : uint8_t {
  /// A topology node (router) is unreachable; every route through it is
  /// broken. Takes a proxy offline when it hits the proxy's node.
  kNodeOutage = 0,
  /// The tree edge between a node and its parent is cut; routes crossing
  /// the edge are broken while the nodes stay up.
  kLinkOutage = 1,
  /// A home server is down entirely (crash, maintenance): it serves
  /// nothing. Identified by ServerId, not NodeId.
  kServerOutage = 2,
  /// A home server is overloaded but alive (brownout): it still serves
  /// requested documents but sheds all speculative work.
  kServerBrownout = 3,
};

/// \brief One scheduled fault: `id` (a NodeId for node/link faults, a
/// ServerId for server faults) is affected during [start, end).
struct FaultEvent {
  FaultKind kind = FaultKind::kNodeOutage;
  uint32_t id = 0;
  SimTime start = 0.0;
  SimTime end = 0.0;
};

/// \brief A half-open time window [lo, hi) on which a schedule query's
/// answer cannot change. The default is the whole time line; each
/// consulted entity narrows it.
struct Window {
  SimTime lo = -std::numeric_limits<SimTime>::infinity();
  SimTime hi = std::numeric_limits<SimTime>::infinity();

  bool Contains(SimTime t) const { return lo <= t && t < hi; }
  void Narrow(SimTime from, SimTime to) {
    lo = std::max(lo, from);
    hi = std::min(hi, to);
  }
};

/// \brief A deterministic overlay of failures on the clientele tree.
///
/// The schedule is built up front (generated from an explicit Rng stream
/// and/or from the load profile of the trace) and then queried read-only by
/// the simulators, so the same schedule object can be shared across sweep
/// points and threads. All queries are half-open: an entity is down at `t`
/// iff some event covers start <= t < end.
class FaultSchedule {
 public:
  /// Storage is indexed by id, so ids are expected to be topology NodeIds
  /// and ServerIds (small and dense), not arbitrary keys.
  void Add(const FaultEvent& event);

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Each query below that takes a `window` (optional) narrows it to a
  /// window around `t` on which its answer stays the same, so a caller can
  /// reuse the answer for any time inside it without asking again.
  bool NodeDown(NodeId node, SimTime t, Window* window = nullptr) const;
  /// The edge between `child` and its parent is cut at `t`.
  bool LinkDown(NodeId child, SimTime t, Window* window = nullptr) const;
  bool ServerDown(trace::ServerId server, SimTime t,
                  Window* window = nullptr) const;
  bool ServerDegraded(trace::ServerId server, SimTime t) const;

  /// True when the tree route from `from` to `to` is intact at `t`: every
  /// node on the route except `from` itself is up and every edge on the
  /// route is uncut. (`from` is the querying client's own attachment node;
  /// its failure is modelled as the client being offline, not as a service
  /// failure, so it is not checked here.) Walks parent pointers from both
  /// ends up to their lowest common ancestor; no route is materialised.
  /// `window` is narrowed over every node and link consulted.
  bool PathUp(const Topology& topology, NodeId from, NodeId to, SimTime t,
              Window* window = nullptr) const;

 private:
  // Per-entity interval sets indexed by id (ids never added read as
  // empty), kept sorted and coalesced at insertion time (overlapping/
  // adjacent intervals are merged into one), so every query is an index
  // plus a single binary search and const queries stay safe to share
  // across threads with no lazy mutation.
  using Intervals = std::vector<std::vector<std::pair<SimTime, SimTime>>>;
  static void Insert(Intervals* intervals, uint32_t id, SimTime start,
                     SimTime end);
  /// Whether `id` is covered at `t`; narrows `window` (if non-null) to the
  /// covering interval or to the gap between its neighbours.
  static bool Covers(const Intervals& intervals, uint32_t id, SimTime t,
                     Window* window);

  std::vector<FaultEvent> events_;
  Intervals node_down_;
  Intervals link_down_;
  Intervals server_down_;
  Intervals server_degraded_;
};

/// \brief Rates of the randomly generated part of a failure schedule. All
/// rates are per-entity per-day probabilities of an outage starting.
struct FaultInjectionConfig {
  /// Days covered by the schedule (typically ceil(trace span / kDay) + 1).
  double horizon_days = 0.0;
  double node_failure_rate_per_day = 0.0;
  double link_failure_rate_per_day = 0.0;
  double server_failure_rate_per_day = 0.0;
  /// Outage durations are exponential with this mean, floored at
  /// `min_outage_days` (a crashed router takes at least that long to come
  /// back).
  double mean_outage_days = 0.25;
  double min_outage_days = 1.0 / 24.0;
  /// Probability that a drawn node outage is a *zone failure* that takes
  /// the node's whole subtree down for the same interval (the paper's
  /// hierarchical clusters — a region or organisation — failing as a
  /// unit). The correlation draw is only made when this is > 0, so the
  /// default leaves the legacy Rng stream layout untouched.
  double zone_failure_probability = 0.0;
};

/// \brief Draws node, link and server outages from `rng`.
///
/// Deterministic-seeding contract: the generated schedule is a pure
/// function of (topology shape, config, the Rng stream) — entities are
/// visited in increasing id order and days in increasing order, and every
/// Bernoulli draw is made whether or not it fires, so the draw sequence
/// never depends on earlier outcomes' side effects. Generating from a
/// sweep point's Rng therefore preserves parallel == serial bit-identity
/// (docs/SWEEP.md). The backbone root (node 0) never fails.
FaultSchedule GenerateFaultSchedule(const Topology& topology,
                                    const FaultInjectionConfig& config,
                                    Rng* rng);

/// \brief Load-dependent brownouts driven by the queueing model of
/// spec/queueing.h: a day's offered utilization is
/// (requests x overhead + bytes / rate) / 86400, and any day above the
/// threshold becomes a kServerBrownout. Defaults mirror spec::QueueConfig.
struct BrownoutConfig {
  double service_overhead_s = 0.05;
  double service_rate_bytes_per_s = 1.5e6;
  /// Utilization above which the server sheds speculative work.
  double utilization_threshold = 0.75;
};

/// \brief The offered demand of one server per day: request count and
/// bytes of its kDocument/kAlias records, indexed by day.
struct DailyLoad {
  trace::ServerId server = 0;
  std::vector<uint64_t> requests;
  std::vector<double> bytes;
};

/// \brief Bins the rest of the cursor's stream into `server`'s DailyLoad.
DailyLoad CountDailyLoad(trace::RequestCursor* cursor, trace::ServerId server);

/// \brief Appends one brownout event per day of `load` whose utilization
/// exceeds the threshold and returns how many days tripped. Deterministic:
/// no randomness involved.
uint32_t AddLoadBrownouts(const DailyLoad& load, const BrownoutConfig& config,
                          FaultSchedule* schedule);

/// \brief AddLoadBrownouts over the daily load of `server` in `trace`.
uint32_t AddLoadBrownouts(const trace::Trace& trace, trace::ServerId server,
                          const BrownoutConfig& config,
                          FaultSchedule* schedule);

/// \brief Client-side recovery policy: how a client re-issues a request
/// after a failed attempt (timeout, dead proxy, broken route).
///
/// Attempt 0 happens immediately; each retry waits
/// timeout_s + Backoff(retry_index), where Backoff is exponential
/// (base x multiplier^index, capped at max_backoff_s) scaled by a uniform
/// jitter factor in [1 - jitter, 1 + jitter). With jitter = 0 no random
/// draw is made, so fault-free replays consume no Rng state.
struct RetryPolicy {
  /// Total attempts, including the first (1 = no retries).
  uint32_t max_attempts = 4;
  /// Time a failed attempt costs before the client gives up on it.
  double timeout_s = 5.0;
  double base_backoff_s = 1.0;
  double backoff_multiplier = 2.0;
  double max_backoff_s = 60.0;
  /// Relative jitter; must be in [0, 1].
  double jitter = 0.0;

  /// Rejects out-of-range fields (jitter outside [0, 1], zero attempts,
  /// negative times, multiplier < 1) with kInvalidArgument. Call where a
  /// policy enters the system (experiment setup, bench flags).
  Status Validate() const;

  /// Backoff waited before retry `retry_index` (0 = first retry). `rng`
  /// may be null when jitter == 0.
  double BackoffBeforeRetry(uint32_t retry_index, Rng* rng) const;

  /// Scales `backoff` by the jitter factor (one draw from `rng` when
  /// jitter > 0, none otherwise).
  double Jitter(double backoff, Rng* rng) const;
};

/// \brief A RetryPolicy's capped backoffs, computed once per replay.
///
/// Rung i is BackoffBeforeRetry(i) before jitter, from the same
/// multiplications in the same order. The ladder holds the retries the
/// policy allows (at most kMaxRungs) and stops at the cap, past which every
/// backoff equals it; a retry past an uncapped ladder runs the loop.
/// Before() applies jitter as BackoffBeforeRetry does, with the same draws,
/// so the two are interchangeable bit for bit.
class BackoffLadder {
 public:
  explicit BackoffLadder(const RetryPolicy& policy);

  /// Equals policy.BackoffBeforeRetry(retry_index, rng).
  double Before(uint32_t retry_index, Rng* rng) const {
    if (retry_index < num_rungs_) {
      return policy_.Jitter(rungs_[retry_index], rng);
    }
    return capped_ ? policy_.Jitter(rungs_[num_rungs_ - 1], rng)
                   : policy_.BackoffBeforeRetry(retry_index, rng);
  }

 private:
  static constexpr uint32_t kMaxRungs = 16;

  RetryPolicy policy_;
  std::array<double, kMaxRungs> rungs_{};
  uint32_t num_rungs_ = 0;
  /// True if the last rung reached the cap.
  bool capped_ = false;
};

/// \brief Queueing constants and thresholds for LoadTracker. The service
/// constants mirror BrownoutConfig / spec::QueueConfig so scheduled and
/// emergent brownouts share one capacity model.
struct LoadTrackerConfig {
  double service_overhead_s = 0.05;
  double service_rate_bytes_per_s = 1.5e6;
  /// Accounting window; offered utilization is busy seconds per window.
  double window_s = 3600.0;
  /// Utilization above which an entity trips into an emergent brownout.
  double utilization_threshold = 0.75;
  /// Utilization above which admission control starts shedding
  /// low-priority work (speculative pushes, off-route replica service).
  double admission_threshold = 0.55;
  /// How long a tripped entity stays browned out before it may serve
  /// again (its window must also have drained below the threshold).
  double brownout_duration_s = 1800.0;
};

/// \brief Rolling offered-utilization tracker — the cascade engine.
///
/// Tracks per-entity (proxy or server) busy time accumulated in fixed
/// sim-time windows *during* a replay. Redirected failover and retry
/// traffic is charged to whichever entity absorbs it, so a dead proxy's
/// load can push its failover targets over the threshold and trigger an
/// **emergent** brownout mid-run — unlike the precomputed schedule, the
/// failure here is caused by the simulated dynamics themselves.
///
/// Deterministic and RNG-free; state is per-run (construct one per sweep
/// point, never share across points) to keep parallel == serial
/// bit-identity.
class LoadTracker {
 public:
  LoadTracker(size_t num_entities, const LoadTrackerConfig& config);

  /// Charges a successfully served request of `bytes` at `now`.
  void RecordService(size_t entity, SimTime now, double bytes);
  /// Charges the connection overhead of a failed or shed attempt against
  /// an entity that is alive but not serving — the retry-storm amplifier.
  void RecordOverhead(size_t entity, SimTime now);

  /// True while an emergent brownout is active for `entity`.
  bool Overloaded(size_t entity, SimTime now) const;
  /// True when the entity is above the admission threshold (or browned
  /// out): the signal admission control sheds low-priority work on.
  bool UnderPressure(size_t entity, SimTime now) const;
  /// Offered utilization of the window containing `now` (0 if the entity
  /// has been idle since its last recorded window).
  double Utilization(size_t entity, SimTime now) const;

  /// Number of transitions into emergent brownout across all entities.
  uint64_t emergent_brownouts() const { return emergent_brownouts_; }

 private:
  struct Entity {
    double window_start = 0.0;
    double busy_s = 0.0;
    SimTime brownout_until = -1.0;
  };
  void Charge(size_t entity, SimTime now, double busy_s);
  double WindowUtilization(const Entity& e, SimTime now) const;

  LoadTrackerConfig config_;
  std::vector<Entity> entities_;
  uint64_t emergent_brownouts_ = 0;
};

/// \brief Circuit breaker parameters.
struct CircuitBreakerConfig {
  /// Consecutive failures that open the breaker.
  uint32_t failure_threshold = 3;
  /// Time the breaker stays open before allowing a half-open probe.
  double cooldown_s = 30.0;
};

/// \brief Per-target client-side circuit breaker: closed → open after k
/// consecutive failures, half-open probe after a cooldown. Open means the
/// client fails fast without burning a timeout — and, crucially for
/// cascade containment, without charging connection overhead to the
/// struggling target, which lets its load window drain. Deterministic: no
/// RNG draws, state is a pure function of the call sequence.
class CircuitBreaker {
 public:
  enum class State : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  CircuitBreaker() = default;
  explicit CircuitBreaker(const CircuitBreakerConfig& config)
      : config_(config) {}

  /// True when a request may be attempted at `now`. An open breaker past
  /// its cooldown transitions to half-open and admits the one probe.
  bool AllowRequest(SimTime now);
  void RecordSuccess();
  void RecordFailure(SimTime now);

  State state() const { return state_; }
  /// Transitions into the open state (first open and every re-open).
  uint32_t open_transitions() const { return open_transitions_; }

 private:
  void Open(SimTime now);

  CircuitBreakerConfig config_;
  State state_ = State::kClosed;
  uint32_t consecutive_failures_ = 0;
  SimTime opened_at_ = 0.0;
  uint32_t open_transitions_ = 0;
};

/// \brief Retry-budget parameters: at most
/// max(min_retries_per_window, max_retry_ratio x requests-in-window)
/// retries are admitted per accounting window.
struct RetryBudgetConfig {
  double window_s = 3600.0;
  double max_retry_ratio = 0.5;
  /// Floor so that low-traffic windows can still retry at all.
  uint32_t min_retries_per_window = 5;
};

/// \brief Caps the retry-to-request ratio per window to stop retry storms
/// from amplifying an outage into a cascade. Deterministic and RNG-free;
/// one budget per run (client population), never shared across sweep
/// points.
class RetryBudget {
 public:
  explicit RetryBudget(const RetryBudgetConfig& config) : config_(config) {}

  /// Every demand arrival earns budget.
  void RecordRequest(SimTime now);
  /// True when a retry is admitted at `now` (and charges it); false means
  /// the retry is suppressed and the caller should give up.
  bool TryRetry(SimTime now);

  uint64_t suppressed() const { return suppressed_; }

 private:
  void Roll(SimTime now);

  RetryBudgetConfig config_;
  double window_start_ = 0.0;
  uint64_t window_requests_ = 0;
  uint64_t window_retries_ = 0;
  uint64_t suppressed_ = 0;
};

/// \brief Bundle of self-protection mechanisms threaded through the
/// simulators. Everything defaults to off, which keeps every pre-existing
/// replay bit-identical; `track_load` arms the cascade engine (emergent
/// brownouts) and is required for admission control to have a signal.
struct ProtectionConfig {
  /// Arms the LoadTracker: offered load — including redirected failover
  /// and retry traffic — is tracked per entity during the run, and
  /// crossing the threshold triggers an emergent brownout.
  bool track_load = false;
  LoadTrackerConfig load;
  /// Per-target circuit breakers on the failover/retry path.
  bool circuit_breakers = false;
  CircuitBreakerConfig breaker;
  /// Cap on the retry-to-request ratio.
  bool retry_budget = false;
  RetryBudgetConfig budget;
  /// Shed low-priority work (speculative pushes first, then off-route
  /// replica service) when the tracker reports pressure.
  bool admission_control = false;

  bool AnyArmed() const {
    return track_load || circuit_breakers || retry_budget || admission_control;
  }
};

}  // namespace sds::net

#endif  // SDS_NET_FAULTS_H_
