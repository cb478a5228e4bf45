#include "net/faults.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace sds::net {

void FaultSchedule::Add(const FaultEvent& event) {
  SDS_CHECK(event.end >= event.start);
  events_.push_back(event);
  Intervals* target = nullptr;
  switch (event.kind) {
    case FaultKind::kNodeOutage:
      target = &node_down_;
      break;
    case FaultKind::kLinkOutage:
      target = &link_down_;
      break;
    case FaultKind::kServerOutage:
      target = &server_down_;
      break;
    case FaultKind::kServerBrownout:
      target = &server_degraded_;
      break;
  }
  Insert(target, event.id, event.start, event.end);
}

void FaultSchedule::Insert(Intervals* intervals, uint32_t id, SimTime start,
                           SimTime end) {
  // Membership in the union of half-open intervals is all Covers answers,
  // so overlapping and touching intervals ([a,b) + [b,c) = [a,c)) coalesce
  // into one entry. The list stays sorted and pairwise disjoint.
  if (id >= intervals->size()) intervals->resize(static_cast<size_t>(id) + 1);
  auto& list = (*intervals)[id];
  auto first = std::lower_bound(
      list.begin(), list.end(), start,
      [](const std::pair<SimTime, SimTime>& iv, SimTime s) {
        return iv.second < s;
      });
  auto last = first;
  while (last != list.end() && last->first <= end) {
    start = std::min(start, last->first);
    end = std::max(end, last->second);
    ++last;
  }
  first = list.erase(first, last);
  list.insert(first, {start, end});
}

bool FaultSchedule::Covers(const Intervals& intervals, uint32_t id,
                           SimTime t, Window* window) {
  if (id >= intervals.size()) return false;
  const auto& list = intervals[id];
  // First interval whose start is > t; its predecessor is the only
  // candidate that can cover t in a sorted disjoint list. If it does not,
  // t lies in the gap between the two.
  auto after = std::upper_bound(
      list.begin(), list.end(), t,
      [](SimTime x, const std::pair<SimTime, SimTime>& iv) {
        return x < iv.first;
      });
  constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
  SimTime gap_lo = -kInf;
  if (after != list.begin()) {
    const auto& [start, end] = *std::prev(after);
    if (t < end) {
      if (window != nullptr) window->Narrow(start, end);
      return true;
    }
    gap_lo = end;
  }
  if (window != nullptr) {
    window->Narrow(gap_lo, after == list.end() ? kInf : after->first);
  }
  return false;
}

bool FaultSchedule::NodeDown(NodeId node, SimTime t, Window* window) const {
  return Covers(node_down_, node, t, window);
}

bool FaultSchedule::LinkDown(NodeId child, SimTime t, Window* window) const {
  return Covers(link_down_, child, t, window);
}

bool FaultSchedule::ServerDown(trace::ServerId server, SimTime t,
                               Window* window) const {
  return Covers(server_down_, server, t, window);
}

bool FaultSchedule::ServerDegraded(trace::ServerId server, SimTime t) const {
  return Covers(server_degraded_, server, t, nullptr);
}

bool FaultSchedule::PathUp(const Topology& topology, NodeId from, NodeId to,
                           SimTime t, Window* window) const {
  if (node_down_.empty() && link_down_.empty()) return true;
  // The lowest-common-ancestor walk of Topology: the deeper end steps up
  // until both meet. Every edge crossed is keyed by the node it leaves
  // (the deeper endpoint). A step on the `from` side lands on a route
  // node other than `from` (the LCA included, unless it is `from`); the
  // `to` side checks each node it leaves, i.e. `to` up to but excluding
  // the LCA. A down answer holds wherever the failing entity is down, so
  // the early returns leave a valid window.
  NodeId a = from;
  NodeId b = to;
  while (a != b) {
    if (topology.depth(a) >= topology.depth(b)) {
      if (LinkDown(a, t, window)) return false;
      a = topology.parent(a);
      if (NodeDown(a, t, window)) return false;
    } else {
      if (NodeDown(b, t, window) || LinkDown(b, t, window)) return false;
      b = topology.parent(b);
    }
  }
  return true;
}

namespace {

/// One exponential outage duration in days, floored.
double DrawOutageDays(const FaultInjectionConfig& config, Rng* rng) {
  const double u = rng->NextDouble();
  const double days = -config.mean_outage_days * std::log1p(-u);
  return std::max(config.min_outage_days, days);
}

/// Draws daily outages for one entity. Every Bernoulli draw is made
/// unconditionally (the duration draw only when it fires), in increasing
/// day order, keeping the stream layout simple and documented. When
/// `descendants` is non-null (node outages with zone failures armed), a
/// correlation Bernoulli is drawn per fired outage; a hit replicates the
/// interval onto every descendant, in increasing id order.
void DrawEntityOutages(FaultKind kind, uint32_t id, double rate_per_day,
                       const FaultInjectionConfig& config,
                       const std::vector<NodeId>* descendants, Rng* rng,
                       FaultSchedule* schedule) {
  const long days = static_cast<long>(std::ceil(config.horizon_days));
  for (long day = 0; day < days; ++day) {
    if (!rng->NextBernoulli(rate_per_day)) continue;
    const double start =
        static_cast<double>(day) * kDay + rng->NextDouble() * kDay;
    const double duration = DrawOutageDays(config, rng) * kDay;
    schedule->Add({kind, id, start, start + duration});
    if (descendants != nullptr &&
        rng->NextBernoulli(config.zone_failure_probability)) {
      for (const NodeId member : *descendants) {
        schedule->Add({kind, member, start, start + duration});
      }
    }
  }
}

/// All strict descendants of `node`, sorted by id.
std::vector<NodeId> Subtree(const Topology& topology, NodeId node) {
  std::vector<NodeId> out;
  for (NodeId other = 1; other < topology.num_nodes(); ++other) {
    for (NodeId up = topology.parent(other); ; up = topology.parent(up)) {
      if (up == node) {
        out.push_back(other);
        break;
      }
      if (up == topology.root()) break;
    }
  }
  return out;
}

}  // namespace

FaultSchedule GenerateFaultSchedule(const Topology& topology,
                                    const FaultInjectionConfig& config,
                                    Rng* rng) {
  SDS_CHECK(rng != nullptr);
  FaultSchedule schedule;
  if (config.horizon_days <= 0.0) return schedule;
  const bool zones = config.zone_failure_probability > 0.0;
  // Node 0 is the backbone root and never fails; every other node can.
  if (config.node_failure_rate_per_day > 0.0) {
    for (NodeId node = 1; node < topology.num_nodes(); ++node) {
      std::vector<NodeId> descendants;
      if (zones) descendants = Subtree(topology, node);
      DrawEntityOutages(FaultKind::kNodeOutage, node,
                        config.node_failure_rate_per_day, config,
                        zones ? &descendants : nullptr, rng, &schedule);
    }
  }
  // Each non-root node identifies the edge to its parent.
  if (config.link_failure_rate_per_day > 0.0) {
    for (NodeId node = 1; node < topology.num_nodes(); ++node) {
      DrawEntityOutages(FaultKind::kLinkOutage, node,
                        config.link_failure_rate_per_day, config, nullptr,
                        rng, &schedule);
    }
  }
  if (config.server_failure_rate_per_day > 0.0) {
    for (trace::ServerId server = 0; server < topology.num_servers();
         ++server) {
      DrawEntityOutages(FaultKind::kServerOutage, server,
                        config.server_failure_rate_per_day, config, nullptr,
                        rng, &schedule);
    }
  }
  return schedule;
}

DailyLoad CountDailyLoad(trace::RequestCursor* cursor, trace::ServerId server) {
  DailyLoad load;
  load.server = server;
  trace::ForEachRequest(cursor, [&](const trace::Request& r) {
    if (r.server != server) return;
    if (r.kind != trace::RequestKind::kDocument &&
        r.kind != trace::RequestKind::kAlias) {
      return;
    }
    const size_t day = static_cast<size_t>(DayOfTime(r.time));
    if (day >= load.requests.size()) {
      load.requests.resize(day + 1, 0);
      load.bytes.resize(day + 1, 0.0);
    }
    ++load.requests[day];
    load.bytes[day] += static_cast<double>(r.bytes);
  });
  return load;
}

uint32_t AddLoadBrownouts(const DailyLoad& load, const BrownoutConfig& config,
                          FaultSchedule* schedule) {
  SDS_CHECK(schedule != nullptr);
  uint32_t tripped = 0;
  for (size_t day = 0; day < load.requests.size(); ++day) {
    const double busy_s =
        static_cast<double>(load.requests[day]) * config.service_overhead_s +
        load.bytes[day] / config.service_rate_bytes_per_s;
    if (busy_s / kDay <= config.utilization_threshold) continue;
    const double start = static_cast<double>(day) * kDay;
    schedule->Add(
        {FaultKind::kServerBrownout, load.server, start, start + kDay});
    ++tripped;
  }
  return tripped;
}

Status RetryPolicy::Validate() const {
  if (max_attempts == 0) {
    return Status::InvalidArgument(
        "RetryPolicy.max_attempts must be >= 1 (it counts the first "
        "attempt)");
  }
  if (!(jitter >= 0.0 && jitter <= 1.0)) {
    return Status::InvalidArgument(
        "RetryPolicy.jitter must be in [0, 1]");
  }
  if (!(timeout_s >= 0.0)) {
    return Status::InvalidArgument(
        "RetryPolicy.timeout_s must be non-negative");
  }
  if (!(base_backoff_s >= 0.0) || !(max_backoff_s >= 0.0)) {
    return Status::InvalidArgument(
        "RetryPolicy backoff bounds must be non-negative");
  }
  if (!(backoff_multiplier >= 1.0)) {
    return Status::InvalidArgument(
        "RetryPolicy.backoff_multiplier must be >= 1");
  }
  return Status::OK();
}

double RetryPolicy::BackoffBeforeRetry(uint32_t retry_index, Rng* rng) const {
  double backoff = base_backoff_s;
  for (uint32_t i = 0; i < retry_index && backoff < max_backoff_s; ++i) {
    backoff *= backoff_multiplier;
  }
  return Jitter(std::min(backoff, max_backoff_s), rng);
}

double RetryPolicy::Jitter(double backoff, Rng* rng) const {
  if (jitter > 0.0) {
    SDS_CHECK(rng != nullptr);
    backoff *= 1.0 - jitter + 2.0 * jitter * rng->NextDouble();
  }
  return backoff;
}

BackoffLadder::BackoffLadder(const RetryPolicy& policy) : policy_(policy) {
  const uint32_t retries =
      std::min(policy.max_attempts > 0 ? policy.max_attempts - 1 : 0,
               kMaxRungs);
  double backoff = policy.base_backoff_s;
  for (uint32_t i = 0; i < retries; ++i) {
    rungs_[num_rungs_++] = std::min(backoff, policy.max_backoff_s);
    if (!(backoff < policy.max_backoff_s)) {
      capped_ = true;
      break;
    }
    backoff *= policy.backoff_multiplier;
  }
}

LoadTracker::LoadTracker(size_t num_entities, const LoadTrackerConfig& config)
    : config_(config), entities_(num_entities) {
  SDS_CHECK(config.window_s > 0.0);
  SDS_CHECK(config.service_rate_bytes_per_s > 0.0);
}

void LoadTracker::Charge(size_t entity, SimTime now, double busy_s) {
  SDS_CHECK(entity < entities_.size());
  Entity& e = entities_[entity];
  // Retry attempts can advance a request's local clock past the next
  // arrival's timestamp, so charges may arrive slightly out of order;
  // anything earlier than the current window lands in it rather than
  // rolling backwards. Rolling forward starts a fresh window.
  if (now >= e.window_start + config_.window_s) {
    e.window_start = std::floor(now / config_.window_s) * config_.window_s;
    e.busy_s = 0.0;
  }
  e.busy_s += busy_s;
  if (e.busy_s / config_.window_s > config_.utilization_threshold &&
      now >= e.brownout_until) {
    e.brownout_until = now + config_.brownout_duration_s;
    ++emergent_brownouts_;
  }
}

void LoadTracker::RecordService(size_t entity, SimTime now, double bytes) {
  Charge(entity, now,
         config_.service_overhead_s + bytes / config_.service_rate_bytes_per_s);
}

void LoadTracker::RecordOverhead(size_t entity, SimTime now) {
  Charge(entity, now, config_.service_overhead_s);
}

double LoadTracker::WindowUtilization(const Entity& e, SimTime now) const {
  if (now >= e.window_start + config_.window_s) return 0.0;
  return e.busy_s / config_.window_s;
}

bool LoadTracker::Overloaded(size_t entity, SimTime now) const {
  SDS_CHECK(entity < entities_.size());
  return now < entities_[entity].brownout_until;
}

bool LoadTracker::UnderPressure(size_t entity, SimTime now) const {
  SDS_CHECK(entity < entities_.size());
  const Entity& e = entities_[entity];
  if (now < e.brownout_until) return true;
  return WindowUtilization(e, now) > config_.admission_threshold;
}

double LoadTracker::Utilization(size_t entity, SimTime now) const {
  SDS_CHECK(entity < entities_.size());
  return WindowUtilization(entities_[entity], now);
}

void CircuitBreaker::Open(SimTime now) {
  state_ = State::kOpen;
  opened_at_ = now;
  consecutive_failures_ = 0;
  ++open_transitions_;
}

bool CircuitBreaker::AllowRequest(SimTime now) {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now >= opened_at_ + config_.cooldown_s) {
        state_ = State::kHalfOpen;
        return true;
      }
      return false;
    case State::kHalfOpen:
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  consecutive_failures_ = 0;
  state_ = State::kClosed;
}

void CircuitBreaker::RecordFailure(SimTime now) {
  if (state_ == State::kHalfOpen) {
    // The probe failed: straight back to open for another cooldown.
    Open(now);
    return;
  }
  ++consecutive_failures_;
  if (state_ == State::kClosed &&
      consecutive_failures_ >= config_.failure_threshold) {
    Open(now);
  }
}

void RetryBudget::Roll(SimTime now) {
  if (now >= window_start_ + config_.window_s) {
    window_start_ = std::floor(now / config_.window_s) * config_.window_s;
    window_requests_ = 0;
    window_retries_ = 0;
  }
}

void RetryBudget::RecordRequest(SimTime now) {
  Roll(now);
  ++window_requests_;
}

bool RetryBudget::TryRetry(SimTime now) {
  Roll(now);
  const double earned =
      config_.max_retry_ratio * static_cast<double>(window_requests_);
  const uint64_t allowed =
      std::max<uint64_t>(config_.min_retries_per_window,
                         static_cast<uint64_t>(earned));
  if (window_retries_ >= allowed) {
    ++suppressed_;
    return false;
  }
  ++window_retries_;
  return true;
}

}  // namespace sds::net
