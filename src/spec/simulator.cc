#include "spec/simulator.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>

#include "obs/audit.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "util/logging.h"

namespace sds::spec {

namespace {

/// kHybrid: the server pushes only documents at or above this p*; the
/// client prefetches the rest from its profile.
constexpr double kHybridPushThreshold = 0.95;
/// kClientPrefetch / kHybrid: the client-side profile threshold, and the
/// support at which its heuristics fire (a single past co-occurrence: a
/// user's own history is tiny compared with the server's logs).
constexpr double kClientPrefetchThreshold = 0.4;
constexpr uint32_t kClientPrefetchMinSupport = 1;

/// Registers the speculation flow edges once per process. Each side is
/// accumulated at a different branch of OnRequest/Finish, so these are
/// real cross-checks, not derived formulas (see obs/audit.h).
void RegisterSpecAuditInvariants() {
  static const bool once = [] {
    using obs::AuditKind;
    // Every replayed request is exactly one of: answered from the client
    // cache, answered by the server on the demand path, or lost to an
    // outage/breaker.
    obs::RegisterAuditInvariant(
        "spec.request_conservation", AuditKind::kEqual,
        {{"spec.client_requests"}},
        {{"spec.cache_hits"},
         {"spec.demand_server_responses"},
         {"spec.unavailable_requests"}});
    // Every byte the server sent is demand payload or speculative push.
    obs::RegisterAuditInvariant(
        "spec.byte_conservation", AuditKind::kEqual,
        {{"spec.bytes_sent"}},
        {{"spec.demand_bytes_sent"}, {"spec.speculative_bytes"}});
    // Every pushed document ends up in exactly one bucket: requested for
    // real, wasted (duplicate/dropped/purged/evicted unused), or still
    // resident unused when the run ended.
    obs::RegisterAuditInvariant(
        "spec.doc_conservation", AuditKind::kEqual,
        {{"spec.speculative_docs_sent"}},
        {{"spec.speculative_hits"},
         {"spec.wasted_speculative_docs"},
         {"spec.unused_resident_speculative_docs"}});
    obs::RegisterAuditInvariant(
        "spec.hits_bounded", AuditKind::kLessOrEqual,
        {{"spec.speculative_hits"}}, {{"spec.speculative_docs_sent"}});
    // Server traffic splits into demand responses and prefetch fetches
    // (server-hint and client-prefetch modes).
    obs::RegisterAuditInvariant(
        "spec.server_requests_split", AuditKind::kEqual,
        {{"spec.server_requests"}},
        {{"spec.demand_server_responses"}, {"spec.prefetch_requests"}});
    return true;
  }();
  (void)once;
}

}  // namespace

namespace internal {

void UserProfile::Observe(trace::DocumentId doc, SimTime now,
                          const DependencyConfig& config) {
  while (!recent.empty() && now - recent.front().first > config.window) {
    recent.pop_front();
  }
  // Stride break: if the gap to the most recent request exceeds the
  // stride timeout, the chain is broken and history is irrelevant.
  if (!recent.empty() &&
      now - recent.back().first >= config.stride_timeout) {
    recent.clear();
  }
  for (const auto& [t, prev] : recent) {
    if (prev == doc) continue;
    ++pair_counts[PairKey(prev, doc)];
  }
  ++occurrences[doc];
  recent.emplace_back(now, doc);
}

double UserProfile::Probability(trace::DocumentId i, trace::DocumentId j,
                                uint32_t min_support) const {
  const auto pit = pair_counts.find(PairKey(i, j));
  if (pit == pair_counts.end() || pit->second < min_support) return 0.0;
  const auto oit = occurrences.find(i);
  if (oit == occurrences.end() || oit->second == 0) return 0.0;
  return std::min(1.0, static_cast<double>(pit->second) /
                           static_cast<double>(oit->second));
}

std::vector<CandidateDoc> UserProfile::Successors(trace::DocumentId doc,
                                                  double threshold,
                                                  uint32_t min_support) const {
  std::vector<CandidateDoc> out;
  // Scan this user's pairs with leading doc. User maps are small, so a
  // linear pass is fine.
  for (const auto& [key, n] : pair_counts) {
    if (static_cast<trace::DocumentId>(key >> 32) != doc) continue;
    if (n < min_support) continue;
    const auto oit = occurrences.find(doc);
    if (oit == occurrences.end() || oit->second == 0) continue;
    const double p =
        static_cast<double>(n) / static_cast<double>(oit->second);
    if (p >= threshold) {
      out.push_back({static_cast<trace::DocumentId>(key & 0xffffffffu),
                     std::min(1.0, p)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CandidateDoc& a, const CandidateDoc& b) {
              if (a.probability != b.probability)
                return a.probability > b.probability;
              return a.doc < b.doc;
            });
  return out;
}

}  // namespace internal

const char* ServiceModeToString(ServiceMode mode) {
  switch (mode) {
    case ServiceMode::kNone:
      return "none";
    case ServiceMode::kSpeculativePush:
      return "speculative-push";
    case ServiceMode::kClientPrefetch:
      return "client-prefetch";
    case ServiceMode::kHybrid:
      return "hybrid";
    case ServiceMode::kServerHints:
      return "server-hints";
  }
  return "?";
}

SpeculationModel::SpeculationModel(size_t num_docs,
                                   const SpeculationConfig& config,
                                   DayCountsSource deltas, bool keep_epochs)
    : config_(config), deltas_(std::move(deltas)), keep_epochs_(keep_epochs) {
  SDS_CHECK(deltas_ != nullptr) << "a model needs day counts";
  SDS_CHECK(config.update_cycle_days >= 1);
  SDS_CHECK(config.history_days >= 1);
  if (config.estimator == SpeculationConfig::EstimatorKind::kExponentialDecay) {
    // The decay estimator touches every counter daily, so it always
    // rebuilds in full.
    decayed_.emplace(num_docs, config.decay_per_day);
    return;
  }
  counts_.emplace(num_docs);
}

size_t SpeculationModel::epochs_built() const {
  std::lock_guard<std::mutex> lock(epochs_mutex_);
  return epochs_.size();
}

void SpeculationModel::FoldDay(long day) {
  if (decayed_) {
    if (const DayCounts* d = deltas_(day)) decayed_->AdvanceDay(*d);
    return;
  }
  // Sliding window: the finished day enters, the day D' before it leaves.
  if (const DayCounts* d = deltas_(day)) counts_->Add(*d);
  const long expired = day - static_cast<long>(config_.history_days);
  if (expired >= 0) {
    if (const DayCounts* d = deltas_(expired)) counts_->Remove(*d);
  }
}

std::unique_ptr<const ClosureEpoch> SpeculationModel::BuildNext() {
  do {
    FoldDay(day_++);
  } while (!RebuildsOn(day_, config_.update_cycle_days));
  return std::make_unique<ClosureEpoch>(
      decayed_ ? decayed_->BuildMatrix(config_.dependency)
               : counts_->BuildMatrix(config_.dependency),
      config_.closure);
}

const ClosureEpoch* SpeculationModel::Epoch(size_t k) {
  {
    std::lock_guard<std::mutex> lock(epochs_mutex_);
    if (k < epochs_.size()) return epochs_[k].get();
  }
  std::lock_guard<std::mutex> build(build_mutex_);
  for (;;) {
    size_t next = 0;
    {
      std::lock_guard<std::mutex> lock(epochs_mutex_);
      if (k < epochs_.size()) return epochs_[k].get();
      next = epochs_.size();
    }
    std::unique_ptr<const ClosureEpoch> epoch = BuildNext();
    std::lock_guard<std::mutex> lock(epochs_mutex_);
    epochs_.push_back(std::move(epoch));
    if (!keep_epochs_ && next > 0) epochs_[next - 1].reset();
  }
}

namespace {

bool NeedsModel(ServiceMode mode) {
  return mode == ServiceMode::kSpeculativePush ||
         mode == ServiceMode::kHybrid || mode == ServiceMode::kServerHints;
}

std::shared_ptr<SpeculationModel> PrivateModel(const trace::Corpus* corpus,
                                               const SpeculationConfig& config,
                                               DayCountsSource deltas) {
  if (!NeedsModel(config.mode)) return nullptr;
  SDS_CHECK(deltas != nullptr) << "speculative modes need day counts";
  return std::make_shared<SpeculationModel>(corpus->size(), config,
                                            std::move(deltas),
                                            /*keep_epochs=*/false);
}

/// Reads the simulator's cached day counts (thread-safe: they are
/// immutable once cached).
DayCountsSource VectorSource(const std::vector<DayCounts>* deltas) {
  return [deltas](long day) -> const DayCounts* {
    return day >= 0 && static_cast<size_t>(day) < deltas->size()
               ? &(*deltas)[day]
               : nullptr;
  };
}

}  // namespace

SpeculationReplay::SpeculationReplay(const trace::Corpus* corpus,
                                     uint32_t num_clients,
                                     uint32_t num_servers,
                                     const SpeculationConfig& config,
                                     DayCountsSource deltas,
                                     std::vector<ServerEvent>* server_events)
    : SpeculationReplay(corpus, num_clients, num_servers, config,
                        PrivateModel(corpus, config, std::move(deltas)),
                        server_events) {}

SpeculationReplay::SpeculationReplay(
    const trace::Corpus* corpus, uint32_t num_clients, uint32_t num_servers,
    const SpeculationConfig& config, std::shared_ptr<SpeculationModel> model,
    std::vector<ServerEvent>* server_events)
    : run_span_("spec.run"),
      journey_("spec"),
      corpus_(corpus),
      config_(&config),
      server_events_(server_events),
      model_(std::move(model)),
      retry_rng_(config.retry_jitter_seed),
      tracker_(config.protection.track_load ? num_servers : 0,
               config.protection.load),
      retry_budget_(config.protection.budget) {
  if (server_events_ != nullptr) server_events_->clear();
  RegisterSpecAuditInvariants();
  SDS_CHECK(config.update_cycle_days >= 1);
  SDS_CHECK(config.history_days >= 1);

  server_speculates_ = config.mode == ServiceMode::kSpeculativePush ||
                       config.mode == ServiceMode::kHybrid;
  server_hints_ = config.mode == ServiceMode::kServerHints;
  client_prefetches_ = config.mode == ServiceMode::kClientPrefetch ||
                       config.mode == ServiceMode::kHybrid;
  if (NeedsModel(config.mode)) {
    SDS_CHECK(model_ != nullptr) << "speculative modes need a model";
    row_stamp_.assign(corpus->size(), 0);
  } else {
    model_.reset();
  }

  caches_.reserve(num_clients);
  for (uint32_t c = 0; c < num_clients; ++c) {
    caches_.emplace_back(config.cache);
  }
  if (client_prefetches_) profiles_.resize(num_clients);

  push_policy_ = config.policy;
  if (config.mode == ServiceMode::kHybrid) {
    push_policy_.threshold =
        std::max(push_policy_.threshold, kHybridPushThreshold);
  }

  faulty_ = config.faults != nullptr && !config.faults->empty();

  // Per-run protection state (never shared across sweep points). Entities
  // are servers; demand service stays up during emergent overload (the
  // kServerBrownout semantics) but speculative work is shed, misses fail
  // fast on open breakers, and storm retries are capped by the budget.
  const net::ProtectionConfig& protection = config.protection;
  track_load_ = protection.track_load;
  breakers_armed_ = protection.circuit_breakers;
  budget_armed_ = protection.retry_budget;
  admission_armed_ = protection.admission_control && track_load_;
  if (breakers_armed_) {
    breakers_.assign(num_servers, net::CircuitBreaker(protection.breaker));
  }
}

void SpeculationReplay::RollDay(uint32_t day) {
  // Day roll: the model re-estimates the relations at UpdateCycle
  // boundaries (and on the first day-roll).
  while (static_cast<long>(day) > current_day_) {
    ++current_day_;
    if (model_ == nullptr ||
        !SpeculationModel::RebuildsOn(current_day_,
                                      config_->update_cycle_days)) {
      continue;
    }
    epoch_ = model_->Epoch(epochs_consumed_++);
    model_ready_ = true;
  }
}

SparseProbMatrix::RowView SpeculationReplay::ModelRow(trace::DocumentId doc) {
  if (!config_->use_closure) return epoch_->PRow(doc);
  // Stamps start at 0 and the first epoch consumed is 1.
  const uint32_t stamp = static_cast<uint32_t>(epochs_consumed_);
  if (doc < row_stamp_.size() && row_stamp_[doc] != stamp) {
    row_stamp_[doc] = stamp;
    ++rows_looked_up_;
  }
  return epoch_->ClosureRow(doc, &scratch_);
}

void SpeculationReplay::OnRequest(size_t i, const Record& rec) {
  const SpeculationConfig& config = *config_;
  const SimTime now = rec.time;
  const trace::ClientId client = rec.client;
  const trace::DocumentId doc = rec.doc;
  const trace::ServerId server = rec.server;
  RollDay(rec.day);

  ClientCache& cache = caches_[client];
  cache.Touch(now);
  const uint64_t size = rec.size_bytes;
  ++totals_.client_requests;
  obs::TsCount("spec.client_requests", now);
  totals_.requested_bytes += static_cast<double>(size);

  if (cache.Contains(doc)) {
    ++totals_.cache_hits;
    if (cache.IsUnusedSpeculative(doc)) {
      ++totals_.speculative_hits;
      obs::TsCount("spec.speculative_hits", now);
      obs::FlightRecord(i, "spec.request", "speculative_hit", doc);
    } else {
      obs::FlightRecord(i, "spec.request", "cache_hit", doc);
    }
    cache.MarkUsed(doc);
    RecordJourney(i, rec, {.served_by = obs::kServedByCache});
    return;  // zero-latency cache hit, no server involvement
  }

  // Cache miss: the request tries to reach the server. During a server
  // outage the client retries with backoff; if every attempt finds the
  // server down, the request is lost (counted unavailable, never served).
  Outcome o;
  if (budget_armed_) retry_budget_.RecordRequest(now);
  if (breakers_armed_ && !breakers_[server].AllowRequest(now)) {
    // Open breaker: the miss fails fast without burning a timeout, and
    // the struggling server sees no traffic at all from it.
    ++totals_.breaker_fast_fails;
    RecordUnavailable(i, rec, "breaker_fast_fail", o);
    return;
  }
  if (faulty_ && config.faults->ServerDown(server, now)) {
    SimTime when = now;
    bool reached = false;
    ++totals_.retry_attempts;  // the initial attempt timed out
    obs::TsCount("spec.retry_attempts", now);
    ++o.retries;
    if (breakers_armed_) breakers_[server].RecordFailure(now);
    for (uint32_t attempt = 1; attempt < config.retry.max_attempts;
         ++attempt) {
      if (budget_armed_ && !retry_budget_.TryRetry(when)) {
        ++totals_.retries_suppressed_by_budget;
        obs::TsCount("spec.retries_suppressed_by_budget", when);
        break;
      }
      const double wait =
          config.retry.timeout_s +
          config.retry.BackoffBeforeRetry(attempt - 1, &retry_rng_);
      o.backoff_s += wait;
      when += wait;
      if (!config.faults->ServerDown(server, when)) {
        reached = true;
        break;
      }
      ++totals_.retry_attempts;
      obs::TsCount("spec.retry_attempts", when);
      ++o.retries;
      if (breakers_armed_) breakers_[server].RecordFailure(when);
    }
    if (!reached) o.backoff_s += config.retry.timeout_s;
    totals_.retry_wait_seconds += o.backoff_s;
    if (!reached) {
      RecordUnavailable(i, rec, "unavailable", o);
      return;
    }
  }
  if (breakers_armed_) breakers_[server].RecordSuccess();
  // Brownout (overload, §2.3's shielding pressure): demand service stays
  // up but every speculative transfer is shed until the load drains.
  const bool scheduled_degraded =
      faulty_ && config.faults->ServerDegraded(server, now);
  // Emergent counterpart: the live utilization window crossed the
  // brownout threshold, or admission control is shedding early under
  // pressure (speculative pushes are the first work dropped).
  const bool load_shed =
      (track_load_ && tracker_.Overloaded(server, now)) ||
      (admission_armed_ && tracker_.UnderPressure(server, now));
  const bool degraded = scheduled_degraded || load_shed;

  ++totals_.server_requests;
  ++totals_.demand_server_responses;
  obs::TsCount("spec.server_requests", now);
  obs::FlightRecord(i, "spec.request", degraded ? "served_degraded" : "served",
                    doc, static_cast<double>(size));
  totals_.miss_bytes += static_cast<double>(size);
  o.response_bytes = static_cast<double>(size);

  if (degraded && model_ready_ &&
      (server_speculates_ || server_hints_)) {
    ++totals_.brownout_responses;
    const size_t suppressed =
        SelectCandidates(ModelRow(doc), *corpus_,
                         server_speculates_ ? push_policy_ : config.policy)
            .size();
    if (scheduled_degraded) {
      totals_.suppressed_speculative_docs += suppressed;
      obs::TsCount("spec.suppressed_speculative_docs", now,
                   static_cast<double>(suppressed));
    } else {
      totals_.shed_speculative_docs += suppressed;
      obs::TsCount("spec.shed_speculative_docs", now,
                   static_cast<double>(suppressed));
    }
  }

  if (server_speculates_ && model_ready_ && !degraded) {
    for (const auto& cand :
         SelectCandidates(ModelRow(doc), *corpus_, push_policy_)) {
      const uint64_t cand_size = corpus_->doc(cand.doc).size_bytes;
      const bool cached = cache.Contains(cand.doc);
      if (cached && config.cooperative_clients) {
        continue;  // digest tells the server not to send it
      }
      o.response_bytes += static_cast<double>(cand_size);
      CountSpeculative(now, cand_size);
      ++o.pushed_docs;
      if (cached) {
        // Blind duplicate push: pure waste.
        totals_.wasted_speculative_bytes +=
            static_cast<double>(cand_size);
        ++totals_.wasted_speculative_docs;
        obs::FlightRecord(i, "spec.push", "duplicate_waste", cand.doc,
                          static_cast<double>(cand_size));
      } else {
        cache.Insert(cand.doc, cand_size, /*speculative=*/true);
        obs::FlightRecord(i, "spec.push", "pushed", cand.doc,
                          static_cast<double>(cand_size));
      }
    }
  }

  if (server_hints_ && model_ready_ && !degraded) {
    // The hint list itself is negligible; the client fetches hinted
    // documents it lacks as background prefetches.
    for (const auto& cand :
         SelectCandidates(ModelRow(doc), *corpus_, config.policy)) {
      if (cache.Contains(cand.doc)) continue;
      ++o.pushed_docs;
      RecordPrefetch(i, "spec.hint", rec, cand.doc,
                     corpus_->doc(cand.doc).size_bytes);
    }
  }

  if (server_events_ != nullptr) {
    server_events_->push_back({now, o.response_bytes});
  }
  if (track_load_) tracker_.RecordService(server, now, o.response_bytes);
  totals_.bytes_sent += o.response_bytes;
  totals_.demand_bytes_sent += static_cast<double>(size);
  o.transfer_s = config.serv_cost +
                 config.comm_cost * (config.charge_speculative_latency
                                         ? o.response_bytes
                                         : static_cast<double>(size));
  totals_.total_latency += o.transfer_s;
  cache.Insert(doc, size, /*speculative=*/false);
  RecordJourney(i, rec, o);

  if (client_prefetches_ && !degraded) {
    // The client consults its own profile and fetches likely successors
    // in the background (each is a normal request to the server).
    const auto successors = profiles_[client].Successors(
        doc, kClientPrefetchThreshold, kClientPrefetchMinSupport);
    for (const auto& cand : successors) {
      if (cache.Contains(cand.doc)) continue;
      const uint64_t cand_size = corpus_->doc(cand.doc).size_bytes;
      if (config.policy.max_size > 0 &&
          cand_size > config.policy.max_size) {
        continue;
      }
      RecordPrefetch(i, "spec.prefetch", rec, cand.doc, cand_size);
    }
  }
  if (client_prefetches_) {
    profiles_[client].Observe(doc, now, config.dependency);
  }
}

void SpeculationReplay::CountSpeculative(SimTime now, uint64_t size) {
  totals_.speculative_bytes += static_cast<double>(size);
  ++totals_.speculative_docs_sent;
  obs::TsCount("spec.speculative_docs_sent", now);
  obs::TsCount("spec.speculative_bytes", now, static_cast<double>(size));
}

void SpeculationReplay::RecordPrefetch(size_t i, const char* stage,
                                       const Record& rec,
                                       trace::DocumentId doc, uint64_t size) {
  const double bytes = static_cast<double>(size);
  ++totals_.server_requests;
  obs::TsCount("spec.server_requests", rec.time);
  ++totals_.prefetch_requests;
  totals_.bytes_sent += bytes;
  CountSpeculative(rec.time, size);
  caches_[rec.client].Insert(doc, size, /*speculative=*/true);
  obs::FlightRecord(i, stage, "prefetched", doc, bytes);
  if (track_load_) tracker_.RecordService(rec.server, rec.time, bytes);
  if (server_events_ != nullptr) server_events_->push_back({rec.time, bytes});
}

void SpeculationReplay::RecordUnavailable(size_t i, const Record& rec,
                                          const char* decision, Outcome o) {
  ++totals_.unavailable_requests;
  obs::TsCount("spec.unavailable_requests", rec.time);
  obs::FlightRecord(i, "spec.request", decision, rec.doc, o.backoff_s);
  totals_.miss_bytes += static_cast<double>(rec.size_bytes);
  o.served_by = obs::kServedByNone;
  RecordJourney(i, rec, o);
}

void SpeculationReplay::RecordJourney(size_t i, const Record& rec,
                                      const Outcome& o) {
  if (!journey_.Sample(i)) return;
  obs::JourneyRecord j;
  j.request = i;
  j.time_s = rec.time;
  j.client = rec.client;
  j.doc = rec.doc;
  j.served_by = o.served_by;
  j.retries = o.retries;
  j.backoff_s = o.backoff_s;
  j.pushed_docs = o.pushed_docs;
  j.response_bytes = o.response_bytes;
  j.transfer_s = o.transfer_s;
  journey_.Record(j);
}

RunTotals SpeculationReplay::Finish() {
  for (const auto& cache : caches_) {
    totals_.wasted_speculative_bytes +=
        static_cast<double>(cache.wasted_speculative_bytes());
    totals_.wasted_speculative_docs += cache.wasted_speculative_docs();
    totals_.unused_resident_speculative_docs +=
        cache.unused_speculative_docs();
  }
  if (track_load_) totals_.emergent_brownouts = tracker_.emergent_brownouts();
  for (const net::CircuitBreaker& b : breakers_) {
    totals_.breaker_open_transitions += b.open_transitions();
  }
  if (obs::Enabled()) {
    obs::Count("spec.runs");
    obs::Count("spec.client_requests",
               static_cast<double>(totals_.client_requests));
    obs::Count("spec.server_requests",
               static_cast<double>(totals_.server_requests));
    obs::Count("spec.speculative_docs_sent",
               static_cast<double>(totals_.speculative_docs_sent));
    obs::Count("spec.speculative_hits",
               static_cast<double>(totals_.speculative_hits));
    obs::Count("spec.speculative_bytes", totals_.speculative_bytes);
    obs::Count("spec.wasted_speculative_bytes",
               totals_.wasted_speculative_bytes);
    // Conservation legs (audited edges; see RegisterSpecAuditInvariants).
    obs::Count("spec.cache_hits", static_cast<double>(totals_.cache_hits));
    obs::Count("spec.demand_server_responses",
               static_cast<double>(totals_.demand_server_responses));
    obs::Count("spec.prefetch_requests",
               static_cast<double>(totals_.prefetch_requests));
    obs::Count("spec.bytes_sent", totals_.bytes_sent);
    obs::Count("spec.demand_bytes_sent", totals_.demand_bytes_sent);
    obs::Count("spec.wasted_speculative_docs",
               static_cast<double>(totals_.wasted_speculative_docs));
    obs::Count("spec.unused_resident_speculative_docs",
               static_cast<double>(totals_.unused_resident_speculative_docs));
    obs::Count("spec.suppressed_speculative_docs",
               static_cast<double>(totals_.suppressed_speculative_docs));
    obs::Count("spec.unavailable_requests",
               static_cast<double>(totals_.unavailable_requests));
    obs::Count("spec.retry_attempts",
               static_cast<double>(totals_.retry_attempts));
    obs::Count("spec.emergent_brownouts",
               static_cast<double>(totals_.emergent_brownouts));
    obs::Count("spec.breaker_open_transitions",
               static_cast<double>(totals_.breaker_open_transitions));
    obs::Count("spec.retries_suppressed_by_budget",
               static_cast<double>(totals_.retries_suppressed_by_budget));
    obs::Count("spec.shed_speculative_docs",
               static_cast<double>(totals_.shed_speculative_docs));
    obs::Count("spec.breaker_fast_fails",
               static_cast<double>(totals_.breaker_fast_fails));
    // The run consumed one full build per epoch and computed (or found
    // shared) each row it looked up once per epoch.
    obs::Count("spec.closure.full_rebuilds",
               static_cast<double>(epochs_consumed_));
    obs::Count("spec.closure.rows_computed",
               static_cast<double>(rows_looked_up_));
    run_span_.AddBytes(totals_.bytes_sent);
  }
  return totals_;
}

SpeculationSimulator::SpeculationSimulator(const trace::Corpus* corpus,
                                           const trace::Trace* trace)
    : corpus_(corpus), trace_(trace) {
  SDS_CHECK(corpus != nullptr);
  SDS_CHECK(trace != nullptr);
  size_t eligible = 0;
  for (const auto& r : trace->requests) {
    if (r.kind == trace::RequestKind::kDocument ||
        r.kind == trace::RequestKind::kAlias) {
      ++eligible;
    }
  }
  prepared_.time.reserve(eligible);
  prepared_.client.reserve(eligible);
  prepared_.server.reserve(eligible);
  prepared_.doc.reserve(eligible);
  prepared_.size_bytes.reserve(eligible);
  prepared_.day.reserve(eligible);
  for (const auto& r : trace->requests) {
    if (r.kind != trace::RequestKind::kDocument &&
        r.kind != trace::RequestKind::kAlias) {
      continue;
    }
    prepared_.time.push_back(r.time);
    prepared_.client.push_back(r.client);
    prepared_.server.push_back(r.server);
    prepared_.doc.push_back(r.doc);
    prepared_.size_bytes.push_back(corpus->doc(r.doc).size_bytes);
    prepared_.day.push_back(static_cast<uint32_t>(DayOfTime(r.time)));
  }
}

const std::vector<DayCounts>& SpeculationSimulator::DailyDeltas(
    const DependencyConfig& config) {
  const DeltaKey key = MakeDeltaKey(config);
  std::lock_guard<std::mutex> lock(delta_mutex_);
  auto it = delta_cache_.find(key);
  if (it == delta_cache_.end()) {
    obs::Count("spec.delta_cache.misses");
    it = delta_cache_.emplace(key, CountDailyDependencies(*trace_, config))
             .first;
  } else {
    obs::Count("spec.delta_cache.hits");
  }
  return it->second;
}

void SpeculationSimulator::Prewarm(const DependencyConfig& config) {
  DailyDeltas(config);
}

SpeculationSimulator::ModelKey SpeculationSimulator::MakeModelKey(
    const SpeculationConfig& config) {
  const DependencyConfig& dep = config.dependency;
  const ClosureConfig& closure = config.closure;
  return {std::bit_cast<uint64_t>(dep.window),
          std::bit_cast<uint64_t>(dep.stride_timeout),
          std::bit_cast<uint64_t>(dep.min_probability),
          dep.min_support,
          config.history_days,
          config.update_cycle_days,
          static_cast<uint64_t>(config.estimator),
          std::bit_cast<uint64_t>(config.decay_per_day),
          static_cast<uint64_t>(closure.semantics),
          std::bit_cast<uint64_t>(closure.min_probability),
          closure.max_depth,
          closure.max_expansions};
}

std::shared_ptr<SpeculationModel> SpeculationSimulator::AcquireModel(
    const SpeculationConfig& config) {
  if (!NeedsModel(config.mode)) return nullptr;
  const std::vector<DayCounts>* deltas = &DailyDeltas(config.dependency);
  const ModelKey key = MakeModelKey(config);
  std::lock_guard<std::mutex> lock(model_mutex_);
  std::weak_ptr<SpeculationModel>& slot = models_[key];
  std::shared_ptr<SpeculationModel> model = slot.lock();
  if (model == nullptr) {
    model = std::make_shared<SpeculationModel>(
        corpus_->size(), config, VectorSource(deltas), /*keep_epochs=*/true);
    slot = model;
    ++model_builds_;
  }
  return model;
}

uint64_t SpeculationSimulator::model_builds() const {
  std::lock_guard<std::mutex> lock(model_mutex_);
  return model_builds_;
}

RunTotals SpeculationSimulator::Run(const SpeculationConfig& config,
                                    std::vector<ServerEvent>* server_events) {
  SpeculationReplay replay(corpus_, trace_->num_clients, trace_->num_servers,
                           config, AcquireModel(config), server_events);
  // Replay the prepared flat arrays (kDocument/kAlias requests only, with
  // sizes and day indices resolved at construction).
  const PreparedSpecTrace& pt = prepared_;
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

SpeculationMetrics SpeculationSimulator::Evaluate(
    const SpeculationConfig& config) {
  SpeculationConfig baseline = config;
  baseline.mode = ServiceMode::kNone;
  const RunTotals without_spec = Run(baseline);
  const RunTotals with_spec = Run(config);
  return ComputeMetrics(with_spec, without_spec);
}

namespace {

/// One pass over a replay cursor that also feeds the run's dependency
/// accumulator (null when the mode needs no model). The replay pulls
/// chunks through Next(); the day-roll calls PumpUntilFinal, which pulls
/// further chunks ahead of the replay and parks them until Next() hands
/// them out. A pull invalidates the cursor's previous chunk, so a pump
/// first copies the chunk the replay is still reading.
class SinglePass {
 public:
  using Lookahead = StreamingSpeculationSimulator::Lookahead;

  SinglePass(trace::RequestCursor* cursor, DailyDependencyAccumulator* acc)
      : cursor_(cursor), acc_(acc) {}

  /// The next chunk to replay; empty once the stream is exhausted.
  std::span<const trace::Request> Next() {
    if (parked_.empty()) {
      current_ = Pull();
      live_ = true;
    } else {
      held_.swap(parked_);
      parked_.clear();
      current_ = held_;
      live_ = false;
    }
    return current_;
  }

  /// The chunk Next() returned last. A pump may move it to storage of the
  /// pass (same requests, same indices), so the replay re-reads it after
  /// every request it hands to the day-roll.
  std::span<const trace::Request> current() const { return current_; }

  /// Reads ahead until the accumulator holds `day` final.
  void PumpUntilFinal(uint32_t day) {
    size_t chunks = 0;
    while (!done_ && !acc_->DayFinal(day)) {
      if (live_) {
        held_.assign(current_.begin(), current_.end());
        current_ = held_;
        live_ = false;
      }
      const std::span<const trace::Request> chunk = Pull();
      parked_.insert(parked_.end(), chunk.begin(), chunk.end());
      if (!chunk.empty()) ++chunks;
    }
    lookahead_.chunks = std::max(lookahead_.chunks, chunks);
    lookahead_.requests = std::max(lookahead_.requests, parked_.size());
  }

  const Lookahead& lookahead() const { return lookahead_; }

 private:
  std::span<const trace::Request> Pull() {
    if (done_) return {};
    const std::span<const trace::Request> chunk = cursor_->NextChunk();
    done_ = chunk.empty();
    if (acc_ != nullptr) {
      for (const trace::Request& r : chunk) acc_->OnRequest(r);
      if (done_) acc_->FinishStream();
    }
    return chunk;
  }

  trace::RequestCursor* cursor_;
  DailyDependencyAccumulator* acc_;
  bool done_ = false;
  /// current_ is cursor storage (else it is held_).
  bool live_ = false;
  std::span<const trace::Request> current_;
  std::vector<trace::Request> held_;
  /// Requests pulled ahead of the replay, in stream order.
  std::vector<trace::Request> parked_;
  Lookahead lookahead_;
};

}  // namespace

StreamingSpeculationSimulator::StreamingSpeculationSimulator(
    const trace::Corpus* corpus, trace::RequestCursor* replay,
    trace::RequestCursor* /*deps*/)
    : corpus_(corpus), replay_(replay) {
  SDS_CHECK(corpus != nullptr);
  SDS_CHECK(replay != nullptr);
}

RunTotals StreamingSpeculationSimulator::Run(
    const SpeculationConfig& config,
    std::vector<ServerEvent>* server_events) {
  replay_->Rewind();
  std::optional<DailyDependencyAccumulator> acc;
  if (NeedsModel(config.mode)) {
    acc.emplace(config.dependency, replay_->num_clients());
  }
  SinglePass pass(replay_, acc ? &*acc : nullptr);
  DayCountsSource source;
  if (acc) {
    // Finalise the requested day, then release days the sliding window can
    // never consult again.
    source = [&pass, a = &*acc,
              history = static_cast<long>(config.history_days)](
                 long day) -> const DayCounts* {
      if (day < 0) return nullptr;
      const uint32_t d = static_cast<uint32_t>(day);
      pass.PumpUntilFinal(d);
      const DayCounts* counts = a->Counts(d);
      if (day > history) a->DropBefore(static_cast<uint32_t>(day - history));
      return counts;
    };
  }
  SpeculationReplay sr(corpus_, replay_->num_clients(),
                       replay_->num_servers(), config, std::move(source),
                       server_events);
  size_t i = 0;
  SpeculationReplay::Record rec;
  for (auto chunk = pass.Next(); !chunk.empty(); chunk = pass.Next()) {
    for (size_t k = 0; k < chunk.size(); ++k) {
      const trace::Request& r = pass.current()[k];
      if (r.kind != trace::RequestKind::kDocument &&
          r.kind != trace::RequestKind::kAlias) {
        continue;
      }
      rec.time = r.time;
      rec.client = r.client;
      rec.server = r.server;
      rec.doc = r.doc;
      rec.size_bytes = corpus_->doc(r.doc).size_bytes;
      rec.day = static_cast<uint32_t>(DayOfTime(r.time));
      sr.OnRequest(i++, rec);
    }
  }
  lookahead_ = pass.lookahead();
  return sr.Finish();
}

SpeculationMetrics StreamingSpeculationSimulator::Evaluate(
    const SpeculationConfig& config) {
  SpeculationConfig baseline = config;
  baseline.mode = ServiceMode::kNone;
  const RunTotals without_spec = Run(baseline);
  const RunTotals with_spec = Run(config);
  return ComputeMetrics(with_spec, without_spec);
}

}  // namespace sds::spec
