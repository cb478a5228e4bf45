/// \file
/// The repository benchmark: an offline, closed-loop job runner over the
/// simulators' public entry points. Each workload is a fixed list of
/// simulator runs executed as one "pass" on a sweep pool of a fixed size;
/// passes repeat until the requested measuring time is spent and the
/// report gives medians over passes. There is no arrival rate: throughput
/// is replayed requests per host second at the workload's stated size.
///
///   sds_perfbench --workload NAME --seed N --seconds S [--trace 0|1]
///                 [--spans-out PATH] [--reference-only]
///
/// The sweep pool has min(4, nproc) workers, set explicitly in
/// core::SweepOptions rather than through SDS_SWEEP_WORKERS. The seed
/// reaches the simulators only through core::WorkloadConfig::seed and
/// core::SweepOptions::seed. Every run's simulated statistics are reduced
/// to a digest. The untimed warm-up pass on one worker sets the
/// reference; a run of any later pass whose digest differs from it counts
/// as failed. The warm-up digests are also combined into one digest of the
/// workload and seed, which perfbench/run.py compares with the recorded
/// one. The last stdout line is one JSON object that run.py turns into the
/// benchmark result.
///
/// --trace 0 reports the end-to-end metrics (observability off, no layer
/// timers). --trace 1 is the separate traced run: it drives the same public
/// replay classes directly, records spans (name, start, end, parent, work
/// count) around chunk- or day-sized groups of calls, and reports each
/// layer's self time, plus the cost of the observability layer measured by
/// switching it on for extra passes under the audit ledger.

#include <sched.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.h"
#include "core/sweep.h"
#include "core/workload.h"
#include "dissem/simulator.h"
#include "net/faults.h"
#include "obs/audit.h"
#include "obs/flightrec.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "spec/closure.h"
#include "spec/dependency.h"
#include "spec/simulator.h"
#include "trace/cursor.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace {

using namespace sds;

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The sweep pool size: min(4, nproc), where nproc counts the CPUs this
/// process may run on.
uint32_t PoolWorkers() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int n = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                    ? CPU_COUNT(&cpus)
                    : static_cast<int>(std::thread::hardware_concurrency());
  return static_cast<uint32_t>(std::clamp(n, 1, 4));
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Peak resident set (VmHWM) in bytes; 0 where /proc is unavailable.
double PeakRssBytes() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  unsigned long long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kb) * 1024.0;
}

/// Restarts the VmHWM high-water mark from the current resident set.
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// ---------------------------------------------------------------------------
// Output digests
// ---------------------------------------------------------------------------

/// FNV-style running hash over the bit patterns of a run's statistics.
class Digest {
 public:
  void Int(uint64_t v) {
    h_ = (h_ ^ v) * 0x100000001b3ULL;
    h_ ^= h_ >> 29;
  }
  void Real(double v) { Int(std::bit_cast<uint64_t>(v)); }
  template <typename T>
  void Ints(const std::vector<T>& v) {
    Int(v.size());
    for (const T x : v) Int(static_cast<uint64_t>(x));
  }
  void Reals(const std::vector<double>& v) {
    Int(v.size());
    for (const double x : v) Real(x);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t DigestOf(const spec::RunTotals& t) {
  Digest d;
  d.Real(t.bytes_sent);
  d.Int(t.server_requests);
  d.Int(t.client_requests);
  d.Real(t.total_latency);
  d.Real(t.miss_bytes);
  d.Real(t.requested_bytes);
  d.Int(t.speculative_docs_sent);
  d.Real(t.speculative_bytes);
  d.Int(t.speculative_hits);
  d.Real(t.wasted_speculative_bytes);
  d.Int(t.prefetch_requests);
  d.Int(t.cache_hits);
  d.Int(t.demand_server_responses);
  d.Real(t.demand_bytes_sent);
  d.Int(t.wasted_speculative_docs);
  d.Int(t.unused_resident_speculative_docs);
  d.Int(t.unavailable_requests);
  d.Int(t.retry_attempts);
  d.Real(t.retry_wait_seconds);
  d.Int(t.brownout_responses);
  d.Int(t.suppressed_speculative_docs);
  d.Int(t.emergent_brownouts);
  d.Int(t.breaker_open_transitions);
  d.Int(t.retries_suppressed_by_budget);
  d.Int(t.shed_speculative_docs);
  d.Int(t.breaker_fast_fails);
  return d.value();
}

uint64_t DigestOf(const dissem::DisseminationResult& r) {
  Digest d;
  d.Real(r.baseline_bytes_hops);
  d.Real(r.with_proxies_bytes_hops);
  d.Real(r.saved_fraction);
  d.Real(r.proxy_hit_fraction);
  d.Int(r.storage_per_proxy_bytes);
  d.Int(r.total_storage_bytes);
  d.Ints(r.proxy_requests);
  d.Int(r.server_requests);
  d.Int(r.shielding_overflow_requests);
  d.Int(r.stale_proxy_requests);
  d.Real(r.stale_fraction);
  d.Ints(r.proxy_nodes);
  d.Int(r.unavailable_requests);
  d.Real(r.unavailable_fraction);
  d.Int(r.baseline_unavailable_requests);
  d.Real(r.baseline_unavailable_fraction);
  d.Int(r.failover_requests);
  d.Real(r.degraded_bytes_hops);
  d.Int(r.retry_attempts);
  d.Real(r.retry_wait_seconds);
  d.Int(r.emergent_brownouts);
  d.Int(r.breaker_open_transitions);
  d.Int(r.retries_suppressed_by_budget);
  d.Int(r.shed_replica_requests);
  d.Int(r.fast_failed_requests);
  d.Real(r.served_bytes);
  d.Real(r.mean_service_s);
  d.Real(r.p50_service_s);
  d.Real(r.p99_service_s);
  d.Real(r.load_imbalance_max_mean);
  d.Real(r.load_imbalance_p99_mean);
  d.Reals(r.per_level_imbalance);
  return d.value();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed interval: a layer's work on a chunk, a day roll, a call.
/// `count` is the work done inside it (requests, days, rows).
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  uint64_t count = 0;
};

/// Spans of one simulator run (or of setup / a prologue), kept in memory.
/// Single-threaded: every sweep point owns its own log.
class SpanLog {
 public:
  void Open(const char* name) {
    spans_.push_back({name, Now(), 0.0, open_.empty() ? -1 : open_.back(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void Close(uint64_t count) {
    Span& s = spans_[open_.back()];
    s.end = Now();
    s.count = count;
    open_.pop_back();
  }
  /// Records a count where the work happens, as a zero-length span.
  void Count(const char* name, uint64_t count) {
    const double now = Now();
    spans_.push_back({name, now, now, open_.empty() ? -1 : open_.back(), count});
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Full cursor passes completed while this log was recording.
  uint64_t passes = 0;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Records a span over its scope; inert when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) log_->Open(name);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(count);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t count = 0;

 private:
  SpanLog* log_;
};

/// Self time and work count of one span name, summed over logs.
struct Layer {
  double self_s = 0.0;
  uint64_t count = 0;
  uint64_t calls = 0;
};
using Layers = std::map<std::string, Layer>;

/// A span's self time is its duration minus the part its children cover.
void AddSelfTimes(const SpanLog& log, Layers* layers) {
  const std::vector<Span>& spans = log.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[s.parent] += s.end - s.start;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    Layer& l = (*layers)[spans[i].name];
    l.self_s += spans[i].end - spans[i].start - child[i];
    l.count += spans[i].count;
    ++l.calls;
  }
}

/// Summed self time of the layers: every span but the per-run roots,
/// whose self time is what no layer covers.
double TotalSelf(const Layers& layers) {
  double total = 0.0;
  for (const auto& [name, l] : layers) {
    if (name != "run") total += l.self_s;
  }
  return total;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Lookups into summed layer self times; a layer that did not run reads 0.
class LayerView {
 public:
  explicit LayerView(const Layers& layers) : layers_(layers) {}
  bool Has(const char* name) const { return layers_.count(name) > 0; }
  double Self(const char* name) const { return Get(name).self_s; }
  double Count(const char* name) const {
    return static_cast<double>(Get(name).count);
  }
  double Calls(const char* name) const {
    return static_cast<double>(Get(name).calls);
  }
  /// Self time per unit of work or per call, in seconds times `scale`.
  double PerCount(const char* name, double scale) const {
    return Ratio(Self(name) * scale, Count(name));
  }
  double PerCall(const char* name, double scale) const {
    return Ratio(Self(name) * scale, Calls(name));
  }

 private:
  const Layer& Get(const char* name) const {
    static const Layer kAbsent;
    const auto it = layers_.find(name);
    return it == layers_.end() ? kAbsent : it->second;
  }
  const Layers& layers_;
};

// ---------------------------------------------------------------------------
// Timed cursors: the clean request stream of a workload, with the generator
// and the filter each timed per chunk.
// ---------------------------------------------------------------------------

class TimedCursor : public trace::RequestCursor {
 public:
  TimedCursor(std::unique_ptr<trace::RequestCursor> inner, const char* name,
              SpanLog* log, bool counts_passes)
      : inner_(std::move(inner)),
        name_(name),
        log_(log),
        counts_passes_(counts_passes) {}

  std::span<const trace::Request> NextChunk() override {
    ScopedSpan span(log_, name_);
    const std::span<const trace::Request> chunk = inner_->NextChunk();
    span.count = chunk.size();
    if (chunk.empty() && counts_passes_) ++log_->passes;
    return chunk;
  }
  void Rewind() override {
    ScopedSpan span(log_, name_);
    inner_->Rewind();
  }
  uint32_t num_clients() const override { return inner_->num_clients(); }
  uint32_t num_servers() const override { return inner_->num_servers(); }
  const Status& status() const override { return inner_->status(); }

 private:
  std::unique_ptr<trace::RequestCursor> inner_;
  const char* name_;
  SpanLog* log_;
  bool counts_passes_;
};

/// The workload's clean cursor, rebuilt from its parts so that generation
/// ("trace.generate", counted in raw requests) and filtering
/// ("trace.filter", counted in clean requests) are timed separately.
/// Untraced (null log) it is the workload's own clean cursor.
std::unique_ptr<trace::RequestCursor> CleanCursor(const core::Workload& w,
                                                  SpanLog* log) {
  if (log == nullptr) return w.NewCleanCursor();
  ScopedSpan span(log, "trace.generate");
  auto raw = std::make_unique<TimedCursor>(w.NewRawCursor(), "trace.generate",
                                           log, false);
  return std::make_unique<TimedCursor>(
      std::make_unique<trace::FilteringCursor>(std::move(raw)),
      "trace.filter", log, true);
}

/// The evaluation-window filter of the dissemination replay (the filter
/// behind PreparedDissemination::eval_index): home server 0, remote
/// clients, from the train/eval split on.
bool IsEvalRequest(double split, const trace::Request& r) {
  return r.time >= split && r.server == 0 && r.remote_client &&
         r.kind != trace::RequestKind::kNotFound &&
         r.kind != trace::RequestKind::kScript;
}

bool IsSpecRequest(const trace::Request& r) {
  return r.kind == trace::RequestKind::kDocument ||
         r.kind == trace::RequestKind::kAlias;
}

// ---------------------------------------------------------------------------
// Traced replay drivers
// ---------------------------------------------------------------------------

constexpr size_t kChunk = 4096;

/// Feeds a SpeculationReplay and times it: each day-crossing request
/// (window slide, BuildMatrix, P* reset) is one "spec.model.roll" span
/// counted in days; the other requests are "spec.replay" spans of up to
/// kChunk requests within one day.
class SpecFeeder {
 public:
  SpecFeeder(spec::SpeculationReplay* replay, SpanLog* log, bool needs_model)
      : replay_(replay), log_(log), needs_model_(needs_model) {}

  void Feed(size_t i, const spec::SpeculationReplay::Record& rec) {
    if (needs_model_ && rec.day > day_) {
      Flush();
      ScopedSpan roll(log_, "spec.model.roll");
      roll.count = rec.day - day_;
      replay_->OnRequest(i, rec);
      day_ = rec.day;
      return;
    }
    if (pending_ == 0) log_->Open("spec.replay");
    replay_->OnRequest(i, rec);
    if (++pending_ == kChunk) Flush();
  }

  void Flush() {
    if (pending_ == 0) return;
    log_->Close(pending_);
    pending_ = 0;
  }

 private:
  spec::SpeculationReplay* replay_;
  SpanLog* log_;
  bool needs_model_;
  uint32_t day_ = 0;
  uint64_t pending_ = 0;
};

bool NeedsModel(const spec::SpeculationConfig& config) {
  return config.mode == spec::ServiceMode::kSpeculativePush ||
         config.mode == spec::ServiceMode::kHybrid ||
         config.mode == spec::ServiceMode::kServerHints;
}

/// Which replay layer a dissemination run exercises.
const char* DissemLayer(const dissem::DisseminationConfig& config) {
  const net::ProtectionConfig& p = config.protection;
  if (p.track_load || p.circuit_breakers || p.retry_budget ||
      p.admission_control) {
    return "dissem.replay.protected";
  }
  if (config.faults != nullptr && !config.faults->empty()) {
    return "dissem.replay.faulted";
  }
  return "dissem.replay.fault_free";
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Result of one simulator run, as the benchmark checks and aggregates it.
struct RunOutput {
  uint64_t digest = 0;
  /// Requests the replay consumed, from the simulator's own statistics
  /// (checked against the benchmark's count from the trace).
  uint64_t requests = 0;
  std::string error;
};

/// A traced run (non-null log) also records its outcome counts as spans.
RunOutput SpecOutput(const spec::RunTotals& t, SpanLog* log = nullptr) {
  if (log != nullptr) {
    log->Count("spec.push.sent", t.speculative_docs_sent);
    log->Count("spec.push.used", t.speculative_hits);
  }
  RunOutput out;
  out.digest = DigestOf(t);
  out.requests = t.client_requests;
  return out;
}

RunOutput DissemOutput(const dissem::DisseminationResult& r,
                       uint64_t eval_requests, SpanLog* log = nullptr) {
  if (log != nullptr) {
    uint64_t proxy_hits = 0;
    for (const uint64_t n : r.proxy_requests) proxy_hits += n;
    log->Count("dissem.proxy_hits", proxy_hits);
    log->Count("dissem.retries", r.retry_attempts);
  }
  RunOutput out;
  out.digest = DigestOf(r);
  out.requests = eval_requests;
  return out;
}

/// Each workload replays several independent sites (corpus, link graph,
/// clients, topology and trace, each generated from its own seed), so its
/// figures average over site structure instead of following the single
/// draw one seed makes: at paper scale the remote share of the traffic
/// alone moves by about 10% from seed to seed.
uint64_t SiteSeed(uint64_t seed, size_t site) { return seed * 16 + site; }

class Workload {
 public:
  /// `sites` independent sites, at paper scale or, for the traced run's
  /// census, at core::SmallConfig.
  Workload(size_t sites, bool small) : num_sites_(sites), small_(small) {}
  virtual ~Workload() = default;
  /// Builds the inputs and the state every run shares (the setup_s phase).
  virtual void Setup(uint64_t seed, SpanLog* log) = 0;
  /// Per-site first step of every pass, swept before the runs (the
  /// streaming prepare pass).
  virtual size_t NumPrologues() const { return 0; }
  virtual void Prologue(size_t, SpanLog*) {}
  virtual size_t NumRuns() const = 0;
  /// Runs simulator run `index`; untraced through the public entry points,
  /// traced (non-null log) by driving the replay classes directly.
  virtual RunOutput Run(size_t index, Rng& rng, SpanLog* log) const = 0;
  /// Requests fed through replays per pass, counted from the trace.
  virtual uint64_t RequestsPerPass() const = 0;
  /// Checks a run's simulator-side request count; empty when consistent.
  virtual std::string CheckRequests(size_t index, uint64_t requests) const = 0;
  /// The first site's workload (the traced run's layer probes use it).
  virtual const core::Workload& workload() const = 0;
  virtual core::WorkloadConfig Config(uint64_t site_seed) const {
    core::WorkloadConfig config =
        small_ ? core::SmallConfig() : core::PaperScaleConfig();
    config.seed = site_seed;
    return config;
  }
  /// Whether the speculation layers run (closure probe in traced mode).
  virtual bool UsesSpec() const = 0;

 protected:
  const size_t num_sites_;

 private:
  const bool small_;
};

/// The Figure 5 grid: the kNone baseline, then 12 T_p points.
std::vector<spec::SpeculationConfig> Fig5Grid() {
  const spec::SpeculationConfig base = core::BaselineSpecConfig();
  std::vector<spec::SpeculationConfig> grid(1, base);
  grid[0].mode = spec::ServiceMode::kNone;
  for (const double tp :
       {1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.05}) {
    spec::SpeculationConfig config = base;
    config.policy.threshold = tp;
    config.closure_mode = spec::ClosureMode::kBatch;
    config.closure.min_probability = std::min(0.02, tp);
    grid.push_back(config);
  }
  return grid;
}

/// spec_sweep: the Figure 5 grid on each site's materialised paper-scale
/// trace, batch closure maintenance.
class SpecSweep final : public Workload {
 public:
  using Workload::Workload;

  void Setup(uint64_t seed, SpanLog* log) override {
    grid_ = Fig5Grid();
    const spec::DependencyConfig& dependency = grid_[0].dependency;
    sites_.clear();
    sites_.resize(num_sites_);
    for (size_t k = 0; k < num_sites_; ++k) {
      Site& s = sites_[k];
      {
        ScopedSpan span(log, "setup.workload");
        s.workload = std::make_unique<core::Workload>(
            core::MakeWorkload(Config(SiteSeed(seed, k))));
      }
      {
        ScopedSpan span(log, "spec.prepare");
        s.sim = std::make_unique<spec::SpeculationSimulator>(
            &s.workload->corpus(), &s.workload->clean());
      }
      if (log != nullptr) {
        // The traced runs read these counts; the untraced passes of a
        // traced invocation read the simulator's own (identical) cache.
        ScopedSpan span(log, "spec.deps.count");
        s.deltas = spec::CountDailyDependencies(s.workload->clean(), dependency);
        span.count = s.sim->prepared().size();
        uint64_t pairs = 0;
        for (const spec::DayCounts& day : s.deltas) {
          for (const auto& [key, n] : day.pair_counts) pairs += n;
        }
        log->Count("spec.deps.pairs", pairs);
      }
      s.sim->Prewarm(dependency);
      for (const trace::Request& r : s.workload->clean().requests) {
        s.eligible += IsSpecRequest(r) ? 1 : 0;
      }
    }
  }

  size_t NumRuns() const override { return sites_.size() * grid_.size(); }

  RunOutput Run(size_t index, Rng&, SpanLog* log) const override {
    const Site& s = sites_[index / grid_.size()];
    const spec::SpeculationConfig& config = grid_[index % grid_.size()];
    if (log == nullptr) return SpecOutput(s.sim->Run(config));
    spec::DayCountsSource source;
    if (NeedsModel(config)) {
      source = [&s](long day) -> const spec::DayCounts* {
        return day >= 0 && static_cast<size_t>(day) < s.deltas.size()
                   ? &s.deltas[day]
                   : nullptr;
      };
    }
    std::unique_ptr<spec::SpeculationReplay> replay;
    {
      ScopedSpan span(log, "spec.run_setup");
      replay = std::make_unique<spec::SpeculationReplay>(
          &s.workload->corpus(), s.workload->clean().num_clients,
          s.workload->clean().num_servers, config, std::move(source), nullptr);
    }
    const spec::PreparedSpecTrace& pt = s.sim->prepared();
    SpecFeeder feeder(replay.get(), log, NeedsModel(config));
    spec::SpeculationReplay::Record rec;
    for (size_t i = 0; i < pt.size(); ++i) {
      rec.time = pt.time[i];
      rec.client = pt.client[i];
      rec.server = pt.server[i];
      rec.doc = pt.doc[i];
      rec.size_bytes = pt.size_bytes[i];
      rec.day = pt.day[i];
      feeder.Feed(i, rec);
    }
    feeder.Flush();
    RunOutput out;
    {
      ScopedSpan span(log, "spec.finish");
      out = SpecOutput(replay->Finish(), log);
    }
    ScopedSpan span(log, "spec.teardown");
    replay.reset();
    return out;
  }

  uint64_t RequestsPerPass() const override {
    uint64_t eligible = 0;
    for (const Site& s : sites_) eligible += s.eligible;
    return eligible * grid_.size();
  }

  std::string CheckRequests(size_t index, uint64_t requests) const override {
    return requests == sites_[index / grid_.size()].eligible
               ? ""
               : "spec run replayed a different request count than the trace";
  }

  const core::Workload& workload() const override { return *sites_[0].workload; }
  bool UsesSpec() const override { return true; }

 private:
  struct Site {
    std::unique_ptr<core::Workload> workload;
    std::unique_ptr<spec::SpeculationSimulator> sim;
    std::vector<spec::DayCounts> deltas;
    uint64_t eligible = 0;
  };
  std::vector<Site> sites_;
  std::vector<spec::SpeculationConfig> grid_;
};

/// The protection stack of one Figure 8 column: the cascade engine is
/// armed in every column, the defenses differ.
net::ProtectionConfig Fig8Protection(int level,
                                     const net::LoadTrackerConfig& load) {
  net::ProtectionConfig protection;
  protection.track_load = true;
  protection.load = load;
  if (level >= 1) {
    protection.circuit_breakers = true;
    protection.breaker.failure_threshold = 3;
    protection.breaker.cooldown_s = 900.0;
  }
  if (level >= 2) {
    protection.retry_budget = true;
    protection.budget.window_s = 3600.0;
    protection.budget.max_retry_ratio = 3.0;
    protection.budget.min_retries_per_window = 20;
    protection.admission_control = true;
  }
  return protection;
}

net::RetryPolicy FigureRetryPolicy() {
  net::RetryPolicy retry;
  retry.max_attempts = 6;
  retry.timeout_s = 5.0;
  retry.base_backoff_s = 1.0;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff_s = 60.0;
  retry.jitter = 0.0;
  return retry;
}

net::FaultInjectionConfig FigureFaults(double horizon_days, double rate) {
  net::FaultInjectionConfig faults;
  faults.horizon_days = horizon_days;
  faults.node_failure_rate_per_day = rate;
  faults.link_failure_rate_per_day = rate / 2.0;
  faults.server_failure_rate_per_day = rate;
  faults.mean_outage_days = 1.0;
  faults.min_outage_days = 2.0 / 24.0;
  faults.zone_failure_probability = 0.3;
  return faults;
}

/// dissem_faults: on each site, the Figure 8 grid (cascade engine x {off,
/// breakers, full} at four outage rates) and the Figure 9 grid (static,
/// d-choice d in {2, 4} and proximity, fault-free and faulted, at two
/// storage fractions x three proxy counts) over one shared prepared
/// context.
class DissemFaults final : public Workload {
 public:
  using Workload::Workload;

  void Setup(uint64_t seed, SpanLog* log) override {
    sites_.clear();
    sites_.resize(num_sites_);
    for (size_t k = 0; k < num_sites_; ++k) {
      SetupSite(SiteSeed(seed, k), log, &sites_[k]);
    }
  }

  size_t NumRuns() const override { return sites_.size() * kRunsPerSite; }

  RunOutput Run(size_t index, Rng& rng, SpanLog* log) const override {
    const Site& s = sites_[index / kRunsPerSite];
    const dissem::DisseminationConfig& config = s.configs[index % kRunsPerSite];
    const std::vector<trace::UpdateEvent>* updates = &s.workload->updates();
    const uint64_t evals = s.prepared.eval_index.size();
    if (log == nullptr) {
      return DissemOutput(
          dissem::SimulateDissemination(s.prepared, config, &rng, updates),
          evals);
    }
    std::unique_ptr<dissem::DisseminationReplay> replay;
    {
      ScopedSpan span(log, "dissem.run_setup");
      replay = std::make_unique<dissem::DisseminationReplay>(
          s.prepared, config, &rng, updates);
    }
    const trace::Trace& trace = s.workload->clean();
    const char* layer = DissemLayer(config);
    for (size_t begin = 0; begin < evals; begin += kChunk) {
      const size_t end = std::min<size_t>(evals, begin + kChunk);
      ScopedSpan span(log, layer);
      for (size_t k = begin; k < end; ++k) {
        const trace::Request& r = trace.requests[s.prepared.eval_index[k]];
        replay->OnRequest(k, dissem::DisseminationReplay::EvalRecord{
                                 r.time, r.client, r.doc, r.bytes,
                                 s.prepared.eval_node[k],
                                 s.prepared.eval_day[k]});
      }
      span.count = end - begin;
    }
    RunOutput out;
    {
      ScopedSpan span(log, "dissem.finish");
      out = DissemOutput(replay->Finish(), evals, log);
    }
    ScopedSpan span(log, "dissem.teardown");
    replay.reset();
    return out;
  }

  uint64_t RequestsPerPass() const override {
    uint64_t evals = 0;
    for (const Site& s : sites_) evals += s.eval_count;
    return evals * kRunsPerSite;
  }

  std::string CheckRequests(size_t index, uint64_t requests) const override {
    const Site& s = sites_[index / kRunsPerSite];
    return requests == s.eval_count && s.prepared.eval_requests == s.eval_count
               ? ""
               : "dissemination eval window differs from the trace count";
  }

  const core::Workload& workload() const override { return *sites_[0].workload; }
  bool UsesSpec() const override { return false; }

 private:
  /// 4 outage rates x 3 protection stacks, then 2 storage fractions x 3
  /// proxy counts x {fault-free, faulted} x 4 selection policies.
  static constexpr size_t kRunsPerSite = 12 + 48;

  struct Site {
    std::unique_ptr<core::Workload> workload;
    dissem::PreparedDissemination prepared;
    /// One schedule per Figure 8 outage rate, then the Figure 9 overlay.
    std::vector<net::FaultSchedule> schedules;
    std::vector<dissem::DisseminationConfig> configs;
    uint64_t eval_count = 0;
  };

  void SetupSite(uint64_t site_seed, SpanLog* log, Site* s) const {
    {
      ScopedSpan span(log, "setup.workload");
      s->workload = std::make_unique<core::Workload>(
          core::MakeWorkload(Config(site_seed)));
    }
    const core::Workload& w = *s->workload;
    {
      ScopedSpan span(log, "dissem.prepare");
      s->prepared = dissem::PrepareDissemination(
          w.corpus(), w.clean(), w.topology(), 0,
          dissem::DisseminationConfig{}.train_fraction);
      span.count = w.clean().size();
    }
    const dissem::PreparedDissemination& prepared = s->prepared;
    const double horizon_days = w.clean_span() / kDay + 1.0;
    const std::vector<double> rates = {0.0, 0.05, 0.10, 0.20};
    {
      // Fixed schedule streams: the seed reaches the schedules only
      // through the site's topology.
      ScopedSpan span(log, "net.faults.schedule");
      for (size_t row = 0; row < rates.size(); ++row) {
        Rng rng = core::MakePointRng(Rng::Mix(42 ^ 0xf188e5u), row);
        s->schedules.push_back(net::GenerateFaultSchedule(
            w.topology(), FigureFaults(horizon_days, rates[row]), &rng));
      }
      Rng rng = core::MakePointRng(Rng::Mix(42 ^ 0xf199baau), 0);
      net::FaultSchedule overlay = net::GenerateFaultSchedule(
          w.topology(), FigureFaults(horizon_days, 0.05), &rng);
      const long first_eval_day = static_cast<long>(prepared.split / kDay) + 1;
      for (long day = first_eval_day; day < static_cast<long>(horizon_days);
           day += 3) {
        const double start = static_cast<double>(day) * kDay + 12.0 * 3600.0;
        overlay.Add({net::FaultKind::kServerBrownout, 0, start,
                     start + 6.0 * 3600.0});
      }
      s->schedules.push_back(std::move(overlay));
      span.count = s->schedules.size();
    }

    // Figure 8 capacity calibration: the home server alone would run at
    // 1.25x capacity over the evaluation window.
    const double eval_span = std::max(1.0, prepared.span - prepared.split);
    const double eval_requests =
        static_cast<double>(std::max<uint64_t>(1, prepared.eval_requests));
    net::LoadTrackerConfig load;
    load.window_s = 12.0 * 3600.0;
    load.brownout_duration_s = 4.0 * 3600.0;
    load.utilization_threshold = 0.75;
    load.admission_threshold = 0.55;
    load.service_overhead_s = 0.85 * 1.25 * eval_span / eval_requests;
    load.service_rate_bytes_per_s =
        prepared.eval_bytes <= 0.0
            ? 1.5e6
            : prepared.eval_bytes / (0.15 * 1.25 * eval_span);

    for (size_t row = 0; row < rates.size(); ++row) {
      for (int level = 0; level < 3; ++level) {
        dissem::DisseminationConfig config;
        config.num_proxies = 8;
        config.dissemination_fraction = 0.10;
        config.faults =
            s->schedules[row].empty() ? nullptr : &s->schedules[row];
        config.retry = FigureRetryPolicy();
        config.protection = Fig8Protection(level, load);
        config.collect_service_times = true;
        s->configs.push_back(config);
      }
    }
    for (const double storage : {0.04, 0.10}) {
      for (const uint32_t proxies : {2u, 4u, 8u}) {
        for (const bool faulted : {false, true}) {
          for (const uint32_t d : {1u, 2u, 4u, 0u}) {
            dissem::DisseminationConfig config;
            config.dissemination_fraction = storage;
            config.num_proxies = proxies;
            if (d == 0) {
              config.placement = dissem::PlacementStrategy::kProximity;
              config.proximity_allocation = true;
            } else {
              config.selection_d = d;
            }
            if (faulted) {
              config.faults = &s->schedules.back();
              config.retry = FigureRetryPolicy();
            }
            s->configs.push_back(config);
          }
        }
      }
    }
    for (const trace::Request& r : w.clean().requests) {
      s->eval_count += IsEvalRequest(prepared.split, r) ? 1 : 0;
    }
  }

  std::vector<Site> sites_;
};

/// stream_replay: generated, never-materialised traces with ten times the
/// paper's clients per site. Each pass streams one prepare pass per site,
/// then simulates dissemination at 10% and 4% and speculation at the kNone
/// baseline and three T_p points, every run from its own fresh cursors.
class StreamReplay final : public Workload {
 public:
  explicit StreamReplay(size_t sites) : Workload(sites, false) {}

  core::WorkloadConfig Config(uint64_t site_seed) const override {
    core::WorkloadConfig config = Workload::Config(site_seed);
    config.streaming = true;
    config.tracegen.num_clients = 20000;
    config.tracegen.days = 30;
    return config;
  }

  void Setup(uint64_t seed, SpanLog* log) override {
    specs_.clear();
    const spec::SpeculationConfig base = core::BaselineSpecConfig();
    specs_.push_back(base);
    specs_[0].mode = spec::ServiceMode::kNone;
    for (const double tp : {0.5, 0.25, 0.1}) {
      spec::SpeculationConfig config = base;
      config.policy.threshold = tp;
      config.closure.min_probability = std::min(0.02, tp);
      specs_.push_back(config);
    }
    sites_.clear();
    sites_.resize(num_sites_);
    for (size_t k = 0; k < num_sites_; ++k) {
      ScopedSpan span(log, "setup.workload");
      sites_[k].workload = std::make_unique<core::Workload>(
          core::MakeWorkload(Config(SiteSeed(seed, k))));
    }
  }

  size_t NumPrologues() const override { return sites_.size(); }

  /// The streamed prepare pass every dissemination run of the site shares;
  /// the first pass also counts the requests each run kind replays.
  void Prologue(size_t site, SpanLog* log) override {
    Site& s = sites_[site];
    const core::Workload& w = *s.workload;
    const double train_fraction = dissem::DisseminationConfig{}.train_fraction;
    std::unique_ptr<trace::RequestCursor> cursor = CleanCursor(w, log);
    ScopedSpan span(log, "dissem.prepare");
    CountingCursor counting(cursor.get(), w.clean_span() * train_fraction);
    trace::RequestCursor* source = s.counted ? cursor.get() : &counting;
    try {
      s.prepared = dissem::PrepareDisseminationStream(
          w.corpus(), w.topology(), 0, train_fraction, w.clean_span(), source);
    } catch (const std::exception& e) {
      s.error = e.what();
    }
    if (!s.counted) {
      s.eval_count = counting.eval;
      s.spec_count = counting.spec;
      s.counted = true;
    }
    span.count = s.spec_count;
    if (!cursor->status().ok()) s.error = cursor->status().ToString();
  }

  size_t NumRuns() const override { return sites_.size() * RunsPerSite(); }

  RunOutput Run(size_t index, Rng& rng, SpanLog* log) const override {
    const Site& s = sites_[index / RunsPerSite()];
    const size_t run = index % RunsPerSite();
    RunOutput out = run < kFractions.size()
                        ? RunDissem(s, kFractions[run], rng, log)
                        : RunSpec(s, specs_[run - kFractions.size()], log);
    if (out.error.empty()) out.error = s.error;
    return out;
  }

  uint64_t RequestsPerPass() const override {
    uint64_t total = 0;
    for (const Site& s : sites_) {
      total += s.eval_count * kFractions.size() + s.spec_count * specs_.size();
    }
    return total;
  }

  std::string CheckRequests(size_t index, uint64_t requests) const override {
    const Site& s = sites_[index / RunsPerSite()];
    const uint64_t expected = index % RunsPerSite() < kFractions.size()
                                  ? s.eval_count
                                  : s.spec_count;
    return requests == expected && s.prepared.eval_requests == s.eval_count
               ? ""
               : "streamed replay consumed a different request count than "
                 "the trace";
  }

  const core::Workload& workload() const override { return *sites_[0].workload; }
  bool UsesSpec() const override { return true; }

 private:
  static constexpr std::array<double, 2> kFractions = {0.10, 0.04};

  struct Site {
    std::unique_ptr<core::Workload> workload;
    dissem::PreparedDissemination prepared;
    /// Requests a dissemination run and a speculation run replay, counted
    /// by the first prologue.
    uint64_t eval_count = 0;
    uint64_t spec_count = 0;
    bool counted = false;
    std::string error;
  };

  /// Pass-through cursor that counts the evaluation window and the
  /// speculation requests as the prepare pass streams by (the benchmark's
  /// own counts, not the simulator's).
  struct CountingCursor final : trace::RequestCursor {
    CountingCursor(trace::RequestCursor* inner, double split)
        : inner(inner), split(split) {}
    std::span<const trace::Request> NextChunk() override {
      const std::span<const trace::Request> chunk = inner->NextChunk();
      for (const trace::Request& r : chunk) {
        eval += IsEvalRequest(split, r) ? 1 : 0;
        spec += IsSpecRequest(r) ? 1 : 0;
      }
      return chunk;
    }
    void Rewind() override {
      eval = 0;
      spec = 0;
      inner->Rewind();
    }
    uint32_t num_clients() const override { return inner->num_clients(); }
    uint32_t num_servers() const override { return inner->num_servers(); }
    const Status& status() const override { return inner->status(); }

    trace::RequestCursor* inner;
    double split;
    uint64_t eval = 0;
    uint64_t spec = 0;
  };

  size_t RunsPerSite() const { return kFractions.size() + specs_.size(); }

  static RunOutput RunDissem(const Site& s, double fraction, Rng& rng,
                             SpanLog* log) {
    const core::Workload& w = *s.workload;
    const dissem::PreparedDissemination& prepared = s.prepared;
    dissem::DisseminationConfig config;
    config.num_proxies = 4;
    config.dissemination_fraction = fraction;
    std::unique_ptr<trace::RequestCursor> cursor = CleanCursor(w, log);
    RunOutput out;
    if (log == nullptr) {
      out = DissemOutput(dissem::SimulateDisseminationStream(
                             prepared, config, &rng, &w.updates(),
                             cursor.get()),
                         prepared.eval_requests);
    } else {
      cursor->Rewind();
      std::unique_ptr<dissem::DisseminationReplay> replay;
      {
        ScopedSpan span(log, "dissem.run_setup");
        replay = std::make_unique<dissem::DisseminationReplay>(
            prepared, config, &rng, &w.updates());
      }
      const char* layer = DissemLayer(config);
      size_t k = 0;
      for (auto chunk = cursor->NextChunk(); !chunk.empty();
           chunk = cursor->NextChunk()) {
        ScopedSpan span(log, layer);
        const size_t first = k;
        for (const trace::Request& r : chunk) {
          if (!IsEvalRequest(prepared.split, r)) continue;
          const uint32_t node = prepared.node_index.at(
              prepared.topology->client_node(r.client));
          replay->OnRequest(k++, dissem::DisseminationReplay::EvalRecord{
                                     r.time, r.client, r.doc, r.bytes, node,
                                     static_cast<uint32_t>(DayOfTime(r.time))});
        }
        span.count = k - first;
      }
      {
        ScopedSpan span(log, "dissem.finish");
        out = DissemOutput(replay->Finish(), k, log);
      }
      ScopedSpan span(log, "dissem.teardown");
      replay.reset();
    }
    if (!cursor->status().ok()) out.error = cursor->status().ToString();
    return out;
  }

  static RunOutput RunSpec(const Site& s, const spec::SpeculationConfig& config,
                           SpanLog* log) {
    const core::Workload& w = *s.workload;
    std::unique_ptr<trace::RequestCursor> replay_cursor = CleanCursor(w, log);
    std::unique_ptr<trace::RequestCursor> deps_cursor;
    if (NeedsModel(config)) deps_cursor = CleanCursor(w, log);
    RunOutput out;
    if (log == nullptr) {
      spec::StreamingSpeculationSimulator sim(
          &w.corpus(), replay_cursor.get(), deps_cursor.get());
      out = SpecOutput(sim.Run(config));
    } else {
      out = TracedSpec(w, config, replay_cursor.get(), deps_cursor.get(), log);
    }
    for (const trace::RequestCursor* c :
         {replay_cursor.get(), deps_cursor.get()}) {
      if (c != nullptr && !c->status().ok()) out.error = c->status().ToString();
    }
    return out;
  }

  /// StreamingSpeculationSimulator::Run with spans: the dependency pump
  /// ("spec.deps.count", counted in requests ingested) nests inside the
  /// day roll that asks for the finished day.
  static RunOutput TracedSpec(const core::Workload& w,
                              const spec::SpeculationConfig& config,
                              trace::RequestCursor* replay_cursor,
                              trace::RequestCursor* deps_cursor,
                              SpanLog* log) {
    replay_cursor->Rewind();
    std::unique_ptr<spec::DailyDependencyAccumulator> acc;
    bool deps_done = false;
    long counted_through = -1;
    spec::DayCountsSource source;
    if (deps_cursor != nullptr) {
      deps_cursor->Rewind();
      acc = std::make_unique<spec::DailyDependencyAccumulator>(
          config.dependency, replay_cursor->num_clients());
      source = [log, deps_cursor, a = acc.get(), &deps_done, &counted_through,
                history = static_cast<long>(config.history_days)](
                   long day) -> const spec::DayCounts* {
        if (day < 0) return nullptr;
        const uint32_t d = static_cast<uint32_t>(day);
        ScopedSpan span(log, "spec.deps.count");
        while (!deps_done && !a->DayFinal(d)) {
          const auto chunk = deps_cursor->NextChunk();
          if (chunk.empty()) {
            a->FinishStream();
            deps_done = true;
            break;
          }
          for (const trace::Request& r : chunk) a->OnRequest(r);
          span.count += chunk.size();
        }
        const spec::DayCounts* counts = a->Counts(d);
        if (day > counted_through) {
          counted_through = day;
          uint64_t pairs = 0;
          for (const auto& [key, n] : counts->pair_counts) pairs += n;
          log->Count("spec.deps.pairs", pairs);
        }
        if (day > history) a->DropBefore(static_cast<uint32_t>(day - history));
        return counts;
      };
    }
    std::unique_ptr<spec::SpeculationReplay> replay;
    {
      ScopedSpan span(log, "spec.run_setup");
      replay = std::make_unique<spec::SpeculationReplay>(
          &w.corpus(), replay_cursor->num_clients(),
          replay_cursor->num_servers(), config, std::move(source), nullptr);
    }
    SpecFeeder feeder(replay.get(), log, deps_cursor != nullptr);
    size_t i = 0;
    spec::SpeculationReplay::Record rec;
    for (auto chunk = replay_cursor->NextChunk(); !chunk.empty();
         chunk = replay_cursor->NextChunk()) {
      for (const trace::Request& r : chunk) {
        if (!IsSpecRequest(r)) continue;
        rec.time = r.time;
        rec.client = r.client;
        rec.server = r.server;
        rec.doc = r.doc;
        rec.size_bytes = w.corpus().doc(r.doc).size_bytes;
        rec.day = static_cast<uint32_t>(DayOfTime(r.time));
        feeder.Feed(i++, rec);
      }
      feeder.Flush();
    }
    RunOutput out;
    {
      ScopedSpan span(log, "spec.finish");
      out = SpecOutput(replay->Finish(), log);
    }
    ScopedSpan span(log, "spec.teardown");
    replay.reset();
    acc.reset();
    return out;
  }

  std::vector<Site> sites_;
  std::vector<spec::SpeculationConfig> specs_;
};

std::unique_ptr<Workload> MakeNamedWorkload(const std::string& name) {
  // Sites per workload: enough to average over site structure, few enough
  // to keep a pass near a second or two on four workers.
  if (name == "spec_sweep") return std::make_unique<SpecSweep>(4, false);
  if (name == "dissem_faults") return std::make_unique<DissemFaults>(8, false);
  if (name == "stream_replay") return std::make_unique<StreamReplay>(2);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

struct Pass {
  double wall_s = 0.0;
  core::SweepStats prologue;
  core::SweepStats sweep;
  std::vector<RunOutput> runs;
  /// One log per run, then one per prologue (traced passes only).
  std::vector<SpanLog> logs;

  /// What one worker would have spent on the pass.
  double SerialSeconds() const {
    return prologue.serial_seconds + sweep.serial_seconds;
  }
};

Pass RunPass(Workload* w, uint32_t workers, uint64_t seed, bool traced) {
  Pass pass;
  const size_t runs = w->NumRuns();
  if (traced) pass.logs.resize(runs + w->NumPrologues());
  core::SweepOptions options;
  options.workers = workers;
  options.seed = seed;
  const double t0 = Now();
  if (w->NumPrologues() > 0) {
    pass.prologue = core::RunSweep(
        w->NumPrologues(), options, [&](size_t site, Rng&) {
          w->Prologue(site, traced ? &pass.logs[runs + site] : nullptr);
        });
  }
  const Workload& shared = *w;
  pass.runs = core::SweepMap(
      runs, options,
      [&](size_t index, Rng& rng) {
        SpanLog* log = traced ? &pass.logs[index] : nullptr;
        ScopedSpan span(log, "run");
        RunOutput out;
        try {
          out = shared.Run(index, rng, log);
        } catch (const std::exception& e) {
          out.error = e.what();
        }
        return out;
      },
      &pass.sweep);
  pass.wall_s = Now() - t0;
  return pass;
}

/// Everything the benchmark reports for one invocation.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<uint64_t> reference;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Problem(const std::string& what) {
    if (problems.size() < 20) problems.push_back(what);
  }
};

/// Counts a pass's runs and checks each against the reference digests
/// (the first pass, the warm-up, sets them).
void CheckPass(const Workload& w, const Pass& pass, Report* report) {
  if (report->reference.empty()) {
    for (const RunOutput& run : pass.runs) report->reference.push_back(run.digest);
  }
  uint64_t requests = 0;
  for (size_t i = 0; i < pass.runs.size(); ++i) {
    const RunOutput& run = pass.runs[i];
    ++report->attempted;
    requests += run.requests;
    if (!run.error.empty()) {
      ++report->failed;
      report->Problem("run " + std::to_string(i) + ": " + run.error);
    } else if (run.digest != report->reference[i]) {
      ++report->failed;
      report->Problem("run " + std::to_string(i) +
                      ": digest differs from the one-worker warm-up");
    } else if (const std::string bad = w.CheckRequests(i, run.requests);
               !bad.empty()) {
      ++report->failed;
      report->Problem("run " + std::to_string(i) + ": " + bad);
    }
  }
  if (requests != w.RequestsPerPass()) {
    report->Problem("pass replayed " + std::to_string(requests) +
                    " requests, the trace count is " +
                    std::to_string(w.RequestsPerPass()));
  }
}

// ---------------------------------------------------------------------------
// Layer probes of the traced run (outside the measured phase)
// ---------------------------------------------------------------------------

/// trace.* for the batch workloads, whose generation and filtering happen
/// inside MakeWorkload during setup: one timed pass over the streaming twin
/// of the same workload config (the identical request stream).
void TraceProbe(core::WorkloadConfig config, SpanLog* log) {
  config.streaming = true;
  const core::Workload twin = core::MakeWorkload(config);
  std::unique_ptr<trace::RequestCursor> cursor = CleanCursor(twin, log);
  while (!cursor->NextChunk().empty()) {
  }
}

/// spec.closure.*: ComputeClosureRow on each day's P (built from the
/// sliding window of finished days) for that day's requested documents,
/// one span per day counted in rows.
void ClosureProbe(const core::Workload& w, SpanLog* log) {
  const spec::SpeculationConfig config = core::BaselineSpecConfig();
  std::unique_ptr<trace::RequestCursor> cursor = w.NewCleanCursor();
  spec::DailyDependencyAccumulator acc(config.dependency,
                                       cursor->num_clients());
  std::vector<std::vector<trace::DocumentId>> day_docs;
  for (auto chunk = cursor->NextChunk(); !chunk.empty();
       chunk = cursor->NextChunk()) {
    for (const trace::Request& r : chunk) {
      acc.OnRequest(r);
      if (!IsSpecRequest(r)) continue;
      const size_t day = static_cast<size_t>(DayOfTime(r.time));
      if (day >= day_docs.size()) day_docs.resize(day + 1);
      day_docs[day].push_back(r.doc);
    }
  }
  acc.FinishStream();
  spec::WindowedCounts counts(w.corpus().size());
  spec::ClosureScratch scratch;
  const long history = static_cast<long>(config.history_days);
  for (size_t day = 1; day < day_docs.size(); ++day) {
    counts.Add(*acc.Counts(static_cast<uint32_t>(day - 1)));
    const long expired = static_cast<long>(day) - 1 - history;
    if (expired >= 0) counts.Remove(*acc.Counts(static_cast<uint32_t>(expired)));
    std::vector<trace::DocumentId>& docs = day_docs[day];
    if (docs.empty()) continue;
    std::sort(docs.begin(), docs.end());
    docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
    const spec::SparseProbMatrix p = counts.BuildMatrix(config.dependency);
    ScopedSpan span(log, "spec.closure.row");
    for (const trace::DocumentId doc : docs) {
      spec::ComputeClosureRow(p, doc, config.closure, &scratch);
    }
    span.count = docs.size();
  }
}

/// Layers that a workload's own passes and set-up never run are timed once
/// on one small site (core::SmallConfig) of each batch workload, so that
/// every per-layer metric reads a measurement. TracedRun prefers the
/// workload's own spans.
void Census(uint64_t seed, SpanLog* log) {
  SpecSweep spec(1, true);
  DissemFaults dissem(1, true);
  for (Workload* w : {static_cast<Workload*>(&spec),
                      static_cast<Workload*>(&dissem)}) {
    w->Setup(seed, log);
    Rng rng(seed);
    for (size_t i = 0; i < w->NumRuns(); ++i) w->Run(i, rng, log);
  }
  ClosureProbe(spec.workload(), log);
}

void ResetObs() {
  obs::ResetMetrics();
  obs::ResetTrace();
  obs::ResetTimeSeries();
  obs::ResetJourneys();
  obs::ResetFlight();
  obs::ResetAudit();
}

// ---------------------------------------------------------------------------
// The two kinds of invocation
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The pool size, PoolWorkers().
  uint32_t workers = 1;
  bool reference_only = false;
  std::string spans_out;
};

void PrintSamples(const char* name, const std::vector<double>& values) {
  std::printf("samples %s:", name);
  for (const double v : values) std::printf(" %.4f", v);
  std::printf("\n");
}

constexpr int kMinPasses = 3;

/// Untimed warm-up: one pass on one worker (its digests must equal those
/// of the pool's passes), then one on the pool, whose first pass pays for
/// the worker threads' heap arenas and page faults.
void WarmUp(Workload* w, const Args& args, Report* report) {
  CheckPass(*w, RunPass(w, 1, args.seed, false), report);
  if (!args.reference_only) {
    CheckPass(*w, RunPass(w, args.workers, args.seed, false), report);
  }
}

/// Replaces `*w` by a freshly set-up instance of the workload and returns
/// the seconds the set-up took (freeing the old instance is not timed).
double TimedSetup(const Args& args, std::unique_ptr<Workload>* w) {
  *w = MakeNamedWorkload(args.workload);
  const double t0 = Now();
  (*w)->Setup(args.seed, nullptr);
  return Now() - t0;
}

/// --trace 0: set up, warm up, then measured passes on the pool until
/// `seconds` are spent. The workload is set up afresh before each pass, so
/// that set-up time is sampled throughout the run, under the same host
/// conditions as the passes, and each pass checks that the new set-up
/// reproduces the warm-up digests. One instance is alive at a time.
void TimedRun(const Args& args, Report* report) {
  std::unique_ptr<Workload> w;
  std::vector<double> setups = {TimedSetup(args, &w)};
  WarmUp(w.get(), args, report);
  if (args.reference_only) return;

  std::vector<double> walls;
  std::vector<double> rps;
  const double start = Now();
  while (walls.size() < kMinPasses || Now() - start < args.seconds) {
    setups.push_back(TimedSetup(args, &w));
    const Pass pass = RunPass(w.get(), args.workers, args.seed, false);
    CheckPass(*w, pass, report);
    walls.push_back(pass.wall_s);
    rps.push_back(static_cast<double>(w->RequestsPerPass()) / pass.wall_s);
  }
  std::printf("%zu measured passes of %zu runs, %llu requests each\n",
              walls.size(), w->NumRuns(),
              static_cast<unsigned long long>(w->RequestsPerPass()));
  PrintSamples("setup_s", setups);
  PrintSamples("wall_s", walls);
  report->Add("setup_s", Median(setups), "s");
  report->Add("wall_s", Median(walls), "s");
  report->Add("replay_rps", Median(rps), "requests/s");
  report->Add("peak_rss_mb", PeakRssBytes() / kMiB, "MiB");
}

bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "[\n");
  bool first = true;
  for (size_t id = 0; id < logs.size(); ++id) {
    for (const Span& s : logs[id]->spans()) {
      std::fprintf(out,
                   "%s{\"log\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                   "\"end\":%.9f,\"parent\":%d,\"count\":%llu}",
                   first ? "" : ",\n", id, s.name, s.start, s.end, s.parent,
                   static_cast<unsigned long long>(s.count));
      first = false;
    }
  }
  std::fprintf(out, "\n]\n");
  return std::fclose(out) == 0;
}

/// --trace 1: traced setup and layer probes, a warm-up pass, then untraced
/// and traced passes alternating for `seconds`, then observability passes.
void TracedRun(const Args& args, Report* report) {
  std::unique_ptr<Workload> w = MakeNamedWorkload(args.workload);
  SpanLog setup_log;
  w->Setup(args.seed, &setup_log);
  WarmUp(w.get(), args, report);

  SpanLog probe_log;
  const bool batch = !w->workload().streaming();
  if (batch) TraceProbe(w->Config(SiteSeed(args.seed, 0)), &probe_log);
  if (w->UsesSpec()) ClosureProbe(w->workload(), &probe_log);

  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<double> speedups;
  std::vector<double> stragglers;
  std::vector<Pass> traced;
  const double start = Now();
  while (traced.size() < kMinPasses || Now() - start < args.seconds) {
    const Pass plain = RunPass(w.get(), args.workers, args.seed, false);
    CheckPass(*w, plain, report);
    untraced_walls.push_back(plain.wall_s);
    speedups.push_back(plain.sweep.Speedup());
    stragglers.push_back(*std::max_element(plain.sweep.point_seconds.begin(),
                                           plain.sweep.point_seconds.end()) /
                         Median(plain.sweep.point_seconds));
    traced.push_back(RunPass(w.get(), args.workers, args.seed, true));
    CheckPass(*w, traced.back(), report);
    traced_walls.push_back(traced.back().wall_s);
  }

  // Observability cost: passes with the layer off and on, alternating; then
  // one more under the audit ledger, whose violations fail their runs. The
  // resident-set peaks are those of the first off pass, before the layer
  // has allocated anything, and of the on passes.
  std::vector<double> off_walls;
  std::vector<double> on_walls;
  double rss_off = 0.0;
  double rss_on = 0.0;
  for (int i = 0; i < kMinPasses; ++i) {
    ResetPeakRss();
    const Pass off = RunPass(w.get(), args.workers, args.seed, false);
    CheckPass(*w, off, report);
    off_walls.push_back(off.wall_s);
    if (i == 0) rss_off = PeakRssBytes();
    obs::SetEnabled(true);
    if (!obs::Enabled()) report->Problem("observability is compiled out");
    ResetPeakRss();
    const Pass on = RunPass(w.get(), args.workers, args.seed, false);
    CheckPass(*w, on, report);
    on_walls.push_back(on.wall_s);
    rss_on = std::max(rss_on, PeakRssBytes());
    obs::SetEnabled(false);
    ResetObs();
  }
  obs::SetEnabled(true);
  obs::SetAuditEnabled(true);
  const Pass audited = RunPass(w.get(), args.workers, args.seed, false);
  CheckPass(*w, audited, report);
  obs::AuditCheckpoint("perfbench");
  std::set<int64_t> violated;
  for (const obs::AuditViolation& v : obs::AuditReport()) {
    violated.insert(v.point);
    report->Problem("audit: " + v.ToString());
  }
  report->failed += violated.size();
  obs::SetAuditEnabled(false);
  obs::SetEnabled(false);
  ResetObs();

  // Layer self times: the traced passes, then set-up and probes, then the
  // census. A metric reads the first of these that ran its key layer.
  Layers run_layers;
  double serial_s = 0.0;
  uint64_t passes = 0;
  for (const Pass& pass : traced) {
    for (const SpanLog& log : pass.logs) {
      AddSelfTimes(log, &run_layers);
      passes += log.passes;
    }
    serial_s += pass.SerialSeconds();
  }
  Layers setup_layers;
  AddSelfTimes(setup_log, &setup_layers);
  AddSelfTimes(probe_log, &setup_layers);
  SpanLog census_log;
  Census(args.seed, &census_log);
  Layers census_layers;
  AddSelfTimes(census_log, &census_layers);
  const LayerView views[] = {LayerView(run_layers), LayerView(setup_layers),
                             LayerView(census_layers)};
  const auto from = [&views](const char* key) -> const LayerView& {
    for (const LayerView& v : views) {
      if (v.Has(key)) return v;
    }
    return views[2];
  };
  const auto per_count = [&from](const char* layer, double scale) {
    return from(layer).PerCount(layer, scale);
  };
  const auto per_call = [&from](const char* layer, double scale) {
    return from(layer).PerCall(layer, scale);
  };

  const LayerView& trace = from("trace.generate");
  const double raw_requests = trace.Count("trace.generate");
  report->Add("trace.generate.ns_per_req",
              Ratio(trace.Self("trace.generate") * 1e9, raw_requests), "ns");
  report->Add("trace.filter.ns_per_req",
              Ratio(trace.Self("trace.filter") * 1e9, raw_requests), "ns");
  report->Add("trace.passes",
              static_cast<double>(passes) / static_cast<double>(traced.size()),
              "count");
  const LayerView& deps = from("spec.deps.count");
  report->Add("spec.deps.count_ns_per_req",
              deps.PerCount("spec.deps.count", 1e9), "ns");
  report->Add("spec.deps.pairs_per_req",
              Ratio(deps.Count("spec.deps.pairs"), deps.Count("spec.deps.count")),
              "ratio");
  report->Add("spec.model.roll_ms_per_day", per_count("spec.model.roll", 1e3),
              "ms");
  report->Add("spec.replay.ns_per_req", per_count("spec.replay", 1e9), "ns");
  report->Add("spec.run_setup_ms", per_call("spec.run_setup", 1e3), "ms");
  report->Add("spec.finish_ms", per_call("spec.finish", 1e3), "ms");
  report->Add("spec.teardown_ms", per_call("spec.teardown", 1e3), "ms");
  const LayerView& closure = from("spec.closure.row");
  report->Add("spec.closure.row_us", closure.PerCount("spec.closure.row", 1e6),
              "us");
  report->Add("spec.closure.rows_per_day",
              Ratio(closure.Count("spec.closure.row"),
                    closure.Calls("spec.closure.row")),
              "count");
  const LayerView& push = from("spec.push.sent");
  report->Add("spec.push.useful_frac",
              Ratio(push.Count("spec.push.used"), push.Count("spec.push.sent")),
              "ratio");
  report->Add("spec.push.docs_sent",
              Ratio(push.Count("spec.push.sent"), push.Calls("spec.push.sent")),
              "count");
  report->Add("dissem.prepare_ms", per_call("dissem.prepare", 1e3), "ms");
  report->Add("dissem.run_setup_ms", per_call("dissem.run_setup", 1e3), "ms");
  for (const std::string kind : {"fault_free", "faulted", "protected"}) {
    const std::string layer = "dissem.replay." + kind;
    report->Add(layer + ".ns_per_req", per_count(layer.c_str(), 1e9), "ns");
  }
  report->Add("dissem.finish_ms", per_call("dissem.finish", 1e3), "ms");
  report->Add("dissem.teardown_ms", per_call("dissem.teardown", 1e3), "ms");
  // Attempts per evaluated request, over the runs that can retry.
  const LayerView& retry = from("dissem.replay.protected");
  report->Add("dissem.retry_amp",
              1.0 + Ratio(retry.Count("dissem.retries"),
                          retry.Count("dissem.replay.faulted") +
                              retry.Count("dissem.replay.protected")),
              "ratio");
  const LayerView& hits = from("dissem.proxy_hits");
  const double evals = hits.Count("dissem.replay.fault_free") +
                       hits.Count("dissem.replay.faulted") +
                       hits.Count("dissem.replay.protected");
  report->Add("dissem.proxy_hit_frac",
              Ratio(hits.Count("dissem.proxy_hits"), evals), "ratio");
  report->Add("dissem.eval_requests",
              Ratio(evals, hits.Calls("dissem.proxy_hits")), "count");
  report->Add("net.faults.schedule_ms", per_call("net.faults.schedule", 1e3),
              "ms");

  report->Add("core.sweep.speedup", Median(speedups), "ratio");
  report->Add("core.sweep.point_max_over_p50", Median(stragglers), "ratio");
  report->Add("obs.overhead_frac", Median(on_walls) / Median(off_walls) - 1.0,
              "ratio");
  report->Add("obs.rss_mb", (rss_on - rss_off) / kMiB, "MiB");
  report->Add("trace_overhead_frac",
              Median(traced_walls) / Median(untraced_walls) - 1.0, "ratio");
  report->Add("layers_cover_frac", Ratio(TotalSelf(run_layers), serial_s),
              "ratio");

  if (!args.spans_out.empty()) {
    std::vector<const SpanLog*> logs = {&setup_log, &probe_log, &census_log};
    for (const SpanLog& log : traced.back().logs) logs.push_back(&log);
    if (!WriteSpans(args.spans_out, logs)) {
      report->Problem("cannot write " + args.spans_out);
    }
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--reference-only") {
      args->reference_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty() && args->seconds >= 0;
}

void PrintJson(const Args& args, const Report& report) {
  Digest combined;
  combined.Ints(report.reference);
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"workers\": %u, "
              "\"attempted\": %llu, \"failed\": %llu, \"digest\": "
              "\"%016llx\", \"problems\": [",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.workers, static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(combined.value()));
  for (size_t i = 0; i < report.problems.size(); ++i) {
    std::string p;
    for (const char c : report.problems[i]) {
      if (c == '"' || c == '\\') p += '\\';
      p += (c == '\n' || c == '\t') ? ' ' : c;
    }
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", p.c_str());
  }
  std::printf("], \"metrics\": {");
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) || !MakeNamedWorkload(args.workload)) {
    std::fprintf(stderr,
                 "usage: sds_perfbench --workload "
                 "spec_sweep|dissem_faults|stream_replay --seed N --seconds S "
                 "[--trace 0|1] [--spans-out PATH] [--reference-only]\n");
    return 2;
  }
  args.workers = PoolWorkers();
  // End-to-end numbers are measured with observability off whatever the
  // environment says; the traced run switches it on only for its own
  // passes.
  obs::SetEnabled(false);
  obs::SetAuditEnabled(false);
  obs::SetAuditStrict(false);

  Report report;
  if (args.trace && !args.reference_only) {
    TracedRun(args, &report);
  } else {
    TimedRun(args, &report);
  }
  for (const Report::Metric& m : report.metrics) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::fflush(stdout);
  PrintJson(args, report);
  return 0;
}
