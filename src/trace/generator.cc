#include "trace/generator.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/distributions.h"
#include "util/logging.h"

namespace sds::trace {
namespace {

/// Hourly arrival weights (rough office-hours diurnal shape).
constexpr double kHourWeights[24] = {
    0.3, 0.2, 0.15, 0.1, 0.1, 0.15, 0.3, 0.6, 1.0, 1.5, 1.8, 1.9,
    1.7, 1.8, 1.9,  1.8, 1.7, 1.5,  1.3, 1.2, 1.1, 0.9, 0.7, 0.5};

/// Samples a Poisson count via inversion (small means) or normal
/// approximation (large means). Deterministic across platforms.
uint64_t SamplePoisson(double mean, Rng* rng) {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    double product = rng->NextDouble();
    uint64_t count = 0;
    while (product > limit) {
      ++count;
      product *= rng->NextDouble();
    }
    return count;
  }
  const double x = mean + std::sqrt(mean) * SampleStandardNormal(rng);
  return x <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(x));
}

/// Per-client LRU browser cache. Only membership and eviction order matter
/// to the generator, and a cache holds at most a few dozen documents, so a
/// flat recency-ordered vector of document ids (front = most recent) beats
/// a map + list: 4 bytes per entry, no node allocations, and the scan of a
/// typical cache reads one cache line. Sizes are not stored: a document's
/// size is immutable, so eviction looks it up in the corpus. With millions
/// of clients the per-entry footprint of this structure is what keeps the
/// generator's resident set flat as simulated days grow.
class BrowserCache {
 public:
  /// One view of `doc` (of `size` bytes) in a single scan: returns true
  /// when the cache absorbs it (cached and not a forced reload) and leaves
  /// `doc` most recent, inserting it (evicting from the back) when it was
  /// missing and fits in `capacity` at all.
  bool Access(DocumentId doc, uint64_t size, bool reload, uint64_t capacity,
              const Corpus& corpus) {
    for (size_t i = 0; i < docs_.size(); ++i) {
      if (docs_[i] == doc) {
        std::rotate(docs_.begin(), docs_.begin() + i, docs_.begin() + i + 1);
        return !reload;
      }
    }
    if (capacity == 0 || size > capacity) return false;
    // Six ids fill the smallest block the allocator hands out anyway, and
    // starting there skips the reallocations of a vector growing from one.
    if (docs_.capacity() == 0) docs_.reserve(6);
    docs_.insert(docs_.begin(), doc);
    used_ += size;
    while (used_ > capacity && !docs_.empty()) {
      // A request carries its size as 32 bits; so does the accounting.
      used_ -= static_cast<uint32_t>(corpus.doc(docs_.back()).size_bytes);
      docs_.pop_back();
    }
    return false;
  }

  void Clear() {
    docs_.clear();
    used_ = 0;
  }

 private:
  uint64_t used_ = 0;
  std::vector<DocumentId> docs_;
};

}  // namespace

struct TraceDayGenerator::Impl {
  Impl(const TraceGeneratorConfig& cfg, LinkGraph* g, Rng* r)
      : config(cfg),
        graph(g),
        rng(r),
        corpus(&g->corpus()),
        num_servers(corpus->num_servers()),
        client_is_remote([&] {
          // Client locality and activity skew. These are the first draws of
          // the batch generator, in the same order.
          std::vector<bool> remote(cfg.num_clients);
          for (uint32_t c = 0; c < cfg.num_clients; ++c) {
            remote[c] = r->NextBernoulli(cfg.remote_client_fraction);
          }
          return remote;
        }()),
        client_sampler([&] {
          // Per-client activity: Zipf-skewed, with local clients browsing
          // more.
          const ZipfDistribution activity_rank(cfg.num_clients,
                                               cfg.client_activity_zipf_s);
          std::vector<double> activity_weights(cfg.num_clients);
          for (uint32_t c = 0; c < cfg.num_clients; ++c) {
            activity_weights[c] =
                activity_rank.Pmf(c) *
                (client_is_remote[c] ? 1.0 : cfg.local_activity_multiplier);
          }
          return DiscreteSampler(activity_weights);
        }()),
        server_sampler([&] {
          std::vector<double> server_weights = cfg.server_weights;
          if (server_weights.empty()) server_weights.assign(num_servers, 1.0);
          SDS_CHECK(server_weights.size() == num_servers)
              << "server_weights size must match corpus servers";
          return DiscreteSampler(server_weights);
        }()),
        hour_sampler([&] {
          std::vector<double> hour_weights(24, 1.0);
          if (cfg.diurnal) {
            hour_weights.assign(std::begin(kHourWeights),
                                std::end(kHourWeights));
          }
          return DiscreteSampler(hour_weights);
        }()),
        think_time(std::log(cfg.think_time_log_median),
                   cfg.think_time_log_sigma),
        remote_continue_prob(
            1.0 - 1.0 / std::max(1.0, cfg.mean_pages_per_session)),
        local_continue_prob(
            1.0 - 1.0 / std::max(1.0, cfg.local_mean_pages_per_session)),
        last_entry(static_cast<size_t>(cfg.num_clients) * num_servers,
                   kInvalidDocument),
        sessions_per_day(cfg.sessions_per_client_per_day * cfg.num_clients) {
    // Browser caches: accesses they absorb never appear in the trace. With
    // the model disabled the caches are pure no-ops, so skip the
    // per-client allocation entirely (it dominates resident memory at
    // millions of clients).
    if (cfg.browser_cache_bytes > 0) browsers.resize(cfg.num_clients);
  }

  // Emits a request unless the client's browser cache absorbs it.
  void Emit(std::vector<Request>* out, ClientId client, bool remote,
            ServerId server, DocumentId doc, SimTime t, RequestKind kind) {
    const uint64_t size = corpus->doc(doc).size_bytes;
    const bool reload = rng->NextBernoulli(config.forced_reload_rate);
    if (config.browser_cache_bytes > 0 &&
        browsers[client].Access(doc, size, reload, config.browser_cache_bytes,
                                *corpus)) {
      return;
    }
    Request r;
    r.time = t;
    r.client = client;
    r.doc = doc;
    r.server = server;
    r.bytes = static_cast<uint32_t>(size);
    r.kind = kind;
    r.remote_client = remote;
    out->push_back(r);
  }

  TraceGeneratorConfig config;
  LinkGraph* graph;
  Rng* rng;
  const Corpus* corpus;
  uint32_t num_servers;
  std::vector<bool> client_is_remote;
  DiscreteSampler client_sampler;
  DiscreteSampler server_sampler;
  DiscreteSampler hour_sampler;
  LognormalDistribution think_time;
  double remote_continue_prob;
  double local_continue_prob;
  // Per-client, per-server last entry page (for revisit behaviour).
  std::vector<DocumentId> last_entry;
  std::vector<BrowserCache> browsers;
  double sessions_per_day;
  uint32_t day = 0;
  std::vector<UpdateEvent> update_events;
  uint64_t sessions = 0;
};

TraceDayGenerator::TraceDayGenerator(const TraceGeneratorConfig& config,
                                     LinkGraph* graph, Rng* rng) {
  SDS_CHECK(graph != nullptr);
  SDS_CHECK(config.num_clients >= 1);
  SDS_CHECK(config.days >= 1);
  impl_ = std::make_unique<Impl>(config, graph, rng);
}

TraceDayGenerator::~TraceDayGenerator() = default;
TraceDayGenerator::TraceDayGenerator(TraceDayGenerator&&) noexcept = default;
TraceDayGenerator& TraceDayGenerator::operator=(TraceDayGenerator&&) noexcept =
    default;

uint32_t TraceDayGenerator::day() const { return impl_->day; }
uint32_t TraceDayGenerator::num_days() const { return impl_->config.days; }
uint32_t TraceDayGenerator::num_clients() const {
  return impl_->config.num_clients;
}
uint32_t TraceDayGenerator::num_servers() const { return impl_->num_servers; }
const std::vector<bool>& TraceDayGenerator::client_is_remote() const {
  return impl_->client_is_remote;
}
const std::vector<UpdateEvent>& TraceDayGenerator::updates() const {
  return impl_->update_events;
}
uint64_t TraceDayGenerator::num_sessions() const { return impl_->sessions; }

bool TraceDayGenerator::NextDay(std::vector<Request>* out) {
  Impl& im = *impl_;
  if (im.day >= im.config.days) return false;
  const uint32_t day = im.day;
  const TraceGeneratorConfig& config = im.config;
  LinkGraph* graph = im.graph;
  Rng* rng = im.rng;
  const Corpus& corpus = *im.corpus;
  const uint32_t num_servers = im.num_servers;

  if (day > 0) graph->AdvanceDay(rng);

  // Document updates for the mutability study.
  for (const auto& d : corpus.docs()) {
    if (rng->NextBernoulli(d.update_probability_per_day)) {
      im.update_events.push_back({day, d.id});
    }
  }

  const uint64_t num_sessions = SamplePoisson(im.sessions_per_day, rng);
  for (uint64_t s = 0; s < num_sessions; ++s) {
    ++im.sessions;
    // Active clients are Zipf-skewed: rank -> client id via a fixed
    // mapping (identity is fine; client ids carry no other meaning).
    const ClientId client = static_cast<ClientId>(im.client_sampler.Sample(rng));
    // The session's first request reads the client's browser cache: start
    // loading it while the rest of the session start is drawn.
    if (!im.browsers.empty()) __builtin_prefetch(&im.browsers[client]);
    const bool remote = im.client_is_remote[client];
    const double continue_prob =
        remote ? im.remote_continue_prob : im.local_continue_prob;
    const ServerId server = static_cast<ServerId>(im.server_sampler.Sample(rng));

    SimTime t = static_cast<double>(day) * kDay +
                static_cast<double>(im.hour_sampler.Sample(rng)) * kHour +
                rng->NextDouble() * kHour;

    // Entry page: revisit or fresh sample.
    DocumentId page = kInvalidDocument;
    const size_t entry_slot = static_cast<size_t>(client) * num_servers + server;
    if (im.last_entry[entry_slot] != kInvalidDocument &&
        rng->NextBernoulli(config.revisit_bias)) {
      page = im.last_entry[entry_slot];
    } else {
      page = graph->SampleEntryPage(server, remote, rng);
    }
    im.last_entry[entry_slot] = page;

    // Browser restarts clear the local cache before the session.
    if (rng->NextBernoulli(config.browser_restart_probability)) {
      if (!im.browsers.empty()) im.browsers[client].Clear();
    }

    // Random walk over the link graph.
    while (page != kInvalidDocument) {
      const RequestKind page_kind = rng->NextBernoulli(config.alias_rate)
                                        ? RequestKind::kAlias
                                        : RequestKind::kDocument;
      im.Emit(out, client, remote, server, page, t, page_kind);

      // Inline objects follow the page almost immediately (those the
      // browser cache does not absorb), unless the view is aborted.
      if (!rng->NextBernoulli(config.abort_rate)) {
        for (DocumentId img : graph->Embedded(page)) {
          im.Emit(out, client, remote, server, img,
                  t + 0.05 + rng->NextDouble() * config.embedded_spread_seconds,
                  RequestKind::kDocument);
        }
      }

      // Log noise (not subject to the browser cache).
      if (rng->NextBernoulli(config.not_found_rate)) {
        Request n;
        n.time = t + rng->NextDouble() * 2.0;
        n.client = client;
        n.doc = kInvalidDocument;
        n.server = server;
        n.bytes = 0;
        n.kind = RequestKind::kNotFound;
        n.remote_client = remote;
        out->push_back(n);
      }
      if (rng->NextBernoulli(config.script_rate)) {
        Request n;
        n.time = t + rng->NextDouble() * 2.0;
        n.client = client;
        n.doc = kInvalidDocument;
        n.server = server;
        n.bytes = 512;
        n.kind = RequestKind::kScript;
        n.remote_client = remote;
        out->push_back(n);
      }

      // Follow links until we land on another page (archive targets are
      // leaf fetches: request them and keep browsing from this page).
      DocumentId next = kInvalidDocument;
      while (true) {
        if (!rng->NextBernoulli(continue_prob)) break;
        next = graph->SampleOutLink(page, rng);
        if (next == kInvalidDocument) break;
        t += std::max(0.5, im.think_time.Sample(rng));
        if (corpus.doc(next).kind == DocumentKind::kPage) break;
        im.Emit(out, client, remote, server, next, t, RequestKind::kDocument);
        next = kInvalidDocument;
      }
      page = next;
    }
  }

  ++im.day;
  return true;
}

GeneratedTrace GenerateTrace(const TraceGeneratorConfig& config,
                             LinkGraph* graph, Rng* rng) {
  TraceDayGenerator generator(config, graph, rng);
  GeneratedTrace out;
  out.trace.num_clients = config.num_clients;
  out.trace.num_servers = generator.num_servers();
  while (generator.NextDay(&out.trace.requests)) {
  }
  out.updates = generator.updates();
  out.client_is_remote = generator.client_is_remote();
  out.num_sessions = generator.num_sessions();
  out.trace.SortByTime();
  return out;
}

}  // namespace sds::trace
