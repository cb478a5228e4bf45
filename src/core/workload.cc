#include "core/workload.h"

#include <cmath>
#include <utility>

#include "util/logging.h"
#include "util/rng.h"

namespace sds::core {

const trace::GeneratedTrace& Workload::generated() const {
  SDS_CHECK(!streaming_) << "generated() is unavailable in streaming mode";
  return *generated_;
}

const trace::Trace& Workload::clean() const {
  SDS_CHECK(!streaming_) << "clean() is unavailable in streaming mode";
  return *clean_;
}

std::unique_ptr<trace::RequestCursor> Workload::NewRawCursor() const {
  if (!streaming_) {
    return std::make_unique<trace::VectorCursor>(&generated_->trace);
  }
  // Each cursor rebuilds the link graph from the captured fork point, so
  // its drift during generation replays identically on every pass.
  auto factory = [corpus = corpus_.get(), links = links_,
                  rng = graph_rng_]() {
    Rng graph_rng = rng;
    return trace::LinkGraph(corpus, links, &graph_rng);
  };
  return std::make_unique<trace::GeneratorCursor>(
      tracegen_, std::move(factory), trace_rng_);
}

std::unique_ptr<trace::RequestCursor> Workload::NewCleanCursor() const {
  if (!streaming_) return std::make_unique<trace::VectorCursor>(clean_.get());
  return std::make_unique<trace::FilteringCursor>(NewRawCursor());
}

Workload MakeWorkload(const WorkloadConfig& config) {
  Rng rng(config.seed);
  Rng corpus_rng = rng.Fork();
  Rng graph_rng = rng.Fork();
  Rng trace_rng = rng.Fork();
  Rng topo_rng = rng.Fork();

  Workload w;
  w.corpus_ = std::make_unique<trace::Corpus>(
      GenerateCorpus(config.corpus, &corpus_rng));

  if (config.streaming) {
    w.streaming_ = true;
    w.tracegen_ = config.tracegen;
    w.links_ = config.links;
    w.graph_rng_ = graph_rng;
    w.trace_rng_ = trace_rng;
    // One construction drain pass: generate the stream once (never
    // materialising it) to collect the update events, remote flags,
    // session count, clean span and the FilterTrace accounting.
    auto raw = w.NewRawCursor();
    auto* gen = static_cast<trace::GeneratorCursor*>(raw.get());
    trace::ForEachRequest(raw.get(), [&](trace::Request r) {
      if (trace::CleanRequest(&r, &w.filter_stats_)) w.clean_span_ = r.time;
    });
    // The generated metadata without the trace itself.
    w.generated_ = std::make_unique<trace::GeneratedTrace>();
    w.generated_->updates = gen->updates();
    w.generated_->client_is_remote = gen->client_is_remote();
    w.generated_->num_sessions = gen->num_sessions();
    w.num_clients_ = gen->num_clients();
    w.num_servers_ = gen->num_servers();
  } else {
    trace::LinkGraph graph(w.corpus_.get(), config.links, &graph_rng);
    w.generated_ = std::make_unique<trace::GeneratedTrace>(
        GenerateTrace(config.tracegen, &graph, &trace_rng));
    w.clean_ = std::make_unique<trace::Trace>(
        FilterTrace(w.generated_->trace, &w.filter_stats_));
    w.clean_span_ = w.clean_->Span();
    w.num_clients_ = w.clean_->num_clients;
    w.num_servers_ = w.clean_->num_servers;
  }
  w.topology_ = std::make_unique<net::Topology>(net::Topology::Generate(
      config.topology, config.tracegen.num_clients, w.client_is_remote(),
      config.corpus.num_servers, &topo_rng));
  return w;
}

WorkloadConfig PaperScaleConfig() {
  WorkloadConfig config;
  // Corpus defaults already model cs-www.bu.edu (~2000 docs, ~50 MB).
  config.tracegen.num_clients = 2000;
  config.tracegen.days = 90;
  config.tracegen.sessions_per_client_per_day = 0.111;
  config.seed = 20260705;
  return config;
}

WorkloadConfig SmallConfig() {
  WorkloadConfig config;
  config.corpus.pages_per_server = 120;
  config.corpus.images_per_server = 200;
  config.corpus.archives_per_server = 12;
  config.tracegen.num_clients = 300;
  config.tracegen.days = 14;
  config.tracegen.sessions_per_client_per_day = 0.5;
  config.topology.regions = 5;
  config.topology.orgs_per_region = 4;
  config.topology.subnets_per_org = 3;
  config.seed = 1234;
  return config;
}

WorkloadConfig ClusterConfig(uint32_t num_servers) {
  WorkloadConfig config;
  config.corpus.num_servers = num_servers;
  config.corpus.pages_per_server = 150;
  config.corpus.images_per_server = 250;
  config.corpus.archives_per_server = 15;
  config.tracegen.num_clients = 800;
  config.tracegen.days = 30;
  config.tracegen.sessions_per_client_per_day = 0.4;
  // Zipf-skewed per-server request volume: R_i spans about an order of
  // magnitude across the cluster.
  config.tracegen.server_weights.resize(num_servers);
  for (uint32_t s = 0; s < num_servers; ++s) {
    config.tracegen.server_weights[s] =
        1.0 / std::pow(static_cast<double>(s + 1), 0.8);
  }
  config.seed = 777;
  return config;
}

}  // namespace sds::core
