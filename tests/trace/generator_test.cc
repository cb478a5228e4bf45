#include "trace/generator.h"

#include <map>
#include <vector>
#include <gtest/gtest.h>

#include "trace/corpus.h"
#include "trace/link_graph.h"
#include "util/rng.h"

namespace sds::trace {
namespace {

struct Fixture {
  explicit Fixture(uint64_t seed = 42, uint32_t days = 7,
                   uint32_t clients = 100) {
    CorpusConfig cconfig;
    cconfig.pages_per_server = 60;
    cconfig.images_per_server = 90;
    cconfig.archives_per_server = 6;
    Rng rng(seed);
    corpus = GenerateCorpus(cconfig, &rng);
    graph = std::make_unique<LinkGraph>(&corpus, LinkGraphConfig{}, &rng);
    config.num_clients = clients;
    config.days = days;
    config.sessions_per_client_per_day = 0.8;
    generated = GenerateTrace(config, graph.get(), &rng);
  }

  Corpus corpus;
  std::unique_ptr<LinkGraph> graph;
  TraceGeneratorConfig config;
  GeneratedTrace generated;
};

TEST(GeneratorTest, ProducesRequests) {
  const Fixture f;
  EXPECT_GT(f.generated.trace.size(), 1000u);
  EXPECT_GT(f.generated.num_sessions, 100u);
}

TEST(GeneratorTest, RequestsSortedByTime) {
  const Fixture f;
  const auto& reqs = f.generated.trace.requests;
  for (size_t i = 1; i < reqs.size(); ++i) {
    EXPECT_LE(reqs[i - 1].time, reqs[i].time);
  }
}

TEST(GeneratorTest, TimesWithinHorizon) {
  const Fixture f;
  for (const auto& r : f.generated.trace.requests) {
    EXPECT_GE(r.time, 0.0);
    EXPECT_LT(r.time, (f.config.days + 1) * kDay);
  }
}

TEST(GeneratorTest, DocumentRequestsReferenceCorpus) {
  const Fixture f;
  for (const auto& r : f.generated.trace.requests) {
    if (r.kind == RequestKind::kDocument || r.kind == RequestKind::kAlias) {
      ASSERT_LT(r.doc, f.corpus.size());
      EXPECT_EQ(r.bytes, f.corpus.doc(r.doc).size_bytes);
      EXPECT_EQ(r.server, f.corpus.doc(r.doc).server);
    } else {
      EXPECT_EQ(r.doc, kInvalidDocument);
    }
  }
}

TEST(GeneratorTest, ClientLocalityConsistent) {
  const Fixture f;
  for (const auto& r : f.generated.trace.requests) {
    EXPECT_EQ(r.remote_client, f.generated.client_is_remote[r.client]);
  }
}

TEST(GeneratorTest, Deterministic) {
  const Fixture a(7), b(7);
  ASSERT_EQ(a.generated.trace.size(), b.generated.trace.size());
  for (size_t i = 0; i < a.generated.trace.size(); ++i) {
    EXPECT_EQ(a.generated.trace.requests[i].doc,
              b.generated.trace.requests[i].doc);
    EXPECT_EQ(a.generated.trace.requests[i].time,
              b.generated.trace.requests[i].time);
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  const Fixture a(1), b(2);
  EXPECT_NE(a.generated.trace.size(), b.generated.trace.size());
}

TEST(GeneratorTest, ContainsNoise) {
  const Fixture f;
  size_t not_found = 0, scripts = 0, aliases = 0;
  for (const auto& r : f.generated.trace.requests) {
    if (r.kind == RequestKind::kNotFound) ++not_found;
    if (r.kind == RequestKind::kScript) ++scripts;
    if (r.kind == RequestKind::kAlias) ++aliases;
  }
  EXPECT_GT(not_found, 0u);
  EXPECT_GT(scripts, 0u);
  EXPECT_GT(aliases, 0u);
}

TEST(GeneratorTest, UpdatesRecordedWithinHorizon) {
  const Fixture f;
  EXPECT_GT(f.generated.updates.size(), 0u);
  for (const auto& u : f.generated.updates) {
    EXPECT_LT(u.day, f.config.days);
    EXPECT_LT(u.doc, f.corpus.size());
  }
}

TEST(GeneratorTest, BrowserCacheSuppressesRepeats) {
  // With an infinite browser cache and no restarts, each client requests a
  // document at most once (plus rare forced reloads).
  CorpusConfig cconfig;
  cconfig.pages_per_server = 40;
  cconfig.images_per_server = 60;
  cconfig.archives_per_server = 4;
  Rng rng(3);
  const Corpus corpus = GenerateCorpus(cconfig, &rng);
  LinkGraph graph(&corpus, LinkGraphConfig{}, &rng);
  TraceGeneratorConfig config;
  config.num_clients = 50;
  config.days = 10;
  config.sessions_per_client_per_day = 1.0;
  config.browser_cache_bytes = 1ull << 40;
  config.browser_restart_probability = 0.0;
  config.forced_reload_rate = 0.0;
  const GeneratedTrace generated = GenerateTrace(config, &graph, &rng);

  std::map<std::pair<ClientId, DocumentId>, int> seen;
  for (const auto& r : generated.trace.requests) {
    if (r.kind == RequestKind::kDocument || r.kind == RequestKind::kAlias) {
      const auto key = std::make_pair(r.client, r.doc);
      EXPECT_EQ(++seen[key], 1)
          << "client " << r.client << " refetched doc " << r.doc;
    }
  }
}

TEST(GeneratorTest, NoBrowserCacheYieldsRepeats) {
  CorpusConfig cconfig;
  cconfig.pages_per_server = 20;
  cconfig.images_per_server = 30;
  cconfig.archives_per_server = 2;
  Rng rng(4);
  const Corpus corpus = GenerateCorpus(cconfig, &rng);
  LinkGraph graph(&corpus, LinkGraphConfig{}, &rng);
  TraceGeneratorConfig config;
  config.num_clients = 20;
  config.days = 10;
  config.sessions_per_client_per_day = 2.0;
  config.browser_cache_bytes = 0;
  const GeneratedTrace generated = GenerateTrace(config, &graph, &rng);

  std::map<std::pair<ClientId, DocumentId>, int> seen;
  int max_count = 0;
  for (const auto& r : generated.trace.requests) {
    if (r.kind == RequestKind::kDocument) {
      const auto key = std::make_pair(r.client, r.doc);
      max_count = std::max(max_count, ++seen[key]);
    }
  }
  EXPECT_GT(max_count, 1);
}

TEST(GeneratorTest, MultiServerWeightsSkewVolume) {
  CorpusConfig cconfig;
  cconfig.num_servers = 3;
  cconfig.pages_per_server = 30;
  cconfig.images_per_server = 40;
  cconfig.archives_per_server = 3;
  Rng rng(5);
  const Corpus corpus = GenerateCorpus(cconfig, &rng);
  LinkGraph graph(&corpus, LinkGraphConfig{}, &rng);
  TraceGeneratorConfig config;
  config.num_clients = 200;
  config.days = 10;
  config.sessions_per_client_per_day = 0.5;
  config.server_weights = {8.0, 1.0, 1.0};
  const GeneratedTrace generated = GenerateTrace(config, &graph, &rng);

  std::vector<size_t> per_server(3, 0);
  for (const auto& r : generated.trace.requests) ++per_server[r.server];
  EXPECT_GT(per_server[0], 3 * per_server[1]);
  EXPECT_GT(per_server[0], 3 * per_server[2]);
}

TEST(GeneratorTest, DiurnalConcentratesDaytime) {
  const Fixture f;
  size_t day_hours = 0, night_hours = 0;
  for (const auto& r : f.generated.trace.requests) {
    const double hour = TimeOfDay(r.time) / kHour;
    if (hour >= 9.0 && hour < 21.0) {
      ++day_hours;
    } else {
      ++night_hours;
    }
  }
  EXPECT_GT(day_hours, 2 * night_hours);
}

TEST(GeneratorTest, StridesExistWithinSessions) {
  const Fixture f;
  // With think times of a few seconds, a 5-second stride timeout must
  // produce strides spanning multiple requests.
  const Trace& trace = f.generated.trace;
  std::vector<SimTime> last(trace.num_clients, -kInfiniteTime);
  std::vector<uint32_t> run(trace.num_clients, 0);
  size_t multi = 0;
  for (const Request& r : trace.requests) {
    if (r.time - last[r.client] < 5.0) {
      if (++run[r.client] == 2) ++multi;
    } else {
      run[r.client] = 1;
    }
    last[r.client] = r.time;
  }
  EXPECT_GT(multi, 50u);
}

}  // namespace
}  // namespace sds::trace
