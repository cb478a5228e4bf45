#include "dissem/popularity.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/sim_time.h"

namespace sds::dissem {

double ServerPopularity::EmpiricalH(double bytes,
                                    const trace::Corpus& corpus) const {
  if (total_remote_requests == 0 || bytes <= 0.0) return 0.0;
  double covered_bytes = 0.0;
  double covered_requests = 0.0;
  for (const trace::DocumentId id : by_popularity) {
    const double size = static_cast<double>(corpus.doc(id).size_bytes);
    const double reqs = static_cast<double>(stats[id].remote_requests);
    if (covered_bytes + size <= bytes) {
      covered_bytes += size;
      covered_requests += reqs;
    } else {
      // Partial block: request coverage is proportional to the disseminated
      // prefix (the paper's block model slices documents into 256 KB
      // blocks; linear interpolation matches that granularity).
      covered_requests += reqs * (bytes - covered_bytes) / size;
      break;
    }
  }
  return covered_requests / static_cast<double>(total_remote_requests);
}

double ServerPopularity::EmpiricalByteCoverage(
    double bytes, const trace::Corpus& corpus) const {
  if (total_remote_bytes == 0 || bytes <= 0.0) return 0.0;
  double covered_bytes = 0.0;
  double covered_traffic = 0.0;
  for (const trace::DocumentId id : by_popularity) {
    const double size = static_cast<double>(corpus.doc(id).size_bytes);
    const double traffic = static_cast<double>(stats[id].remote_bytes);
    if (covered_bytes + size <= bytes) {
      covered_bytes += size;
      covered_traffic += traffic;
    } else {
      covered_traffic += traffic * (bytes - covered_bytes) / size;
      break;
    }
  }
  return covered_traffic / static_cast<double>(total_remote_bytes);
}

ServerPopularityBuilder::ServerPopularityBuilder(const trace::Corpus& corpus,
                                                 trace::ServerId server,
                                                 double t_begin, double t_end)
    : corpus_(&corpus), t_begin_(t_begin), t_end_(t_end) {
  pop_.server = server;
  pop_.stats.assign(corpus.size(), DocumentAccessStats{});
}

void ServerPopularityBuilder::OnRequest(const trace::Request& r) {
  if (r.time < t_begin_ || r.time >= t_end_) return;
  if (r.kind == trace::RequestKind::kNotFound ||
      r.kind == trace::RequestKind::kScript) {
    return;
  }
  if (r.server != pop_.server) return;
  auto& s = pop_.stats[r.doc];
  if (r.remote_client) {
    s.remote_requests += 1;
    s.remote_bytes += r.bytes;
    pop_.total_remote_requests += 1;
    pop_.total_remote_bytes += r.bytes;
  } else {
    s.local_requests += 1;
    s.local_bytes += r.bytes;
  }
  last_time_ = std::max(last_time_, r.time);
  first_time_ = std::min(first_time_, r.time);
}

ServerPopularity ServerPopularityBuilder::Finish() {
  const trace::Corpus& corpus = *corpus_;
  ServerPopularity pop = std::move(pop_);
  const double span_days =
      first_time_ > last_time_
          ? 1.0
          : std::max(1.0, (last_time_ - first_time_) / kDay);
  pop.remote_bytes_per_day =
      static_cast<double>(pop.total_remote_bytes) / span_days;

  pop.by_popularity = corpus.server_docs(pop.server);
  for (const trace::DocumentId id : pop.by_popularity) {
    if (pop.stats[id].total_requests() > 0) ++pop.accessed_docs;
  }
  std::sort(pop.by_popularity.begin(), pop.by_popularity.end(),
            [&](trace::DocumentId a, trace::DocumentId b) {
              const double da =
                  static_cast<double>(pop.stats[a].remote_requests) /
                  static_cast<double>(corpus.doc(a).size_bytes);
              const double db =
                  static_cast<double>(pop.stats[b].remote_requests) /
                  static_cast<double>(corpus.doc(b).size_bytes);
              if (da != db) return da > db;
              return a < b;
            });
  return pop;
}

ServerPopularity AnalyzeServer(const trace::Corpus& corpus,
                               trace::RequestCursor* cursor,
                               trace::ServerId server, double t_begin,
                               double t_end) {
  ServerPopularityBuilder builder(corpus, server, t_begin, t_end);
  trace::ForEachRequest(
      cursor, [&](const trace::Request& r) { builder.OnRequest(r); });
  return builder.Finish();
}

ServerPopularity AnalyzeServer(const trace::Corpus& corpus,
                               const trace::Trace& trace,
                               trace::ServerId server, double t_begin,
                               double t_end) {
  trace::VectorCursor cursor(&trace);
  return AnalyzeServer(corpus, &cursor, server, t_begin, t_end);
}

std::vector<ServerPopularity> AnalyzeAllServers(const trace::Corpus& corpus,
                                                trace::RequestCursor* cursor,
                                                double t_begin, double t_end) {
  std::vector<ServerPopularityBuilder> builders;
  builders.reserve(corpus.num_servers());
  for (trace::ServerId s = 0; s < corpus.num_servers(); ++s) {
    builders.emplace_back(corpus, s, t_begin, t_end);
  }
  // A builder ignores other servers' requests, so each request goes to
  // its own server's builder only.
  trace::ForEachRequest(cursor, [&](const trace::Request& r) {
    if (r.server < builders.size()) builders[r.server].OnRequest(r);
  });
  std::vector<ServerPopularity> result;
  result.reserve(builders.size());
  for (auto& builder : builders) result.push_back(builder.Finish());
  return result;
}

std::vector<ServerPopularity> AnalyzeAllServers(const trace::Corpus& corpus,
                                                const trace::Trace& trace,
                                                double t_begin, double t_end) {
  trace::VectorCursor cursor(&trace);
  return AnalyzeAllServers(corpus, &cursor, t_begin, t_end);
}

BlockPopularity ComputeBlockPopularity(const ServerPopularity& pop,
                                       const trace::Corpus& corpus,
                                       uint64_t block_size) {
  SDS_CHECK(block_size > 0);
  BlockPopularity blocks;
  blocks.block_size = block_size;
  if (pop.total_remote_requests == 0) return blocks;

  double block_requests = 0.0;
  double block_traffic = 0.0;
  uint64_t block_fill = 0;
  auto flush = [&]() {
    blocks.request_fraction.push_back(
        block_requests / static_cast<double>(pop.total_remote_requests));
    blocks.cumulative_bytes.push_back(block_traffic);
    block_requests = 0.0;
    block_traffic = 0.0;
    block_fill = 0;
  };
  for (const trace::DocumentId id : pop.by_popularity) {
    uint64_t remaining = corpus.doc(id).size_bytes;
    const double reqs = static_cast<double>(pop.stats[id].remote_requests);
    const double traffic = static_cast<double>(pop.stats[id].remote_bytes);
    const double size = static_cast<double>(remaining);
    while (remaining > 0) {
      const uint64_t take = std::min(remaining, block_size - block_fill);
      block_requests += reqs * static_cast<double>(take) / size;
      block_traffic += traffic * static_cast<double>(take) / size;
      block_fill += take;
      remaining -= take;
      if (block_fill == block_size) flush();
    }
  }
  if (block_fill > 0) flush();

  // The per-block fractions are non-increasing by construction; compute
  // cumulative curves.
  double cum_req = 0.0;
  for (double f : blocks.request_fraction) {
    cum_req += f;
    blocks.cumulative_requests.push_back(cum_req);
  }
  double cum_traffic = 0.0;
  const double total_traffic =
      static_cast<double>(pop.total_remote_bytes == 0
                              ? 1
                              : pop.total_remote_bytes);
  for (size_t i = 0; i < blocks.cumulative_bytes.size(); ++i) {
    cum_traffic += blocks.cumulative_bytes[i];
    blocks.cumulative_bytes[i] = cum_traffic / total_traffic;
  }
  return blocks;
}

}  // namespace sds::dissem
