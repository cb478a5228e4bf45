#include "trace/link_graph.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace sds::trace {
namespace {

/// Audience-class multiplier applied to the entry weight of a page for a
/// given client locality. Chosen so that remote-class pages see > 85% remote
/// accesses and local-class pages < 15% when remote and local session
/// volumes are comparable (the thresholds of Section 2).
double AudienceMultiplier(AudienceClass audience, bool remote_client) {
  if (remote_client) {
    switch (audience) {
      case AudienceClass::kRemote:
        return 6.0;
      case AudienceClass::kGlobal:
        return 2.0;
      case AudienceClass::kLocal:
        return 0.1;
    }
  } else {
    switch (audience) {
      case AudienceClass::kRemote:
        return 0.06;
      case AudienceClass::kGlobal:
        return 1.0;
      case AudienceClass::kLocal:
        return 4.0;
    }
  }
  return 1.0;
}

}  // namespace

LinkGraph::LinkGraph(const Corpus* corpus, const LinkGraphConfig& config,
                     Rng* rng)
    : corpus_(corpus), config_(config) {
  const size_t n = corpus_->size();
  embedded_.resize(n);
  outlinks_.resize(n);
  in_degree_.assign(n, 0);

  const uint32_t num_servers = corpus_->num_servers();
  server_pages_.resize(num_servers);
  server_images_.resize(num_servers);
  server_archives_.resize(num_servers);
  for (const auto& d : corpus_->docs()) {
    if (d.kind == DocumentKind::kPage) {
      server_pages_[d.server].push_back(d.id);
    } else if (d.kind == DocumentKind::kImage) {
      server_images_[d.server].push_back(d.id);
    } else {
      server_archives_[d.server].push_back(d.id);
    }
  }

  // Base entry weights: Zipf over a random permutation of the server's
  // pages, so entry popularity is independent of document id.
  entry_base_weight_.resize(num_servers);
  for (ServerId s = 0; s < num_servers; ++s) {
    auto& pages = server_pages_[s];
    SDS_CHECK(!pages.empty()) << "server " << s << " has no pages";
    std::vector<uint32_t> ranks(pages.size());
    for (uint32_t i = 0; i < ranks.size(); ++i) ranks[i] = i;
    for (size_t i = ranks.size(); i > 1; --i) {
      std::swap(ranks[i - 1], ranks[rng->NextBounded(i)]);
    }
    entry_base_weight_[s].resize(pages.size());
    size_t top = 0;
    for (size_t i = 0; i < pages.size(); ++i) {
      entry_base_weight_[s][i] =
          std::pow(static_cast<double>(ranks[i] + 1), -config_.entry_zipf_s);
      if (ranks[i] == 0) top = i;
    }
    home_page_.push_back(pages[top]);
  }

  // Wire embedding and traversal edges.
  const GeometricDistribution outdegree(
      1.0 / std::max(1.0, config_.mean_outlinks_per_page));
  for (ServerId s = 0; s < num_servers; ++s) {
    for (DocumentId page : server_pages_[s]) {
      // Inline objects: geometric with mean mean_embedded_per_page,
      // allowing zero (pure-text pages).
      const double p_more =
          config_.mean_embedded_per_page /
          (1.0 + config_.mean_embedded_per_page);
      while (rng->NextBernoulli(p_more)) {
        const DocumentId img = SampleEmbeddedTarget(s, rng);
        if (img == kInvalidDocument) break;
        embedded_[page].push_back(img);
        ++in_degree_[img];
        if (embedded_[page].size() >= 12) break;
      }
      // Traversal links.
      uint64_t degree = outdegree.Sample(rng);
      degree = std::min<uint64_t>(degree, config_.max_outlinks);
      for (uint64_t k = 0; k < degree; ++k) {
        const DocumentId target =
            SampleLinkTarget(s, corpus_->doc(page).audience, rng);
        if (target == kInvalidDocument || target == page) continue;
        outlinks_[page].push_back(target);
        ++in_degree_[target];
      }
    }
  }
  entry_samplers_.reserve(static_cast<size_t>(num_servers) * 2);
  for (ServerId s = 0; s < num_servers; ++s) {
    entry_samplers_.push_back(EntrySampler(s, false));
    entry_samplers_.push_back(EntrySampler(s, true));
  }
}

DocumentId LinkGraph::SampleLinkTarget(ServerId server,
                                       AudienceClass source_audience,
                                       Rng* rng) {
  // Download links (papers, software) hang off the public part of the
  // site; internal pages rarely link to them.
  const double archive_fraction =
      source_audience == AudienceClass::kLocal
          ? 0.2 * config_.archive_link_fraction
          : config_.archive_link_fraction;
  const auto& archives = server_archives_[server];
  if (!archives.empty() && rng->NextBernoulli(archive_fraction)) {
    return archives[rng->NextBounded(archives.size())];
  }
  const auto& pages = server_pages_[server];
  if (pages.empty()) return kInvalidDocument;
  auto pick = [&]() {
    if (rng->NextBernoulli(config_.preferential_bias)) {
      // Preferential attachment by in-degree: tournament selection
      // approximates degree-proportional sampling cheaply.
      DocumentId best = pages[rng->NextBounded(pages.size())];
      for (int t = 0; t < 2; ++t) {
        const DocumentId other = pages[rng->NextBounded(pages.size())];
        if (in_degree_[other] > in_degree_[best]) best = other;
      }
      return best;
    }
    return pages[rng->NextBounded(pages.size())];
  };
  // Homophily: retry a few times for a target in the source's audience
  // class; accept the last candidate regardless so link counts stay exact.
  DocumentId candidate = pick();
  if (rng->NextBernoulli(config_.audience_homophily)) {
    for (int t = 0;
         t < 4 && corpus_->doc(candidate).audience != source_audience; ++t) {
      candidate = pick();
    }
  }
  return candidate;
}

DocumentId LinkGraph::SampleEmbeddedTarget(ServerId server, Rng* rng) {
  // Inline objects of this server; icons shared by many pages emerge from
  // the same tournament-style preferential selection.
  const auto& images = server_images_[server];
  if (images.empty()) return kInvalidDocument;
  const uint32_t icons =
      std::min<uint32_t>(config_.site_icons,
                         static_cast<uint32_t>(images.size()));
  if (icons > 0 && rng->NextBernoulli(config_.site_icon_fraction)) {
    return images[rng->NextBounded(icons)];
  }
  if (rng->NextBernoulli(config_.preferential_bias)) {
    DocumentId best = images[rng->NextBounded(images.size())];
    for (int t = 0; t < 2; ++t) {
      const DocumentId other = images[rng->NextBounded(images.size())];
      if (in_degree_[other] > in_degree_[best]) best = other;
    }
    return best;
  }
  return images[rng->NextBounded(images.size())];
}

DiscreteSampler LinkGraph::EntrySampler(ServerId server,
                                        bool remote_client) const {
  const auto& pages = server_pages_[server];
  std::vector<double> weights(pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    weights[i] =
        entry_base_weight_[server][i] *
        AudienceMultiplier(corpus_->doc(pages[i]).audience, remote_client);
  }
  return DiscreteSampler(weights);
}

DocumentId LinkGraph::SampleEntryPage(ServerId server, bool remote_client,
                                      Rng* rng) const {
  const double bias = remote_client ? config_.home_page_bias
                                    : config_.local_home_page_bias;
  if (rng->NextBernoulli(bias)) return home_page_[server];
  const auto& sampler = entry_samplers_[server * 2 + (remote_client ? 1 : 0)];
  return server_pages_[server][sampler.Sample(rng)];
}

DocumentId LinkGraph::SampleOutLink(DocumentId page, Rng* rng) const {
  const auto& links = outlinks_[page];
  if (links.empty()) return kInvalidDocument;
  return links[rng->NextBounded(links.size())];
}

void LinkGraph::AdvanceDay(Rng* rng) {
  for (ServerId s = 0; s < corpus_->num_servers(); ++s) {
    for (DocumentId page : server_pages_[s]) {
      if (rng->NextBernoulli(config_.daily_rewire_fraction) &&
          !outlinks_[page].empty()) {
        const size_t slot = rng->NextBounded(outlinks_[page].size());
        const DocumentId target =
            SampleLinkTarget(s, corpus_->doc(page).audience, rng);
        if (target != kInvalidDocument && target != page) {
          --in_degree_[outlinks_[page][slot]];
          outlinks_[page][slot] = target;
          ++in_degree_[target];
        }
      }
      if (rng->NextBernoulli(config_.daily_rewire_fraction) &&
          !embedded_[page].empty()) {
        const size_t slot = rng->NextBounded(embedded_[page].size());
        const DocumentId target = SampleEmbeddedTarget(s, rng);
        if (target != kInvalidDocument) {
          --in_degree_[embedded_[page][slot]];
          embedded_[page][slot] = target;
          ++in_degree_[target];
        }
      }
    }
    // Popularity drift: swap the base entry weights of random page pairs.
    // Only a server whose weights moved needs new samplers.
    bool entry_changed = false;
    for (uint32_t k = 0; k < config_.daily_entry_swaps; ++k) {
      auto& weights = entry_base_weight_[s];
      if (weights.size() < 2) break;
      const size_t a = rng->NextBounded(weights.size());
      const size_t b = rng->NextBounded(weights.size());
      if (a != b) {
        std::swap(weights[a], weights[b]);
        entry_changed = true;
      }
    }
    if (entry_changed) {
      entry_samplers_[s * 2] = EntrySampler(s, false);
      entry_samplers_[s * 2 + 1] = EntrySampler(s, true);
    }
  }
}

size_t LinkGraph::TotalOutLinks() const {
  size_t total = 0;
  for (const auto& links : outlinks_) total += links.size();
  return total;
}

size_t LinkGraph::TotalEmbedded() const {
  size_t total = 0;
  for (const auto& objs : embedded_) total += objs.size();
  return total;
}

}  // namespace sds::trace
