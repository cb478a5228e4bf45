#ifndef SDS_TRACE_LINK_GRAPH_H_
#define SDS_TRACE_LINK_GRAPH_H_

#include <cstdint>
#include <vector>

#include "trace/corpus.h"
#include "trace/document.h"
#include "util/distributions.h"
#include "util/rng.h"

namespace sds::trace {

/// \brief Parameters of the synthetic hyperlink structure.
struct LinkGraphConfig {
  /// Mean number of inline objects per page (geometric, may be 0). Inline
  /// objects create the paper's *embedding dependencies* (p[i,j] = 1).
  double mean_embedded_per_page = 0.9;
  /// Mean number of hyperlinks per page (geometric, >= 1). Users pick links
  /// uniformly, which creates *traversal dependencies* peaked at 1/k —
  /// exactly the structure of the paper's Figure 4.
  double mean_outlinks_per_page = 6.0;
  uint32_t max_outlinks = 24;
  /// Probability that a link target is chosen preferentially by in-degree
  /// (rich-get-richer) rather than uniformly; induces popularity skew.
  double preferential_bias = 0.65;
  /// Probability that an outlink points at an archive instead of a page.
  double archive_link_fraction = 0.04;
  /// Number of designated site-wide icons per server (logos, bullets,
  /// rules) and the probability that an embedded slot uses one of them.
  /// These few images end up on most pages and dominate the request
  /// counts, concentrating popularity the way Figure 1 shows.
  uint32_t site_icons = 3;
  double site_icon_fraction = 0.55;
  /// Zipf exponent of entry-page popularity.
  double entry_zipf_s = 1.6;
  /// Probability that a *remote* session enters at the server's home page
  /// (mid-90s browsing overwhelmingly started at the site root, which is
  /// why the paper's single most popular 256 KB block carries ~69% of
  /// requests). Local users jump straight to their own pages instead.
  double home_page_bias = 0.6;
  double local_home_page_bias = 0.15;
  /// Probability that a link prefers a target of the same audience class
  /// as its source page (site structure homophily: internal course pages
  /// link to internal pages, public project pages to public ones). This
  /// shapes the static graph only — users still pick among a page's links
  /// uniformly, preserving the 1/k peaks of Figure 4.
  double audience_homophily = 0.85;
  /// Per-day probability that a page has one outlink rewired, and that a
  /// page has one inline object replaced. Drives the slow drift of the
  /// dependency relations studied in Section 3.4.
  double daily_rewire_fraction = 0.012;
  /// Per-day number of entry-weight swaps per server (popularity drift).
  uint32_t daily_entry_swaps = 2;
};

/// \brief Hyperlink structure over a corpus: per page a set of inline
/// (embedded) objects and a set of traversal links; per server an entry-page
/// popularity profile split by client locality.
///
/// Links never cross servers (each home server's site is self-contained,
/// matching the per-server dependency matrices of the paper).
class LinkGraph {
 public:
  /// Builds the graph; `corpus` must outlive the graph.
  LinkGraph(const Corpus* corpus, const LinkGraphConfig& config, Rng* rng);

  LinkGraph(const LinkGraph&) = delete;
  LinkGraph& operator=(const LinkGraph&) = delete;
  LinkGraph(LinkGraph&&) = default;
  LinkGraph& operator=(LinkGraph&&) = default;

  const Corpus& corpus() const { return *corpus_; }

  /// Inline objects of a page (empty for non-pages).
  const std::vector<DocumentId>& Embedded(DocumentId page) const {
    return embedded_[page];
  }

  /// Traversal links of a page (pages or archives on the same server).
  const std::vector<DocumentId>& OutLinks(DocumentId page) const {
    return outlinks_[page];
  }

  /// Samples a session entry page on `server` for a remote or local client.
  /// Entry popularity is Zipf with an audience-class multiplier, so that
  /// remote-oriented documents end up with a high remote-to-local access
  /// ratio (the paper's classification experiment).
  DocumentId SampleEntryPage(ServerId server, bool remote_client,
                             Rng* rng) const;

  /// Samples the next traversal link from `page` uniformly; returns
  /// kInvalidDocument if the page has no links.
  DocumentId SampleOutLink(DocumentId page, Rng* rng) const;

  /// Applies one day of drift: rewires a few links and swaps a few entry
  /// weights. Deterministic given the rng.
  void AdvanceDay(Rng* rng);

  /// Total number of traversal links in the graph.
  size_t TotalOutLinks() const;
  /// Total number of embedding edges in the graph.
  size_t TotalEmbedded() const;

 private:
  DocumentId SampleLinkTarget(ServerId server, AudienceClass source_audience,
                              Rng* rng);
  DocumentId SampleEmbeddedTarget(ServerId server, Rng* rng);
  /// Entry sampler of `server` for one client locality, from the current
  /// base weights.
  DiscreteSampler EntrySampler(ServerId server, bool remote_client) const;

  const Corpus* corpus_;
  LinkGraphConfig config_;
  std::vector<std::vector<DocumentId>> embedded_;
  std::vector<std::vector<DocumentId>> outlinks_;
  std::vector<uint32_t> in_degree_;
  /// Per server: page/image/archive ids, base Zipf entry weight per page.
  std::vector<std::vector<DocumentId>> server_pages_;
  std::vector<std::vector<DocumentId>> server_images_;
  std::vector<std::vector<DocumentId>> server_archives_;
  std::vector<std::vector<double>> entry_base_weight_;
  std::vector<DocumentId> home_page_;  ///< Per-server session entry root.
  /// Entry samplers indexed [server * 2 + (remote ? 1 : 0)].
  std::vector<DiscreteSampler> entry_samplers_;
};

}  // namespace sds::trace

#endif  // SDS_TRACE_LINK_GRAPH_H_
