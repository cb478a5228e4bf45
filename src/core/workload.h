#ifndef SDS_CORE_WORKLOAD_H_
#define SDS_CORE_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/topology.h"
#include "trace/corpus.h"
#include "trace/cursor.h"
#include "trace/filter.h"
#include "trace/generator.h"
#include "trace/link_graph.h"
#include "util/rng.h"

namespace sds::core {

/// \brief Everything needed to synthesize one end-to-end workload:
/// documents, link structure, access trace and network topology.
struct WorkloadConfig {
  trace::CorpusConfig corpus;
  trace::LinkGraphConfig links;
  trace::TraceGeneratorConfig tracegen;
  net::TopologyConfig topology;
  uint64_t seed = 42;
  /// Streaming mode: the generated and filtered traces are never
  /// materialised (no per-request storage); consumers pull fresh cursors
  /// from NewRawCursor()/NewCleanCursor() instead, and the trace-derived
  /// metadata (updates, remote flags, session count, clean span, filter
  /// accounting) is collected in one construction drain pass. The request
  /// stream, RNG draw order and topology are bit-identical to batch mode.
  bool streaming = false;
};

/// \brief A synthesized workload. Components live on the heap so that
/// internal cross-references (cursors point at the corpus) survive moves of
/// the Workload itself.
///
/// Runners read the request stream only through the cursor factories and
/// the metadata accessors below, which work in both trace modes; only
/// SpecRuns picks a structure by mode. In streaming mode
/// (WorkloadConfig::streaming) the trace members are never built and
/// generated()/clean() abort; they remain for tests, examples and kernel
/// timings that want the materialised trace itself.
class Workload {
 public:
  const trace::Corpus& corpus() const { return *corpus_; }
  /// Raw generated trace (batch mode only).
  const trace::GeneratedTrace& generated() const;
  /// Preprocessed trace (FilterTrace applied): what analyses consume
  /// (batch mode only).
  const trace::Trace& clean() const;
  const net::Topology& topology() const { return *topology_; }
  const trace::FilterStats& filter_stats() const { return filter_stats_; }

  bool streaming() const { return streaming_; }

  // --- Unified trace metadata, valid in both modes --------------------
  /// Document update events (matches generated().updates).
  const std::vector<trace::UpdateEvent>& updates() const {
    return generated_->updates;
  }
  /// Per-client remote flag (matches generated().client_is_remote).
  const std::vector<bool>& client_is_remote() const {
    return generated_->client_is_remote;
  }
  /// Sessions generated (matches generated().num_sessions).
  uint64_t num_sessions() const { return generated_->num_sessions; }
  /// Time of the last request of the filtered trace (matches
  /// clean().Span()).
  SimTime clean_span() const { return clean_span_; }
  /// Matches clean().num_clients / num_servers.
  uint32_t num_clients() const { return num_clients_; }
  uint32_t num_servers() const { return num_servers_; }

  // --- Cursor factories -----------------------------------------------
  /// Fresh single-pass cursor over the raw generated request stream. In
  /// batch mode this borrows the materialised trace (the workload must
  /// outlive the cursor); in streaming mode it generates on the fly with
  /// the identical RNG draw sequence. Cursors are independent: parallel
  /// sweep workers each create their own.
  std::unique_ptr<trace::RequestCursor> NewRawCursor() const;
  /// Fresh cursor over the filtered (clean) stream: a VectorCursor over the
  /// materialised clean trace in batch mode, a filtering generator cursor
  /// when streaming.
  std::unique_ptr<trace::RequestCursor> NewCleanCursor() const;

 private:
  friend Workload MakeWorkload(const WorkloadConfig& config);
  // Batch speculation runs share one simulator over clean_.
  friend class SpecRuns;

  std::unique_ptr<trace::Corpus> corpus_;
  /// Both modes; its trace stays empty when streaming, so the generator
  /// metadata (updates, remote flags, sessions) is stored here once.
  std::unique_ptr<trace::GeneratedTrace> generated_;
  std::unique_ptr<trace::Trace> clean_;
  std::unique_ptr<net::Topology> topology_;
  trace::FilterStats filter_stats_;

  // Streaming-mode state: the generator parameters plus the captured fork
  // points of the graph and trace RNG streams (so every cursor replays the
  // exact batch draw sequence).
  bool streaming_ = false;
  trace::TraceGeneratorConfig tracegen_;
  trace::LinkGraphConfig links_;
  Rng graph_rng_{0};
  Rng trace_rng_{0};
  // Metadata of the clean trace in both modes (from the materialised trace,
  // or from the construction drain pass when streaming).
  SimTime clean_span_ = 0.0;
  uint32_t num_clients_ = 0;
  uint32_t num_servers_ = 0;
};

/// \brief Generates a workload; bit-for-bit deterministic given the config.
Workload MakeWorkload(const WorkloadConfig& config);

/// \brief Scaled to the paper's trace: ~90 days, ~2000 documents / ~50 MB
/// on one server, ~2000 clients, on the order of 200k accesses and 20k
/// sessions. Benches use this.
WorkloadConfig PaperScaleConfig();

/// \brief Small and fast (14 days, few hundred clients); unit and
/// integration tests use this.
WorkloadConfig SmallConfig();

/// \brief A cluster of `num_servers` home servers with Zipf-skewed request
/// volumes, for the storage-allocation experiments.
WorkloadConfig ClusterConfig(uint32_t num_servers);

}  // namespace sds::core

#endif  // SDS_CORE_WORKLOAD_H_
