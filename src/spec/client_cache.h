#ifndef SDS_SPEC_CLIENT_CACHE_H_
#define SDS_SPEC_CLIENT_CACHE_H_

#include <cstdint>
#include <vector>

#include "trace/document.h"
#include "util/sim_time.h"

namespace sds::spec {

/// \brief Client cache behaviour (§3.2 of the paper).
///
/// The paper emulates caching policies with SessionTimeout: documents stay
/// cached until the session ends (the gap to the next request reaches
/// SessionTimeout). SessionTimeout = 0 models no cache; 60 minutes models an
/// infinite single-session cache; infinity models an infinite multi-session
/// cache. We additionally support a finite capacity with LRU eviction.
struct ClientCacheConfig {
  SimTime session_timeout = kInfiniteTime;
  /// 0 = unbounded.
  uint64_t capacity_bytes = 0;
};

/// \brief Per-client cache with session purging and optional LRU capacity.
///
/// One contiguous entry vector in recency order (back = most recently
/// used), the BrowserCache idiom of the trace generator: a client holds
/// tens to a few hundred documents, so a linear scan from the recent end
/// beats a hash map plus LRU list, costs 16 bytes per entry instead of
/// ~100, and frees with one deallocation. Lookups memoise the last document
/// asked about, so even the const accessors must not be called from two
/// threads at once (each replay owns its clients' caches).
class ClientCache {
 public:
  explicit ClientCache(const ClientCacheConfig& config) : config_(config) {}

  /// Must be called at every request of this client *before* Contains /
  /// Insert: purges the cache if the inter-request gap ended the session.
  void Touch(SimTime now);

  bool Contains(trace::DocumentId doc) const { return Find(doc) != kAbsent; }

  /// True if the entry exists and was delivered speculatively and has not
  /// been requested yet (used to count first-use speculative hits).
  bool IsUnusedSpeculative(trace::DocumentId doc) const {
    const size_t pos = Find(doc);
    return pos != kAbsent && entries_[pos].speculative_unused;
  }

  /// Marks a speculative entry as used by a real request.
  void MarkUsed(trace::DocumentId doc);

  /// Inserts a document (no-op if present; a present speculative entry
  /// requested for real should use MarkUsed). Evicts LRU entries when over
  /// capacity. Documents larger than the capacity are not cached.
  void Insert(trace::DocumentId doc, uint64_t size_bytes, bool speculative);

  uint64_t used_bytes() const { return used_; }
  size_t num_docs() const { return entries_.size(); }

  /// Total bytes of speculative entries purged or evicted without ever
  /// being requested (wasted speculation).
  uint64_t wasted_speculative_bytes() const { return wasted_spec_bytes_; }

  /// Speculative documents that can no longer produce a hit: dropped by a
  /// cacheless client, rejected as larger than capacity, or purged/evicted
  /// before first use. Unlike wasted_speculative_bytes(), this counts the
  /// cacheless-client drops too — the audit ledger needs every pushed
  /// document to land in exactly one bucket.
  uint64_t wasted_speculative_docs() const { return wasted_spec_docs_; }

  /// Speculative documents currently resident and not yet requested.
  uint64_t unused_speculative_docs() const { return unused_spec_docs_; }

 private:
  struct Entry {
    trace::DocumentId doc = trace::kInvalidDocument;
    bool speculative_unused = false;
    uint64_t size = 0;
  };

  static constexpr size_t kAbsent = static_cast<size_t>(-1);

  /// Position of `doc` in entries_, or kAbsent.
  size_t Find(trace::DocumentId doc) const;
  /// Forgets the memoised lookup (every change to entries_ calls it).
  void Forget() { memo_valid_ = false; }
  /// Moves the entry at `pos` to the most recent end.
  void Refresh(size_t pos);
  /// Counts a resident entry that leaves unused as wasted.
  void Discard(const Entry& entry);
  void PurgeAll();
  void EvictIfNeeded();

  ClientCacheConfig config_;
  std::vector<Entry> entries_;
  uint64_t used_ = 0;
  uint64_t wasted_spec_bytes_ = 0;
  uint64_t wasted_spec_docs_ = 0;
  uint64_t unused_spec_docs_ = 0;
  SimTime last_access_ = -kInfiniteTime;
  bool has_last_access_ = false;
  /// The last document looked up and its position: callers ask about a
  /// document and then act on it, so the follow-up call skips its scan.
  mutable bool memo_valid_ = false;
  mutable trace::DocumentId last_doc_ = trace::kInvalidDocument;
  mutable size_t last_pos_ = kAbsent;
};

}  // namespace sds::spec

#endif  // SDS_SPEC_CLIENT_CACHE_H_
