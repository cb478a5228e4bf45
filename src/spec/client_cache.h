#ifndef SDS_SPEC_CLIENT_CACHE_H_
#define SDS_SPEC_CLIENT_CACHE_H_

#include <cstdint>
#include <vector>

#include "trace/corpus.h"
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

/// \brief Byte size of every document, indexed by id: sizes never change,
/// so one table serves every cache of a replay.
using DocumentSizes = std::vector<uint64_t>;

/// The size table of `corpus`.
DocumentSizes DocumentSizesOf(const trace::Corpus& corpus);

/// \brief Per-client cache with session purging and optional LRU capacity.
///
/// The entries live directly in one open-addressing table (linear probing,
/// a power-of-two slot count, 8 bytes per entry, freed with one
/// deallocation). An entry is a document id and a recency stamp; sizes come
/// from the shared DocumentSizes table, read when bytes are counted. Under
/// the infinite multi-session cache of Figure 5 a client holds about 90
/// documents when it looks one up and about 440 at the 99th percentile, so
/// every lookup is one probe sequence, never a scan. Recency is a per-entry
/// stamp from a per-cache clock: a use only restamps its entry, and a
/// capacity-bound cache evicts the minimum stamp, which is exactly LRU
/// order. Each replay owns its clients' caches; the const accessors modify
/// nothing.
class ClientCache {
 public:
  /// `sizes` must outlive the cache and hold at most 2^31 - 1 documents:
  /// an entry keeps a flag in the top bit of its id.
  ClientCache(const ClientCacheConfig& config, const DocumentSizes* sizes);

  /// Must be called at every request of this client *before* Contains /
  /// Insert: purges the cache if the inter-request gap ended the session.
  void Touch(SimTime now);

  bool Contains(trace::DocumentId doc) const { return Find(doc) != kAbsent; }

  /// True if the entry exists and was delivered speculatively and has not
  /// been requested yet (used to count first-use speculative hits).
  bool IsUnusedSpeculative(trace::DocumentId doc) const {
    const size_t slot = Find(doc);
    return slot != kAbsent && slots_[slot].unused();
  }

  /// Marks a speculative entry as used by a real request.
  void MarkUsed(trace::DocumentId doc);

  /// Inserts a document of the size table (no-op if present; a present
  /// speculative entry requested for real should use MarkUsed). Evicts LRU
  /// entries when over capacity. Documents larger than the capacity are not
  /// cached. Aborts on an id outside the size table.
  void Insert(trace::DocumentId doc, bool speculative);

  uint64_t used_bytes() const { return used_; }
  size_t num_docs() const { return count_; }

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
  /// Set in an entry's key while it is speculative and not yet requested.
  static constexpr uint32_t kUnusedBit = 0x80000000u;
  /// Key of an empty slot. No document key equals it: ids stay below
  /// 2^31 - 1.
  static constexpr uint32_t kEmpty = trace::kInvalidDocument;

  struct Entry {
    /// The document id, or'ed with kUnusedBit; kEmpty for an empty slot.
    uint32_t key = kEmpty;
    /// Value of clock_ at the last insert or use (larger = more recent).
    uint32_t stamp = 0;

    trace::DocumentId doc() const { return key & ~kUnusedBit; }
    bool unused() const { return (key & kUnusedBit) != 0; }
  };
  static_assert(sizeof(Entry) == 8);

  static constexpr size_t kAbsent = static_cast<size_t>(-1);

  /// Home slot of `doc`: the top bits of a multiplicative hash.
  size_t Home(trace::DocumentId doc) const {
    return static_cast<size_t>((uint64_t{doc} * 0x9E3779B97F4A7C15ull) >>
                               shift_);
  }

  /// Slot holding `doc`, or kAbsent. The table is never full, so the
  /// probe always ends at an empty slot.
  size_t Find(trace::DocumentId doc) const {
    if (slots_.empty()) return kAbsent;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(doc);; i = (i + 1) & mask) {
      if (slots_[i].key == kEmpty) return kAbsent;
      if (slots_[i].doc() == doc) return i;
    }
  }

  /// Next recency stamp.
  uint32_t Tick();
  /// Stores `entry` in the first empty slot of its probe sequence.
  void Place(const Entry& entry);
  /// Rebuilds the table with `num_slots` slots (a power of two).
  void Rehash(size_t num_slots);
  /// Empties `slot` by backward-shift deletion: later entries of its probe
  /// run move back, so no tombstones are needed.
  void Erase(size_t slot);
  /// Counts a resident entry that leaves unused as wasted.
  void Discard(const Entry& entry);
  void PurgeAll();
  void EvictIfNeeded();

  ClientCacheConfig config_;
  const DocumentSizes* sizes_;
  /// Empty, or a power of two slots of which at most 7/8 are occupied.
  std::vector<Entry> slots_;
  uint64_t used_ = 0;
  uint64_t wasted_spec_bytes_ = 0;
  uint64_t wasted_spec_docs_ = 0;
  uint64_t unused_spec_docs_ = 0;
  SimTime last_access_ = -kInfiniteTime;
  uint32_t count_ = 0;
  uint32_t clock_ = 0;
  /// 64 - log2(slots_.size()), set by Rehash: Home() keeps the top bits.
  uint8_t shift_ = 64;
  bool has_last_access_ = false;
};

}  // namespace sds::spec

#endif  // SDS_SPEC_CLIENT_CACHE_H_
