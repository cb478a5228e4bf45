#include "spec/client_cache.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace sds::spec {

DocumentSizes DocumentSizesOf(const trace::Corpus& corpus) {
  DocumentSizes sizes;
  sizes.reserve(corpus.size());
  for (const trace::DocumentInfo& doc : corpus.docs()) {
    sizes.push_back(doc.size_bytes);
  }
  return sizes;
}

ClientCache::ClientCache(const ClientCacheConfig& config,
                         const DocumentSizes* sizes)
    : config_(config), sizes_(sizes) {
  SDS_CHECK(sizes->size() < kUnusedBit) << "document ids need the top bit";
}

void ClientCache::Touch(SimTime now) {
  if (has_last_access_ &&
      !(now - last_access_ < config_.session_timeout)) {
    PurgeAll();
  }
  has_last_access_ = true;
  last_access_ = now;
}

uint32_t ClientCache::Tick() {
  if (clock_ == std::numeric_limits<uint32_t>::max()) {
    // The clock wrapped: renumber the resident entries 1..n in their
    // recency order and go on from n.
    std::vector<Entry*> live;
    live.reserve(count_);
    for (Entry& entry : slots_) {
      if (entry.key != kEmpty) live.push_back(&entry);
    }
    std::sort(live.begin(), live.end(), [](const Entry* a, const Entry* b) {
      return a->stamp < b->stamp;
    });
    clock_ = 0;
    for (Entry* entry : live) entry->stamp = ++clock_;
  }
  return ++clock_;
}

void ClientCache::Place(const Entry& entry) {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(entry.doc());
  while (slots_[i].key != kEmpty) i = (i + 1) & mask;
  slots_[i] = entry;
}

void ClientCache::Rehash(size_t num_slots) {
  std::vector<Entry> old =
      std::exchange(slots_, std::vector<Entry>(num_slots));
  shift_ = static_cast<uint8_t>(64 - std::countr_zero(num_slots));
  for (const Entry& entry : old) {
    if (entry.key != kEmpty) Place(entry);
  }
}

void ClientCache::Erase(size_t slot) {
  const size_t mask = slots_.size() - 1;
  size_t hole = slot;
  for (size_t i = (hole + 1) & mask; slots_[i].key != kEmpty;
       i = (i + 1) & mask) {
    // The entry at i may fill the hole unless its home lies cyclically in
    // (hole, i]: it must stay reachable from its home without a gap.
    if (((i - Home(slots_[i].doc())) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = Entry{};
  --count_;
}

void ClientCache::Discard(const Entry& entry) {
  if (!entry.unused()) return;
  wasted_spec_bytes_ += (*sizes_)[entry.doc()];
  ++wasted_spec_docs_;
  --unused_spec_docs_;
}

void ClientCache::MarkUsed(trace::DocumentId doc) {
  const size_t slot = Find(doc);
  if (slot == kAbsent) return;
  Entry& entry = slots_[slot];
  if (entry.unused()) --unused_spec_docs_;
  entry.key = doc;
  entry.stamp = Tick();
}

void ClientCache::Insert(trace::DocumentId doc, bool speculative) {
  SDS_CHECK(doc < sizes_->size()) << "document " << doc << " is not in the "
                                  << sizes_->size() << "-document size table";
  if (config_.session_timeout <= 0.0) {  // no cache
    // Doc-level waste only: wasted_spec_bytes_ has always excluded the
    // cacheless case (the push cost shows up in bandwidth_ratio instead)
    // and the golden grids pin that behaviour.
    if (speculative) ++wasted_spec_docs_;
    return;
  }
  const uint64_t size_bytes = (*sizes_)[doc];
  if (config_.capacity_bytes > 0 && size_bytes > config_.capacity_bytes) {
    if (speculative) {
      wasted_spec_bytes_ += size_bytes;
      ++wasted_spec_docs_;
    }
    return;
  }
  if (const size_t slot = Find(doc); slot != kAbsent) {
    slots_[slot].stamp = Tick();
    return;
  }
  // Grow before the insert would take the table past 7/8 full.
  if (8 * (size_t{count_} + 1) > 7 * slots_.size()) {
    Rehash(slots_.empty() ? 4 : 2 * slots_.size());
  }
  Place({speculative ? doc | kUnusedBit : doc, Tick()});
  ++count_;
  used_ += size_bytes;
  if (speculative) ++unused_spec_docs_;
  EvictIfNeeded();
}

void ClientCache::PurgeAll() {
  for (const Entry& entry : slots_) {
    if (entry.key != kEmpty) Discard(entry);
  }
  std::fill(slots_.begin(), slots_.end(), Entry{});
  count_ = 0;
  clock_ = 0;
  used_ = 0;
}

void ClientCache::EvictIfNeeded() {
  if (config_.capacity_bytes == 0) return;
  // The entry just inserted fits and holds the newest stamp, so the loop
  // stops before reaching it.
  while (used_ > config_.capacity_bytes) {
    size_t victim = kAbsent;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].key != kEmpty &&
          (victim == kAbsent || slots_[i].stamp < slots_[victim].stamp)) {
        victim = i;
      }
    }
    used_ -= (*sizes_)[slots_[victim].doc()];
    Discard(slots_[victim]);
    Erase(victim);
  }
}

}  // namespace sds::spec
