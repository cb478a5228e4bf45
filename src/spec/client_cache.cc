#include "spec/client_cache.h"

#include <algorithm>

namespace sds::spec {

void ClientCache::Touch(SimTime now) {
  if (has_last_access_ &&
      !(now - last_access_ < config_.session_timeout)) {
    PurgeAll();
  }
  has_last_access_ = true;
  last_access_ = now;
}

size_t ClientCache::Find(trace::DocumentId doc) const {
  if (memo_valid_ && doc == last_doc_) return last_pos_;
  // Recent entries are the likeliest hits, so scan from the back.
  size_t i = entries_.size();
  while (i-- > 0 && entries_[i].doc != doc) {
  }
  memo_valid_ = true;
  last_doc_ = doc;
  last_pos_ = i;  // wrapped to kAbsent when not found
  return i;
}

void ClientCache::Refresh(size_t pos) {
  Forget();
  std::rotate(entries_.begin() + static_cast<std::ptrdiff_t>(pos),
              entries_.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
              entries_.end());
}

void ClientCache::Discard(const Entry& entry) {
  if (!entry.speculative_unused) return;
  wasted_spec_bytes_ += entry.size;
  ++wasted_spec_docs_;
  --unused_spec_docs_;
}

void ClientCache::MarkUsed(trace::DocumentId doc) {
  const size_t pos = Find(doc);
  if (pos == kAbsent) return;
  if (entries_[pos].speculative_unused) --unused_spec_docs_;
  entries_[pos].speculative_unused = false;
  Refresh(pos);
}

void ClientCache::Insert(trace::DocumentId doc, uint64_t size_bytes,
                         bool speculative) {
  if (config_.session_timeout <= 0.0) {  // no cache
    // Doc-level waste only: wasted_spec_bytes_ has always excluded the
    // cacheless case (the push cost shows up in bandwidth_ratio instead)
    // and the golden grids pin that behaviour.
    if (speculative) ++wasted_spec_docs_;
    return;
  }
  if (config_.capacity_bytes > 0 && size_bytes > config_.capacity_bytes) {
    if (speculative) {
      wasted_spec_bytes_ += size_bytes;
      ++wasted_spec_docs_;
    }
    return;
  }
  if (const size_t pos = Find(doc); pos != kAbsent) {
    Refresh(pos);
    return;
  }
  Forget();
  entries_.push_back({doc, speculative, size_bytes});
  used_ += size_bytes;
  if (speculative) ++unused_spec_docs_;
  EvictIfNeeded();
}

void ClientCache::PurgeAll() {
  for (const Entry& entry : entries_) Discard(entry);
  Forget();
  entries_.clear();
  used_ = 0;
}

void ClientCache::EvictIfNeeded() {
  if (config_.capacity_bytes == 0 || used_ <= config_.capacity_bytes) return;
  // Evict from the least recent end in one pass, then close the gap.
  size_t evicted = 0;
  while (used_ > config_.capacity_bytes && evicted < entries_.size()) {
    const Entry& victim = entries_[evicted++];
    used_ -= victim.size;
    Discard(victim);
  }
  Forget();
  entries_.erase(entries_.begin(),
                 entries_.begin() + static_cast<std::ptrdiff_t>(evicted));
}

}  // namespace sds::spec
