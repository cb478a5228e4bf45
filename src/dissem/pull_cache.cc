#include "dissem/pull_cache.h"

#include <algorithm>
#include <list>
#include <unordered_map>

#include "util/sim_time.h"

namespace sds::dissem {
namespace {

/// Byte-budgeted LRU document cache (one per proxy).
class LruDocCache {
 public:
  explicit LruDocCache(uint64_t capacity) : capacity_(capacity) {}

  bool Contains(trace::DocumentId doc) const {
    return entries_.count(doc) > 0;
  }

  void Touch(trace::DocumentId doc) {
    auto it = entries_.find(doc);
    if (it == entries_.end()) return;
    lru_.erase(it->second.pos);
    lru_.push_front(doc);
    it->second.pos = lru_.begin();
  }

  /// Inserts a document; returns the number of evictions performed.
  uint64_t Insert(trace::DocumentId doc, uint64_t size) {
    if (size > capacity_ || Contains(doc)) return 0;
    lru_.push_front(doc);
    entries_.emplace(doc, Entry{size, lru_.begin()});
    used_ += size;
    uint64_t evictions = 0;
    while (used_ > capacity_ && !lru_.empty()) {
      const trace::DocumentId victim = lru_.back();
      lru_.pop_back();
      auto it = entries_.find(victim);
      used_ -= it->second.size;
      entries_.erase(it);
      ++evictions;
    }
    return evictions;
  }

  bool Erase(trace::DocumentId doc) {
    auto it = entries_.find(doc);
    if (it == entries_.end()) return false;
    used_ -= it->second.size;
    lru_.erase(it->second.pos);
    entries_.erase(it);
    return true;
  }

  uint64_t used_bytes() const { return used_; }

 private:
  struct Entry {
    uint64_t size;
    std::list<trace::DocumentId>::iterator pos;
  };
  uint64_t capacity_;
  uint64_t used_ = 0;
  std::unordered_map<trace::DocumentId, Entry> entries_;
  std::list<trace::DocumentId> lru_;
};

}  // namespace

PullCacheResult SimulatePullThroughCache(
    const PreparedDissemination& prepared, const PullCacheConfig& config,
    Rng* rng, const std::vector<trace::UpdateEvent>* updates,
    trace::RequestCursor* cursor) {
  PullCacheResult result;
  if (prepared.pop.total_remote_requests == 0) return result;

  // Placement and routes of the push replay, so both strategies front the
  // same clients.
  DisseminationConfig sites;
  sites.num_proxies = config.num_proxies;
  sites.placement = config.placement;
  result.proxy_nodes = PlaceProxies(prepared, sites, rng).proxies;
  const std::vector<RoutePlan> plans =
      BuildRoutePlans(prepared, result.proxy_nodes);

  const uint64_t budget = static_cast<uint64_t>(
      config.storage_fraction *
      static_cast<double>(prepared.corpus->ServerBytes(prepared.server)));
  std::vector<LruDocCache> caches(result.proxy_nodes.size(),
                                  LruDocCache(budget));

  // Updates indexed by day for invalidation.
  std::vector<std::vector<trace::DocumentId>> updates_by_day;
  if (config.invalidate_on_update && updates != nullptr) {
    for (const auto& u : *updates) {
      if (u.day >= updates_by_day.size()) updates_by_day.resize(u.day + 1);
      updates_by_day[u.day].push_back(u.doc);
    }
  }

  uint64_t proxy_hits = 0;
  uint64_t eval_requests = 0;
  long applied_day = static_cast<long>(prepared.split / kDay);
  ForEachEvalRecord(prepared, cursor, [&](const auto& r) {
    // Apply invalidations for any days that have completed.
    while (applied_day < static_cast<long>(r.day)) {
      if (static_cast<size_t>(applied_day) < updates_by_day.size()) {
        for (const trace::DocumentId doc : updates_by_day[applied_day]) {
          for (auto& cache : caches) {
            if (cache.Erase(doc)) ++result.invalidations;
          }
        }
      }
      ++applied_day;
    }

    const RoutePlan& plan = plans[r.node];
    const double bytes = static_cast<double>(r.bytes);
    result.baseline_bytes_hops += bytes * plan.hops_to_server;
    ++eval_requests;

    if (plan.proxy_index < 0) {
      result.with_proxies_bytes_hops += bytes * plan.hops_to_server;
      return;
    }
    LruDocCache& cache = caches[plan.proxy_index];
    if (cache.Contains(r.doc)) {
      ++proxy_hits;
      cache.Touch(r.doc);
      result.with_proxies_bytes_hops += bytes * plan.hops_to_proxy;
    } else {
      // Miss: fetched through the proxy from the origin (full path) and
      // cached on the way back.
      result.with_proxies_bytes_hops += bytes * plan.hops_to_server;
      result.evictions += cache.Insert(r.doc, r.bytes);
    }
  });

  for (const auto& cache : caches) {
    result.storage_per_proxy_bytes =
        std::max(result.storage_per_proxy_bytes, cache.used_bytes());
  }
  result.proxy_hit_fraction =
      eval_requests == 0
          ? 0.0
          : static_cast<double>(proxy_hits) /
                static_cast<double>(eval_requests);
  result.saved_fraction =
      result.baseline_bytes_hops <= 0.0
          ? 0.0
          : 1.0 - result.with_proxies_bytes_hops / result.baseline_bytes_hops;
  return result;
}

}  // namespace sds::dissem
