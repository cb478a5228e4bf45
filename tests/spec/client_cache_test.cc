#include "spec/client_cache.h"

#include <gtest/gtest.h>
#include <list>
#include <vector>

#include "util/rng.h"

namespace sds::spec {
namespace {

TEST(ClientCacheTest, BasicInsertContains) {
  ClientCache cache({kInfiniteTime, 0});
  cache.Touch(0.0);
  EXPECT_FALSE(cache.Contains(1));
  cache.Insert(1, 100, false);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.used_bytes(), 100u);
  EXPECT_EQ(cache.num_docs(), 1u);
}

TEST(ClientCacheTest, NoCacheWhenTimeoutZero) {
  ClientCache cache({0.0, 0});
  cache.Touch(0.0);
  cache.Insert(1, 100, false);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(ClientCacheTest, SessionTimeoutPurges) {
  ClientCache cache({60.0, 0});
  cache.Touch(0.0);
  cache.Insert(1, 100, false);
  cache.Touch(30.0);  // same session
  EXPECT_TRUE(cache.Contains(1));
  cache.Touch(120.0);  // gap 90 >= 60: new session
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(ClientCacheTest, GapExactlyTimeoutPurges) {
  ClientCache cache({60.0, 0});
  cache.Touch(0.0);
  cache.Insert(1, 100, false);
  cache.Touch(60.0);
  EXPECT_FALSE(cache.Contains(1));
}

TEST(ClientCacheTest, InfiniteTimeoutNeverPurges) {
  ClientCache cache({kInfiniteTime, 0});
  cache.Touch(0.0);
  cache.Insert(1, 100, false);
  cache.Touch(1e9);
  EXPECT_TRUE(cache.Contains(1));
}

TEST(ClientCacheTest, LruEvictionRespectsCapacity) {
  ClientCache cache({kInfiniteTime, 250});
  cache.Touch(0.0);
  cache.Insert(1, 100, false);
  cache.Insert(2, 100, false);
  cache.Insert(3, 100, false);  // evicts doc 1 (LRU)
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_LE(cache.used_bytes(), 250u);
}

TEST(ClientCacheTest, MarkUsedRefreshesLru) {
  ClientCache cache({kInfiniteTime, 250});
  cache.Touch(0.0);
  cache.Insert(1, 100, false);
  cache.Insert(2, 100, false);
  cache.MarkUsed(1);                 // 1 becomes most recent
  cache.Insert(3, 100, false);  // evicts 2, not 1
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(ClientCacheTest, OversizedDocumentNotCached) {
  ClientCache cache({kInfiniteTime, 100});
  cache.Touch(0.0);
  cache.Insert(1, 500, true);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.wasted_speculative_bytes(), 500u);
}

TEST(ClientCacheTest, SpeculativeFlagLifecycle) {
  ClientCache cache({kInfiniteTime, 0});
  cache.Touch(0.0);
  cache.Insert(1, 100, true);
  EXPECT_TRUE(cache.IsUnusedSpeculative(1));
  cache.MarkUsed(1);
  EXPECT_FALSE(cache.IsUnusedSpeculative(1));
  EXPECT_TRUE(cache.Contains(1));
}

TEST(ClientCacheTest, WastedSpeculativeBytesOnPurge) {
  ClientCache cache({60.0, 0});
  cache.Touch(0.0);
  cache.Insert(1, 100, true);
  cache.Insert(2, 50, true);
  cache.MarkUsed(2);   // used: not wasted
  cache.Touch(500.0);  // purge
  EXPECT_EQ(cache.wasted_speculative_bytes(), 100u);
}

TEST(ClientCacheTest, WastedSpeculativeBytesOnEviction) {
  ClientCache cache({kInfiniteTime, 150});
  cache.Touch(0.0);
  cache.Insert(1, 100, true);
  cache.Insert(2, 100, false);  // evicts 1 unused
  EXPECT_EQ(cache.wasted_speculative_bytes(), 100u);
}

TEST(ClientCacheTest, DuplicateInsertKeepsBytes) {
  ClientCache cache({kInfiniteTime, 0});
  cache.Touch(0.0);
  cache.Insert(1, 100, false);
  cache.Insert(1, 100, false);
  EXPECT_EQ(cache.used_bytes(), 100u);
  EXPECT_EQ(cache.num_docs(), 1u);
}

TEST(ClientCacheTest, ContentsListsAllDocs) {
  ClientCache cache({kInfiniteTime, 0});
  cache.Touch(0.0);
  cache.Insert(5, 10, false);
  cache.Insert(9, 10, false);
  ASSERT_EQ(cache.num_docs(), 2u);
  EXPECT_TRUE(cache.Contains(5));
  EXPECT_TRUE(cache.Contains(9));
}


/// Reference LRU cache over a list (front = most recent), written for
/// clarity: the oracle ClientCache's resident set and counters must follow.
struct ReferenceCache {
  struct Entry {
    trace::DocumentId doc;
    uint64_t size;
    bool unused;
  };
  ClientCacheConfig config;
  std::list<Entry> lru;
  uint64_t wasted_docs = 0;
  uint64_t wasted_bytes = 0;
  bool touched = false;
  SimTime last = 0.0;

  std::list<Entry>::iterator Find(trace::DocumentId doc) {
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (it->doc == doc) return it;
    }
    return lru.end();
  }
  void Drop(const Entry& e) {
    if (!e.unused) return;
    ++wasted_docs;
    wasted_bytes += e.size;
  }
  void Touch(SimTime now) {
    if (touched && !(now - last < config.session_timeout)) {
      for (const Entry& e : lru) Drop(e);
      lru.clear();
    }
    touched = true;
    last = now;
  }
  void MarkUsed(trace::DocumentId doc) {
    const auto it = Find(doc);
    it->unused = false;
    lru.splice(lru.begin(), lru, it);
  }
  void Refresh(trace::DocumentId doc) { lru.splice(lru.begin(), lru, Find(doc)); }
  void Insert(trace::DocumentId doc, uint64_t size, bool speculative) {
    if (size > config.capacity_bytes) {
      if (speculative) {
        ++wasted_docs;
        wasted_bytes += size;
      }
      return;
    }
    lru.push_front({doc, size, speculative});
    uint64_t used = 0;
    for (const Entry& e : lru) used += e.size;
    while (used > config.capacity_bytes) {
      used -= lru.back().size;
      Drop(lru.back());
      lru.pop_back();
    }
  }
};

TEST(ClientCacheRandomTest, AccountingHoldsUnderRandomTraffic) {
  constexpr trace::DocumentId kDocs = 40;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const ClientCacheConfig config{
        /*session_timeout=*/30.0 + static_cast<double>(rng.NextBounded(300)),
        /*capacity_bytes=*/200 + rng.NextBounded(2000)};
    std::vector<uint64_t> size(kDocs);
    for (uint64_t& s : size) s = 1 + rng.NextBounded(config.capacity_bytes);
    size[0] = config.capacity_bytes + 1;  // never fits

    ClientCache cache(config);
    ReferenceCache ref;
    ref.config = config;
    uint64_t pushed = 0;  // speculative documents inserted as new entries
    uint64_t used = 0;    // of which later requested while resident
    SimTime now = 0.0;
    for (int op = 0; op < 3000; ++op) {
      // Mostly in-session gaps, with occasional session breaks.
      now += rng.NextBernoulli(0.02)
                 ? config.session_timeout
                 : static_cast<double>(rng.NextBounded(20));
      cache.Touch(now);
      ref.Touch(now);
      const auto doc = static_cast<trace::DocumentId>(rng.NextBounded(kDocs));
      if (cache.Contains(doc)) {
        if (cache.IsUnusedSpeculative(doc)) ++used;
        cache.MarkUsed(doc);
        ref.MarkUsed(doc);
      } else {
        const bool speculative = rng.NextBernoulli(0.5);
        pushed += speculative ? 1 : 0;
        cache.Insert(doc, size[doc], speculative);
        ref.Insert(doc, size[doc], speculative);
      }
      if (cache.Contains(doc) && rng.NextBernoulli(0.2)) {
        // A duplicate insert only refreshes the entry's recency.
        cache.Insert(doc, size[doc], rng.NextBernoulli(0.5));
        ref.Refresh(doc);
      }
      // Ask about the document just acted on first: a lookup that
      // outlived the last change would answer for another entry.
      const auto it = ref.Find(doc);
      ASSERT_EQ(cache.Contains(doc), it != ref.lru.end()) << "op " << op;
      if (it != ref.lru.end()) {
        ASSERT_EQ(cache.IsUnusedSpeculative(doc), it->unused) << "op " << op;
      }

      uint64_t resident_bytes = 0;
      uint64_t resident_unused = 0;
      size_t resident = 0;
      for (trace::DocumentId d = 0; d < kDocs; ++d) {
        if (!cache.Contains(d)) continue;
        ++resident;
        resident_bytes += size[d];
        resident_unused += cache.IsUnusedSpeculative(d) ? 1 : 0;
      }
      ASSERT_EQ(cache.used_bytes(), resident_bytes) << "op " << op;
      ASSERT_LE(cache.used_bytes(), config.capacity_bytes) << "op " << op;
      ASSERT_EQ(cache.num_docs(), resident) << "op " << op;
      ASSERT_EQ(cache.unused_speculative_docs(), resident_unused)
          << "op " << op;
      ASSERT_EQ(pushed, used + cache.wasted_speculative_docs() +
                            cache.unused_speculative_docs())
          << "op " << op;

      ASSERT_EQ(resident, ref.lru.size()) << "op " << op;
      for (const ReferenceCache::Entry& e : ref.lru) {
        ASSERT_TRUE(cache.Contains(e.doc)) << "op " << op;
        ASSERT_EQ(cache.IsUnusedSpeculative(e.doc), e.unused) << "op " << op;
      }
      ASSERT_EQ(cache.wasted_speculative_docs(), ref.wasted_docs);
      ASSERT_EQ(cache.wasted_speculative_bytes(), ref.wasted_bytes);
    }
  }
}

}  // namespace
}  // namespace sds::spec
