#include "spec/client_cache.h"

#include <gtest/gtest.h>
#include <list>
#include <vector>

#include "util/rng.h"

namespace sds::spec {
namespace {

/// A size table of 16 documents, all `size` bytes.
DocumentSizes Uniform(uint64_t size) { return DocumentSizes(16, size); }

TEST(ClientCacheTest, BasicInsertContains) {
  const DocumentSizes sizes = Uniform(100);
  ClientCache cache({kInfiniteTime, 0}, &sizes);
  cache.Touch(0.0);
  EXPECT_FALSE(cache.Contains(1));
  cache.Insert(1, false);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.used_bytes(), 100u);
  EXPECT_EQ(cache.num_docs(), 1u);
}

TEST(ClientCacheTest, NoCacheWhenTimeoutZero) {
  const DocumentSizes sizes = Uniform(100);
  ClientCache cache({0.0, 0}, &sizes);
  cache.Touch(0.0);
  cache.Insert(1, false);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(ClientCacheTest, SessionTimeoutPurges) {
  const DocumentSizes sizes = Uniform(100);
  ClientCache cache({60.0, 0}, &sizes);
  cache.Touch(0.0);
  cache.Insert(1, false);
  cache.Touch(30.0);  // same session
  EXPECT_TRUE(cache.Contains(1));
  cache.Touch(120.0);  // gap 90 >= 60: new session
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(ClientCacheTest, GapExactlyTimeoutPurges) {
  const DocumentSizes sizes = Uniform(100);
  ClientCache cache({60.0, 0}, &sizes);
  cache.Touch(0.0);
  cache.Insert(1, false);
  cache.Touch(60.0);
  EXPECT_FALSE(cache.Contains(1));
}

TEST(ClientCacheTest, InfiniteTimeoutNeverPurges) {
  const DocumentSizes sizes = Uniform(100);
  ClientCache cache({kInfiniteTime, 0}, &sizes);
  cache.Touch(0.0);
  cache.Insert(1, false);
  cache.Touch(1e9);
  EXPECT_TRUE(cache.Contains(1));
}

TEST(ClientCacheTest, LruEvictionRespectsCapacity) {
  const DocumentSizes sizes = Uniform(100);
  ClientCache cache({kInfiniteTime, 250}, &sizes);
  cache.Touch(0.0);
  cache.Insert(1, false);
  cache.Insert(2, false);
  cache.Insert(3, false);  // evicts doc 1 (LRU)
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_LE(cache.used_bytes(), 250u);
}

TEST(ClientCacheTest, MarkUsedRefreshesLru) {
  const DocumentSizes sizes = Uniform(100);
  ClientCache cache({kInfiniteTime, 250}, &sizes);
  cache.Touch(0.0);
  cache.Insert(1, false);
  cache.Insert(2, false);
  cache.MarkUsed(1);                 // 1 becomes most recent
  cache.Insert(3, false);  // evicts 2, not 1
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(ClientCacheTest, OversizedDocumentNotCached) {
  const DocumentSizes sizes = Uniform(500);
  ClientCache cache({kInfiniteTime, 100}, &sizes);
  cache.Touch(0.0);
  cache.Insert(1, true);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.wasted_speculative_bytes(), 500u);
}

TEST(ClientCacheTest, SpeculativeFlagLifecycle) {
  const DocumentSizes sizes = Uniform(100);
  ClientCache cache({kInfiniteTime, 0}, &sizes);
  cache.Touch(0.0);
  cache.Insert(1, true);
  EXPECT_TRUE(cache.IsUnusedSpeculative(1));
  cache.MarkUsed(1);
  EXPECT_FALSE(cache.IsUnusedSpeculative(1));
  EXPECT_TRUE(cache.Contains(1));
}

TEST(ClientCacheTest, WastedSpeculativeBytesOnPurge) {
  const DocumentSizes sizes = {0, 100, 50};
  ClientCache cache({60.0, 0}, &sizes);
  cache.Touch(0.0);
  cache.Insert(1, true);
  cache.Insert(2, true);
  cache.MarkUsed(2);   // used: not wasted
  cache.Touch(500.0);  // purge
  EXPECT_EQ(cache.wasted_speculative_bytes(), 100u);
}

TEST(ClientCacheTest, WastedSpeculativeBytesOnEviction) {
  const DocumentSizes sizes = Uniform(100);
  ClientCache cache({kInfiniteTime, 150}, &sizes);
  cache.Touch(0.0);
  cache.Insert(1, true);
  cache.Insert(2, false);  // evicts 1 unused
  EXPECT_EQ(cache.wasted_speculative_bytes(), 100u);
}

TEST(ClientCacheTest, DuplicateInsertKeepsBytes) {
  const DocumentSizes sizes = Uniform(100);
  ClientCache cache({kInfiniteTime, 0}, &sizes);
  cache.Touch(0.0);
  cache.Insert(1, false);
  cache.Insert(1, false);
  EXPECT_EQ(cache.used_bytes(), 100u);
  EXPECT_EQ(cache.num_docs(), 1u);
}

TEST(ClientCacheTest, ContentsListsAllDocs) {
  const DocumentSizes sizes = Uniform(10);
  ClientCache cache({kInfiniteTime, 0}, &sizes);
  cache.Touch(0.0);
  cache.Insert(5, false);
  cache.Insert(9, false);
  ASSERT_EQ(cache.num_docs(), 2u);
  EXPECT_TRUE(cache.Contains(5));
  EXPECT_TRUE(cache.Contains(9));
}

TEST(ClientCacheTest, DistinctSizesComeFromTheTable) {
  const DocumentSizes sizes = {0, 100, 200, 300, 400};
  ClientCache cache({kInfiniteTime, 650}, &sizes);
  cache.Touch(0.0);
  cache.Insert(1, /*speculative=*/true);
  cache.Insert(2, /*speculative=*/false);
  cache.Insert(3, /*speculative=*/true);
  EXPECT_EQ(cache.used_bytes(), 600u);
  cache.MarkUsed(1);  // LRU order now 2, 3, 1
  // 1000 bytes > 650: evicts 2 (200 bytes), then 3 (300, never used).
  cache.Insert(4, /*speculative=*/false);
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_FALSE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_EQ(cache.used_bytes(), 500u);
  EXPECT_EQ(cache.wasted_speculative_bytes(), 300u);
  EXPECT_EQ(cache.wasted_speculative_docs(), 1u);

  // A purge wastes the unused entries at their table sizes.
  ClientCache session({60.0, 0}, &sizes);
  session.Touch(0.0);
  session.Insert(2, /*speculative=*/true);
  session.Insert(4, /*speculative=*/true);
  session.Insert(3, /*speculative=*/false);
  session.MarkUsed(4);
  EXPECT_EQ(session.used_bytes(), 900u);
  session.Touch(100.0);
  EXPECT_EQ(session.used_bytes(), 0u);
  EXPECT_EQ(session.wasted_speculative_bytes(), 200u);
  EXPECT_EQ(session.wasted_speculative_docs(), 1u);
}

TEST(ClientCacheTest, FlagBitIsNotPartOfTheId) {
  const DocumentSizes sizes = Uniform(100);
  ClientCache cache({kInfiniteTime, 0}, &sizes);
  cache.Touch(0.0);
  cache.Insert(1, /*speculative=*/true);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.IsUnusedSpeculative(1));
  EXPECT_FALSE(cache.Contains(1 | 0x80000000u));
  EXPECT_FALSE(cache.Contains(trace::kInvalidDocument));
  EXPECT_FALSE(cache.Contains(0x7fffffffu));
}

TEST(ClientCacheDeathTest, DocOutsideTheSizeTableAborts) {
  const DocumentSizes sizes = Uniform(100);
  ClientCache cache({kInfiniteTime, 0}, &sizes);
  cache.Touch(0.0);
  EXPECT_DEATH(cache.Insert(16, /*speculative=*/false), "size table");
  EXPECT_DEATH(cache.Insert(1 | 0x80000000u, /*speculative=*/true),
               "size table");
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
    if (config.capacity_bytes > 0 && size > config.capacity_bytes) {
      if (speculative) {
        ++wasted_docs;
        wasted_bytes += size;
      }
      return;
    }
    lru.push_front({doc, size, speculative});
    uint64_t used = 0;
    for (const Entry& e : lru) used += e.size;
    while (config.capacity_bytes > 0 && used > config.capacity_bytes) {
      used -= lru.back().size;
      Drop(lru.back());
      lru.pop_back();
    }
  }
};

/// Replays `ops` random requests for documents 0..size.size()-1 against
/// both caches and asserts after each that they hold the same documents
/// with the same flags and counters. A request ends the session with
/// probability `session_break` (which must be 0 under an infinite
/// timeout).
void ReplayAgainstReference(const ClientCacheConfig& config,
                            const std::vector<uint64_t>& size, int ops,
                            double session_break, Rng& rng) {
  const auto num_docs = static_cast<trace::DocumentId>(size.size());
  ClientCache cache(config, &size);
  ReferenceCache ref;
  ref.config = config;
  uint64_t pushed = 0;  // speculative documents inserted as new entries
  uint64_t used = 0;    // of which later requested while resident
  SimTime now = 0.0;
  for (int op = 0; op < ops; ++op) {
    // Mostly in-session gaps, with occasional session breaks.
    now += rng.NextBernoulli(session_break)
               ? config.session_timeout
               : static_cast<double>(rng.NextBounded(20));
    cache.Touch(now);
    ref.Touch(now);
    const auto doc = static_cast<trace::DocumentId>(rng.NextBounded(num_docs));
    if (cache.Contains(doc)) {
      if (cache.IsUnusedSpeculative(doc)) ++used;
      cache.MarkUsed(doc);
      ref.MarkUsed(doc);
    } else {
      const bool speculative = rng.NextBernoulli(0.5);
      pushed += speculative ? 1 : 0;
      cache.Insert(doc, speculative);
      ref.Insert(doc, size[doc], speculative);
    }
    if (cache.Contains(doc) && rng.NextBernoulli(0.2)) {
      // A duplicate insert only refreshes the entry's recency.
      cache.Insert(doc, rng.NextBernoulli(0.5));
      ref.Refresh(doc);
    }
    // Ask about the document just acted on first.
    const auto it = ref.Find(doc);
    ASSERT_EQ(cache.Contains(doc), it != ref.lru.end()) << "op " << op;
    if (it != ref.lru.end()) {
      ASSERT_EQ(cache.IsUnusedSpeculative(doc), it->unused) << "op " << op;
    }

    uint64_t resident_bytes = 0;
    uint64_t resident_unused = 0;
    size_t resident = 0;
    for (trace::DocumentId d = 0; d < num_docs; ++d) {
      if (!cache.Contains(d)) continue;
      ++resident;
      resident_bytes += size[d];
      resident_unused += cache.IsUnusedSpeculative(d) ? 1 : 0;
    }
    ASSERT_EQ(cache.used_bytes(), resident_bytes) << "op " << op;
    if (config.capacity_bytes > 0) {
      ASSERT_LE(cache.used_bytes(), config.capacity_bytes) << "op " << op;
    }
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

/// Sizes 1..max_size for `num_docs` documents.
std::vector<uint64_t> RandomSizes(size_t num_docs, uint64_t max_size,
                                  Rng& rng) {
  std::vector<uint64_t> size(num_docs);
  for (uint64_t& s : size) s = 1 + rng.NextBounded(max_size);
  return size;
}

TEST(ClientCacheRandomTest, AccountingHoldsUnderRandomTraffic) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const ClientCacheConfig config{
        /*session_timeout=*/30.0 + static_cast<double>(rng.NextBounded(300)),
        /*capacity_bytes=*/200 + rng.NextBounded(2000)};
    std::vector<uint64_t> size = RandomSizes(40, config.capacity_bytes, rng);
    size[0] = config.capacity_bytes + 1;  // never fits
    ReplayAgainstReference(config, size, 3000, 0.02, rng);
  }
}

// The cases below hold hundreds of entries at once, so tables grow through
// several rehashes and eviction and purges act on long probe runs.

TEST(ClientCacheRandomTest, UnboundedCacheGrowsLargeTables) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const size_t num_docs = 500 + rng.NextBounded(1501);
    const std::vector<uint64_t> size = RandomSizes(num_docs, 5000, rng);
    ReplayAgainstReference({kInfiniteTime, 0}, size, 4000, 0.0, rng);
  }
}

TEST(ClientCacheRandomTest, LruEvictsFromLargeTables) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const size_t num_docs = 500 + rng.NextBounded(1501);
    // Sizes average 500 bytes, so 64-128 KB holds 130-260 entries; odd
    // seeds also end sessions now and then.
    const ClientCacheConfig config{
        seed % 2 == 1 ? 500.0 : kInfiniteTime,
        64 * 1024 + rng.NextBounded(64 * 1024)};
    const std::vector<uint64_t> size = RandomSizes(num_docs, 1000, rng);
    ReplayAgainstReference(config, size, 6000,
                           seed % 2 == 1 ? 0.001 : 0.0, rng);
  }
}

TEST(ClientCacheRandomTest, SessionBreaksPurgeAndRefillLargeTables) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const size_t num_docs = 500 + rng.NextBounded(1501);
    const std::vector<uint64_t> size = RandomSizes(num_docs, 5000, rng);
    // About one break per 800 requests: each purge empties a table of
    // several hundred entries, which the next session fills again.
    ReplayAgainstReference({600.0, 0}, size, 6000, 1.0 / 800, rng);
  }
}

}  // namespace
}  // namespace sds::spec
