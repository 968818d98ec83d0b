// The cross-query caching layer: sharded LRU invariants (byte budget,
// eviction order, oversized rejection), the automaton interner's dedup,
// the epoch-keyed reach-set memo's staleness guarantee, and the plan
// cache's canonical-key sharing. The concurrent tests run under TSan
// in CI (tools/ci.sh stage 5).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "automata/interner.h"
#include "automata/regex.h"
#include "common/cache.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "eval/planner.h"
#include "graphdb/graph_db.h"
#include "graphdb/reach_memo.h"
#include "graphdb/rpq_reach.h"
#include "query/parser.h"
#include "query/simplify.h"

namespace ecrpq {
namespace {

using StringCache = ShardedLruCache<std::string, int, BytesHash>;

TEST(CacheTest, LookupInsertRoundTrip) {
  StringCache cache(/*capacity_bytes=*/1 << 16, /*num_shards=*/4);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  cache.Insert("a", 1, 10);
  cache.Insert("b", 2, 10);
  ASSERT_TRUE(cache.Lookup("a").has_value());
  EXPECT_EQ(*cache.Lookup("a"), 1);
  EXPECT_EQ(*cache.Lookup("b"), 2);
  EXPECT_EQ(cache.NumEntries(), 2u);
  const StringCache::Stats stats = cache.GetStats();
  EXPECT_GE(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(CacheTest, ByteBudgetIsNeverExceeded) {
  // Single shard so the budget math is exact. Every insert charges
  // cost + kCacheEntryOverheadBytes; the high-water mark must stay under
  // capacity at every step, with evictions making room.
  const size_t capacity = 4096;
  StringCache cache(capacity, /*num_shards=*/1);
  for (int i = 0; i < 200; ++i) {
    cache.Insert("key" + std::to_string(i), i, /*cost_bytes=*/128);
    ASSERT_LE(cache.SizeBytes(), capacity) << "after insert " << i;
  }
  EXPECT_GT(cache.GetStats().evictions, 0u);
  EXPECT_GT(cache.NumEntries(), 0u);
}

TEST(CacheTest, OversizedEntryIsRejected) {
  StringCache cache(/*capacity_bytes=*/1024, /*num_shards=*/1);
  cache.Insert("small", 1, 64);
  // Larger than the whole shard: must be rejected, not evict everything.
  cache.Insert("huge", 2, 1 << 20);
  EXPECT_FALSE(cache.Lookup("huge").has_value());
  EXPECT_TRUE(cache.Lookup("small").has_value());
  ASSERT_LE(cache.SizeBytes(), 1024u);
}

TEST(CacheTest, LruEvictsLeastRecentlyUsed) {
  // Room for exactly two entries (cost 128 + overhead 64 = 192 each).
  StringCache cache(/*capacity_bytes=*/400, /*num_shards=*/1);
  cache.Insert("a", 1, 128);
  cache.Insert("b", 2, 128);
  ASSERT_TRUE(cache.Lookup("a").has_value());  // Touch: "b" is now LRU.
  cache.Insert("c", 3, 128);
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
}

TEST(CacheTest, ReinsertReplacesInPlace) {
  StringCache cache(/*capacity_bytes=*/1 << 12, /*num_shards=*/1);
  cache.Insert("a", 1, 100);
  const size_t bytes_once = cache.SizeBytes();
  cache.Insert("a", 2, 100);
  EXPECT_EQ(cache.SizeBytes(), bytes_once);
  EXPECT_EQ(cache.NumEntries(), 1u);
  EXPECT_EQ(*cache.Lookup("a"), 2);
}

TEST(CacheTest, ReinsertThatBecomesOversizedDropsTheOldEntry) {
  StringCache cache(/*capacity_bytes=*/1 << 10, /*num_shards=*/1);
  cache.Insert("a", 1, 64);
  ASSERT_TRUE(cache.Lookup("a").has_value());
  // Re-insert under the same key with a cost the cache cannot hold. The
  // new value is rightly not cached — but the OLD value must go with it:
  // a cache that keeps serving the small stale entry after the caller
  // replaced it with an oversized one is returning wrong data forever.
  cache.Insert("a", 2, 1 << 20);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  EXPECT_EQ(cache.NumEntries(), 0u);
  // The key is reusable afterwards.
  cache.Insert("a", 3, 64);
  ASSERT_TRUE(cache.Lookup("a").has_value());
  EXPECT_EQ(*cache.Lookup("a"), 3);
}

TEST(CacheTest, GetOrInsertRunsFactoryOncePerKey) {
  StringCache cache(/*capacity_bytes=*/1 << 16, /*num_shards=*/4);
  int calls = 0;
  auto factory = [&calls] {
    ++calls;
    return 7;
  };
  auto cost = [](const int&) { return size_t{16}; };
  EXPECT_EQ(cache.GetOrInsert("k", factory, cost), 7);
  EXPECT_EQ(cache.GetOrInsert("k", factory, cost), 7);
  EXPECT_EQ(calls, 1);
}

TEST(CacheTest, ClearEmptiesEveryShard) {
  StringCache cache(/*capacity_bytes=*/1 << 16, /*num_shards=*/8);
  for (int i = 0; i < 32; ++i) {
    cache.Insert("key" + std::to_string(i), i, 32);
  }
  cache.Clear();
  EXPECT_EQ(cache.NumEntries(), 0u);
  EXPECT_EQ(cache.SizeBytes(), 0u);
  EXPECT_FALSE(cache.Lookup("key0").has_value());
}

TEST(CacheTest, ConcurrentMixedAccessIsSafe) {
  // Hammer one small cache from many threads: lookups, inserts and
  // GetOrInsert over an overlapping key space, with eviction pressure.
  // The assertions are deliberately weak — this test exists for TSan.
  StringCache cache(/*capacity_bytes=*/8192, /*num_shards=*/4);
  ThreadPool pool(8);
  pool.ParallelFor(8, [&cache](size_t w) {
    for (int i = 0; i < 500; ++i) {
      const std::string key = "key" + std::to_string(i % 40);
      if (i % 3 == 0) {
        cache.Insert(key, static_cast<int>(w), 64);
      } else if (i % 3 == 1) {
        auto hit = cache.Lookup(key);
        if (hit.has_value()) {
          ASSERT_GE(*hit, 0);
          ASSERT_LT(*hit, 48);
        }
      } else {
        const int got = cache.GetOrInsert(
            key, [i] { return i % 40; }, [](const int&) { return size_t{64}; });
        ASSERT_GE(got, 0);
        ASSERT_LT(got, 48);
      }
    }
  });
  EXPECT_LE(cache.SizeBytes(), 8192u);
}

Nfa ChainNfa(bool reversed_insertion) {
  // a then b, two orders of AddTransition: canonical bytes must agree.
  Nfa nfa;
  nfa.AddStates(3);
  nfa.SetInitial(0);
  nfa.SetAccepting(2);
  if (reversed_insertion) {
    nfa.AddTransition(1, 1, 2);
    nfa.AddTransition(0, 1, 1);
    nfa.AddTransition(0, 0, 1);
  } else {
    nfa.AddTransition(0, 0, 1);
    nfa.AddTransition(0, 1, 1);
    nfa.AddTransition(1, 1, 2);
  }
  return nfa;
}

TEST(AutomatonInternerTest, DedupsAcrossTransitionInsertionOrder) {
  AutomatonInterner interner;
  const InternedNfa a = interner.Intern(ChainNfa(false));
  const InternedNfa b = interner.Intern(ChainNfa(true));
  EXPECT_EQ(a.unique_id, b.unique_id);
  EXPECT_EQ(a.nfa.get(), b.nfa.get());  // One shared canonical instance.
}

TEST(AutomatonInternerTest, DistinctLanguagesGetDistinctIds) {
  AutomatonInterner interner;
  Nfa other = ChainNfa(false);
  other.SetAccepting(1);
  const InternedNfa a = interner.Intern(ChainNfa(false));
  const InternedNfa b = interner.Intern(other);
  EXPECT_NE(a.unique_id, b.unique_id);
}

TEST(AutomatonInternerTest, ConcurrentInternAgreesOnOneId) {
  AutomatonInterner interner;
  ThreadPool pool(8);
  std::vector<uint64_t> ids(8, 0);
  pool.ParallelFor(8, [&](size_t w) {
    ids[w] = interner.Intern(ChainNfa(w % 2 == 0)).unique_id;
  });
  for (size_t w = 1; w < ids.size(); ++w) EXPECT_EQ(ids[w], ids[0]);
}

GraphDb TwoHopDb() {
  GraphDb db(Alphabet::OfChars("ab"));
  db.AddVertices(4);
  db.AddEdge(0, static_cast<Symbol>(0), 1);
  db.AddEdge(1, static_cast<Symbol>(0), 2);
  return db;
}

TEST(ReachMemoTest, CopiedGraphGetsFreshIdentity) {
  const GraphDb db = TwoHopDb();
  const GraphDb copy = db;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_NE(db.graph_id(), copy.graph_id());
}

TEST(ReachMemoTest, EveryMutationBumpsTheEpoch) {
  GraphDb db = TwoHopDb();
  const uint64_t e0 = db.graph_epoch();
  db.AddEdge(0, static_cast<Symbol>(0), 1);  // Duplicate triple: still bumps.
  const uint64_t e1 = db.graph_epoch();
  EXPECT_GT(e1, e0);
  db.AddVertex();
  EXPECT_GT(db.graph_epoch(), e1);
}

TEST(ReachMemoTest, StaleEpochEntryIsNeverReturnedAfterMutation) {
  GraphDb db = TwoHopDb();
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = CompileRegex("a*", &alphabet).ValueOrDie();
  AutomatonInterner interner;
  const InternedNfa interned = interner.Intern(lang);

  ReachMemo::Global().Clear();
  const auto before = RpqReachAllCached(db, interned);
  EXPECT_EQ(before, RpqReachAll(db, lang));

  // Extend reachability: 2 -a-> 3. A stale pre-mutation reach set would
  // miss (0,3), (1,3), (2,3).
  db.AddEdge(2, static_cast<Symbol>(0), 3);
  const auto after = RpqReachAllCached(db, interned);
  EXPECT_EQ(after, RpqReachAll(db, lang));
  EXPECT_NE(after, before);
}

TEST(ReachMemoTest, WarmLookupServesFromMemo) {
  GraphDb db = TwoHopDb();
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = CompileRegex("aa", &alphabet).ValueOrDie();
  AutomatonInterner interner;
  const InternedNfa interned = interner.Intern(lang);

  ReachMemo::Global().Clear();
  const auto cold = RpqReachAllCached(db, interned);
  const size_t entries = ReachMemo::Global().NumEntries();
  EXPECT_EQ(entries, db.NumVertices());
  const auto warm = RpqReachAllCached(db, interned);
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(ReachMemo::Global().NumEntries(), entries);  // No re-inserts.
}

TEST(ReachMemoTest, ConcurrentCachedReachIsConsistent) {
  GraphDb db = TwoHopDb();
  db.Finalize();
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = CompileRegex("a*", &alphabet).ValueOrDie();
  AutomatonInterner interner;
  const InternedNfa interned = interner.Intern(lang);
  ReachMemo::Global().Clear();
  const auto expected = RpqReachAll(db, lang);
  ThreadPool pool(8);
  pool.ParallelFor(8, [&](size_t) {
    ASSERT_EQ(RpqReachAllCached(db, interned), expected);
  });
}

TEST(ReachMemoTest, MovedFromGraphStopsServingTheOldIdentity) {
  GraphDb db = TwoHopDb();
  Alphabet alphabet = Alphabet::OfChars("ab");
  const Nfa lang = CompileRegex("a*", &alphabet).ValueOrDie();
  AutomatonInterner interner;
  const InternedNfa interned = interner.Intern(lang);
  ReachMemo::Global().Clear();
  const auto original = RpqReachAllCached(db, interned);
  const uint64_t original_id = db.graph_id();

  // Move steals the identity: the stolen graph keeps serving the warm
  // memo entries (it IS the same snapshot)...
  GraphDb stolen = std::move(db);
  EXPECT_EQ(stolen.graph_id(), original_id);
  EXPECT_EQ(RpqReachAllCached(stolen, interned), original);

  // ...while the moved-from shell holds a FRESH id at epoch 0. This is
  // the load-bearing half: if the shell retained (id, epoch), whatever
  // graph gets built in it next would silently serve the old graph's
  // reach sets.
  EXPECT_NE(db.graph_id(), original_id);
  EXPECT_EQ(db.graph_epoch(), 0u);

  // Rebuild the shell as a graph with the same shape but inverted labels:
  // a* reachability collapses to the reflexive pairs. Cached and uncached
  // answers must agree — a stale hit would resurrect `original`.
  GraphDb rebuilt(Alphabet::OfChars("ab"));
  rebuilt.AddVertices(4);
  rebuilt.AddEdge(0, static_cast<Symbol>(1), 1);
  rebuilt.AddEdge(1, static_cast<Symbol>(1), 2);
  db = std::move(rebuilt);
  EXPECT_EQ(RpqReachAllCached(db, interned), RpqReachAll(db, lang));
  EXPECT_NE(RpqReachAllCached(db, interned), original);
}

TEST(PlanCacheTest, AlphaRenamedQueriesShareOneEntry) {
  const Alphabet alphabet = Alphabet::OfChars("ab");
  const EcrpqQuery q1 =
      ParseEcrpq("q() := x -[/a*b/]-> y, y -[/b*a/]-> z", alphabet)
          .ValueOrDie();
  const EcrpqQuery q2 =
      ParseEcrpq("q() := u -[/a*b/]-> v, v -[/b*a/]-> w", alphabet)
          .ValueOrDie();
  ASSERT_EQ(CanonicalQueryKey(q1), CanonicalQueryKey(q2));

  ClearGlobalCaches();
  const QueryClassification c1 = ClassifyQueryCached(q1);
  EXPECT_EQ(GlobalPlanCache().NumEntries(), 1u);
  const QueryClassification c2 = ClassifyQueryCached(q2);
  EXPECT_EQ(GlobalPlanCache().NumEntries(), 1u);  // Hit, not a new entry.
  EXPECT_EQ(c1.engine, c2.engine);
  EXPECT_EQ(c1.measures.treewidth, c2.measures.treewidth);
}

TEST(PlanCacheTest, DistinctStructuresGetDistinctEntries) {
  const Alphabet alphabet = Alphabet::OfChars("ab");
  const EcrpqQuery chain =
      ParseEcrpq("q() := x -[/a*b/]-> y, y -[/b*a/]-> z", alphabet)
          .ValueOrDie();
  const EcrpqQuery fork =
      ParseEcrpq("q() := x -[/a*b/]-> y, x -[/b*a/]-> z", alphabet)
          .ValueOrDie();
  EXPECT_NE(CanonicalQueryKey(chain), CanonicalQueryKey(fork));
  ClearGlobalCaches();
  ClassifyQueryCached(chain);
  ClassifyQueryCached(fork);
  EXPECT_EQ(GlobalPlanCache().NumEntries(), 2u);
}

TEST(PlanCacheTest, DisableCacheBypassesEveryLayer) {
  const Alphabet alphabet = Alphabet::OfChars("ab");
  const EcrpqQuery query =
      ParseEcrpq("q() := x -[/a*b/]-> y", alphabet).ValueOrDie();
  GraphDb db = TwoHopDb();

  ClearGlobalCaches();
  EvalOptions options;
  options.disable_cache = true;
  const EvalResult off = EvaluatePlanned(db, query, options).ValueOrDie();
  EXPECT_EQ(GlobalPlanCache().NumEntries(), 0u);
  EXPECT_EQ(ReachMemo::Global().NumEntries(), 0u);

  options.disable_cache = false;
  const EvalResult on = EvaluatePlanned(db, query, options).ValueOrDie();
  EXPECT_GT(GlobalPlanCache().NumEntries(), 0u);
  EXPECT_EQ(off.satisfiable, on.satisfiable);
  EXPECT_EQ(off.answers, on.answers);
}

}  // namespace
}  // namespace ecrpq
