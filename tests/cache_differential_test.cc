// CacheDifferentialSuite: the cross-query caching layer must be invisible
// in answers. Over many seeded random instances:
//  - cache-on and cache-off evaluation are byte-identical, at 1 and 4
//    worker threads, for the planned router and the CRPQ fast path;
//  - interleaved graph mutations between evaluations never let a stale
//    reach set leak into an answer (the epoch key makes pre-mutation
//    entries unreachable);
//  - warm re-evaluation of the same query equals its own cold run.
// Runs under TSan in CI (tools/ci.sh stage 5) and in the determinism
// stage (stage 6).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "eval/crpq_eval.h"
#include "eval/planner.h"
#include "graphdb/graph_db.h"
#include "query/parser.h"

namespace ecrpq {
namespace {

const Alphabet kAb = Alphabet::OfChars("ab");

// Random 2-4 variable CRPQs out of a small regex menu — every instance
// routes to the CRPQ pipeline, the layer with all three caches on its path.
EcrpqQuery RandomCrpq(Rng* rng) {
  static const char* kRegexes[] = {"a*", "a*b", "b*a", "(ab)*", "(a|b)*a",
                                   "ab*"};
  const int num_nodes = 2 + static_cast<int>(rng->Below(3));
  const int num_atoms = 1 + static_cast<int>(rng->Below(3));
  std::string text = rng->Chance(0.5) ? "q(x0) := " : "q() := ";
  for (int i = 0; i < num_atoms; ++i) {
    if (i > 0) text += ", ";
    text += "x" + std::to_string(rng->Below(num_nodes)) + " -[/" +
            kRegexes[rng->Below(6)] + "/]-> x" +
            std::to_string(rng->Below(num_nodes));
  }
  Result<EcrpqQuery> q = ParseEcrpq(text, kAb);
  EXPECT_TRUE(q.ok()) << q.status() << "\n" << text;
  return std::move(q).ValueOrDie();
}

GraphDb RandomDb(Rng* rng) {
  const int n = 3 + static_cast<int>(rng->Below(6));  // 3-8 vertices.
  GraphDb db(kAb);
  db.AddVertices(n);
  const int edges = n + static_cast<int>(rng->Below(2 * n));
  for (int e = 0; e < edges; ++e) {
    db.AddEdge(static_cast<VertexId>(rng->Below(n)),
               static_cast<Symbol>(rng->Below(2)),
               static_cast<VertexId>(rng->Below(n)));
  }
  return db;
}

void Mutate(GraphDb* db, Rng* rng) {
  const int n = static_cast<int>(db->NumVertices());
  db->AddEdge(static_cast<VertexId>(rng->Below(n)),
              static_cast<Symbol>(rng->Below(2)),
              static_cast<VertexId>(rng->Below(n)));
}

class CacheDifferentialSuite : public ::testing::TestWithParam<uint64_t> {};

// Planned evaluation, cache-on vs cache-off, at 1 and 4 threads.
TEST_P(CacheDifferentialSuite, PlannedCacheOnOffByteIdentical) {
  Rng rng(GetParam());
  const EcrpqQuery query = RandomCrpq(&rng);
  const GraphDb db = RandomDb(&rng);

  ClearGlobalCaches();
  for (int threads : {1, 4}) {
    EvalOptions off;
    off.num_threads = threads;
    off.disable_cache = true;
    const EvalResult reference =
        EvaluatePlanned(db, query, off).ValueOrDie();
    // Twice with caches on: the first run populates, the second hits.
    for (int round = 0; round < 2; ++round) {
      EvalOptions on;
      on.num_threads = threads;
      const EvalResult cached = EvaluatePlanned(db, query, on).ValueOrDie();
      ASSERT_EQ(reference.satisfiable, cached.satisfiable)
          << "seed " << GetParam() << " threads " << threads;
      ASSERT_EQ(reference.answers, cached.answers)
          << "seed " << GetParam() << " threads " << threads << " round "
          << round << "\nquery: " << query.ToString();
    }
  }
}

// The CRPQ fast path called directly, same contract.
TEST_P(CacheDifferentialSuite, CrpqFastPathCacheOnOffByteIdentical) {
  Rng rng(GetParam() + 1000);
  const EcrpqQuery query = RandomCrpq(&rng);
  const GraphDb db = RandomDb(&rng);

  ClearGlobalCaches();
  EvalOptions off;
  off.disable_cache = true;
  const EvalResult reference = EvaluateCrpq(db, query, off).ValueOrDie();
  for (int round = 0; round < 2; ++round) {
    const EvalResult cached = EvaluateCrpq(db, query).ValueOrDie();
    ASSERT_EQ(reference.answers, cached.answers)
        << "seed " << GetParam() << " round " << round << "\nquery: "
        << query.ToString();
  }
}

// Interleaved mutations: evaluate, mutate, evaluate, ... — after every
// mutation the cached answers must equal a cache-off run on the *current*
// graph, never the pre-mutation one.
TEST_P(CacheDifferentialSuite, MutationsNeverYieldStaleAnswers) {
  Rng rng(GetParam() + 2000);
  const EcrpqQuery query = RandomCrpq(&rng);
  GraphDb db = RandomDb(&rng);

  ClearGlobalCaches();
  for (int step = 0; step < 4; ++step) {
    EvalOptions off;
    off.disable_cache = true;
    const EvalResult reference =
        EvaluatePlanned(db, query, off).ValueOrDie();
    const EvalResult cached = EvaluatePlanned(db, query).ValueOrDie();
    ASSERT_EQ(reference.answers, cached.answers)
        << "seed " << GetParam() << " step " << step << "\nquery: "
        << query.ToString();
    Mutate(&db, &rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheDifferentialSuite,
                         ::testing::Range<uint64_t>(0, 60));

}  // namespace
}  // namespace ecrpq
