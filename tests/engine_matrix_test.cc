// Engine matrix: every engine × every canonical workload family × several
// canonical databases, cross-checked pairwise. Structured coverage that
// complements the randomized differential suites.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "eval/adaptive.h"
#include "eval/crpq_eval.h"
#include "eval/generic_eval.h"
#include "eval/planner.h"
#include "eval/reduce_to_cq.h"
#include "graphdb/generators.h"
#include "graphdb/tuple_search.h"
#include "workloads/db_gen.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

const Alphabet kAb = Alphabet::OfChars("ab");

std::vector<GraphDb> CanonicalDbs() {
  Rng rng(2022);
  std::vector<GraphDb> dbs;
  dbs.push_back(CycleGraph(5, "ab"));
  dbs.push_back(PathGraph(6, "aab"));
  dbs.push_back(LayeredDag(&rng, 3, 3, 2, 2));
  dbs.push_back(RandomGraph(&rng, 6, 2.0, 2));
  return dbs;
}

struct NamedQuery {
  const char* name;
  EcrpqQuery query;
};

std::vector<NamedQuery> CanonicalQueries() {
  std::vector<NamedQuery> queries;
  queries.push_back({"chain", ChainEqLenQuery(kAb, 4).ValueOrDie()});
  queries.push_back({"clique", CliqueCrpqQuery(kAb, 3, "a*").ValueOrDie()});
  queries.push_back({"star", EqLenStarQuery(kAb, 2).ValueOrDie()});
  queries.push_back({"eqstar", EqualityStarQuery(kAb, 2).ValueOrDie()});
  queries.push_back({"example21", ExampleTwoOneQuery(kAb).ValueOrDie()});
  return queries;
}

using MatrixParam = std::tuple<int, int>;  // (query index, db index).

class EngineMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(EngineMatrixTest, AllApplicableEnginesAgree) {
  const auto [qi, di] = GetParam();
  const NamedQuery named = std::move(CanonicalQueries()[qi]);
  const GraphDb db = std::move(CanonicalDbs()[di]);

  const EvalResult generic = EvaluateGeneric(db, named.query).ValueOrDie();
  SCOPED_TRACE(std::string(named.name) + " on db " + std::to_string(di));

  const EvalResult planned = EvaluatePlanned(db, named.query).ValueOrDie();
  EXPECT_EQ(generic.satisfiable, planned.satisfiable);
  EXPECT_EQ(generic.answers, planned.answers);

  const EvalResult adaptive = EvaluateAdaptive(db, named.query).ValueOrDie();
  EXPECT_EQ(generic.answers, adaptive.answers);

  const EvalResult via_cq_td =
      EvaluateViaCqReduction(db, named.query, true).ValueOrDie();
  EXPECT_EQ(generic.answers, via_cq_td.answers);
  const EvalResult via_cq_bt =
      EvaluateViaCqReduction(db, named.query, false).ValueOrDie();
  EXPECT_EQ(generic.answers, via_cq_bt.answers);

  if (named.query.IsCrpq()) {
    const EvalResult crpq = EvaluateCrpq(db, named.query).ValueOrDie();
    EXPECT_EQ(generic.answers, crpq.answers);
  } else {
    EXPECT_FALSE(EvaluateCrpq(db, named.query).ok());
  }

  // The one dispatch path, engine by engine.
  for (EngineChoice engine :
       {EngineChoice::kCrpqPipeline, EngineChoice::kCqReduction,
        EngineChoice::kCqReductionNp, EngineChoice::kGeneric}) {
    SCOPED_TRACE(EngineChoiceName(engine));
    const Result<EvalResult> routed = Evaluate(db, named.query, engine, {});
    if (engine == EngineChoice::kCrpqPipeline && !named.query.IsCrpq()) {
      EXPECT_FALSE(routed.ok());
      continue;
    }
    ASSERT_TRUE(routed.ok()) << routed.status();
    EXPECT_EQ(generic.satisfiable, routed->satisfiable);
    EXPECT_EQ(generic.answers, routed->answers);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineMatrixTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 4)));

TEST(EngineLimitsTest, OversizedComponentReportsStatus) {
  // Relation construction already trips the letter-universe cap for huge
  // arities — a Status, not a crash.
  Result<EcrpqQuery> star31 = EqLenStarQuery(kAb, 31);
  EXPECT_FALSE(star31.ok());
  EXPECT_EQ(star31.status().code(), StatusCode::kCapacityExceeded);

  // The searcher's own limit (the 30-bit finished-tape mask) also surfaces
  // as a Status: a 31-tape unconstrained component is a valid machine but
  // an invalid search space.
  const GraphDb db = CycleGraph(2, "ab");
  Result<JoinMachine> machine = JoinMachine::Create(db.alphabet(), {}, 31);
  ASSERT_TRUE(machine.ok()) << machine.status();
  Result<TupleSearcher> searcher = TupleSearcher::Create(&db, &*machine);
  EXPECT_FALSE(searcher.ok());
  EXPECT_EQ(searcher.status().code(), StatusCode::kCapacityExceeded);
}

}  // namespace
}  // namespace ecrpq
