// Error-path coverage: every engine entry point must reject bad inputs
// with a descriptive Status (never crash, never silently succeed).
#include <gtest/gtest.h>

#include "eval/adaptive.h"
#include "eval/crpq_eval.h"
#include "eval/explain.h"
#include "eval/generic_eval.h"
#include "eval/planner.h"
#include "eval/reduce_to_cq.h"
#include "eval/satisfiability.h"
#include "graphdb/generators.h"
#include "query/parser.h"
#include "synchro/builders.h"

namespace ecrpq {
namespace {

const Alphabet kAb = Alphabet::OfChars("ab");

EcrpqQuery Parse(std::string_view text) {
  Result<EcrpqQuery> q = ParseEcrpq(text, kAb);
  EXPECT_TRUE(q.ok()) << q.status();
  return std::move(q).ValueOrDie();
}

TEST(ErrorPathsTest, AlphabetMismatchRejectedEverywhere) {
  // Database alphabet {x, y} is not a prefix of the query's {a, b}.
  GraphDb db(Alphabet::OfChars("xy"));
  db.AddVertices(2);
  db.AddEdge(0, "x", 1);
  const EcrpqQuery q = Parse("q() := u -[p]-> v, lang(/a/, p)");
  EXPECT_FALSE(EvaluateGeneric(db, q).ok());
  EXPECT_FALSE(EvaluateViaCqReduction(db, q).ok());
  EXPECT_FALSE(EvaluateCrpq(db, q).ok());
  EXPECT_FALSE(ReduceToCq(db, q).ok());
}

TEST(ErrorPathsTest, CompatiblePrefixAlphabetAccepted) {
  // Database over {a} only; query knows {a, b}: fine.
  GraphDb db(Alphabet::OfChars("a"));
  db.AddVertices(2);
  db.AddEdge(0, "a", 1);
  const EcrpqQuery q = Parse("q() := u -[p]-> v, lang(/a|b/, p)");
  Result<EvalResult> r = EvaluateGeneric(db, q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->satisfiable);
}

TEST(ErrorPathsTest, PinValidation) {
  const GraphDb db = CycleGraph(3, "ab");
  const EcrpqQuery q = Parse("q(x) := x -[p]-> y");
  EvalOptions options;
  options.pin = {{99, 0}};  // Unknown variable.
  EXPECT_FALSE(EvaluateGeneric(db, q, options).ok());
  options.pin = {{0, 99}};  // Vertex out of range.
  EXPECT_FALSE(EvaluateGeneric(db, q, options).ok());
}

TEST(ErrorPathsTest, ReductionBudgets) {
  const GraphDb db = CycleGraph(6, "ab");
  const EcrpqQuery q =
      Parse("q() := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2)");
  EvalOptions options;
  options.max_product_states = 1;
  Result<CqReduction> r = ReduceToCq(db, q, options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCapacityExceeded);
}

TEST(ErrorPathsTest, GenericOnlyOptionsRejectedOffTheGenericEngine) {
  // A pinned CRPQ routes to the CRPQ pipeline, which cannot pin: the
  // planner must refuse rather than return the unpinned answer set.
  const GraphDb db = CycleGraph(3, "ab");
  const EcrpqQuery crpq = Parse("q(x) := x -[/a/]-> y");
  EvalOptions pinned;
  pinned.pin = {{0, 0}};
  Result<EvalResult> planned = EvaluatePlanned(db, crpq, pinned);
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.status().code(), StatusCode::kInvalidArgument);

  EvalOptions streamed;
  streamed.on_answer = [](const std::vector<VertexId>&) { return true; };
  EvalOptions captured;
  captured.capture_assignment = true;
  for (const EvalOptions* options : {&pinned, &streamed, &captured}) {
    for (EngineChoice engine :
         {EngineChoice::kCrpqPipeline, EngineChoice::kCqReduction,
          EngineChoice::kCqReductionNp}) {
      Result<EvalResult> r = Evaluate(db, crpq, engine, *options);
      ASSERT_FALSE(r.ok()) << EngineChoiceName(engine);
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
    EXPECT_TRUE(Evaluate(db, crpq, EngineChoice::kGeneric, *options).ok());
  }

  // The adaptive route checks up front, against its fallback engine.
  AdaptiveOptions adaptive;
  adaptive.eval = pinned;
  Result<EvalResult> r = EvaluateAdaptive(db, crpq, adaptive);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ErrorPathsTest, InvalidQueriesRejectedBeforeEvaluation) {
  // Built by hand to bypass the builder's validation-on-build.
  GraphDb db(kAb);
  db.AddVertices(1);
  EcrpqQuery empty;  // Zero atoms, zero vars: valid and trivially true.
  Result<EvalResult> r = EvaluateGeneric(db, empty);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->satisfiable);
}

TEST(ErrorPathsTest, ExplainOnWrongArity) {
  const GraphDb db = CycleGraph(3, "ab");
  const EcrpqQuery q = Parse("q(x) := x -[p]-> y");
  EXPECT_FALSE(ExplainAnswer(db, q, {0, 1}).ok());
}

TEST(ErrorPathsTest, SatisfiabilityOfRelationWithImpossibleArity) {
  // eq over more tapes than the packer allows for this alphabet: the
  // builder rejects it at construction, the earliest possible point.
  Result<SyncRelation> too_wide = EqualityRelation(kAb, 40);
  EXPECT_FALSE(too_wide.ok());
  EXPECT_EQ(too_wide.status().code(), StatusCode::kCapacityExceeded);
}

TEST(ErrorPathsTest, AdaptiveSurfacesPhaseTwoErrors) {
  // Alphabet mismatch must propagate through the adaptive wrapper too.
  GraphDb db(Alphabet::OfChars("xy"));
  db.AddVertices(1);
  const EcrpqQuery q = Parse("q() := u -[p]-> v, lang(/a/, p)");
  EXPECT_FALSE(EvaluateAdaptive(db, q).ok());
}

}  // namespace
}  // namespace ecrpq
