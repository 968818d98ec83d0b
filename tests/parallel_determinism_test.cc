// The parallel evaluation layer must be invisible in results: for every
// engine entry point, a pool of N workers produces byte-identical output to
// the sequential run — including early-stop cutoffs and streaming-callback
// sequences. Only EvalStats may differ (concurrently explored branches are
// not un-explored by an early stop).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "automata/regex.h"
#include "common/rng.h"
#include "eval/generic_eval.h"
#include "eval/merge.h"
#include "eval/reduce_to_cq.h"
#include "graphdb/generators.h"
#include "graphdb/rpq_reach.h"
#include "graphdb/tuple_search.h"
#include "query/parser.h"
#include "synchro/join.h"
#include "workloads/db_gen.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

const Alphabet kAb = Alphabet::OfChars("ab");

EcrpqQuery Parse(std::string_view text) {
  Result<EcrpqQuery> q = ParseEcrpq(text, kAb);
  EXPECT_TRUE(q.ok()) << q.status();
  return std::move(q).ValueOrDie();
}

EvalResult Eval(const GraphDb& db, const EcrpqQuery& q, EvalOptions options) {
  Result<EvalResult> r = EvaluateGeneric(db, q, options);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).ValueOrDie();
}

// Runs the query sequentially and with a 4-worker pool and expects every
// user-visible field of EvalResult to match.
void ExpectThreadInvariant(const GraphDb& db, const EcrpqQuery& q,
                           EvalOptions options = {}) {
  options.num_threads = 1;
  const EvalResult seq = Eval(db, q, options);
  options.num_threads = 4;
  const EvalResult par = Eval(db, q, options);
  EXPECT_EQ(seq.satisfiable, par.satisfiable);
  EXPECT_EQ(seq.aborted, par.aborted);
  EXPECT_EQ(seq.answers, par.answers);
  EXPECT_EQ(seq.first_assignment, par.first_assignment);
}

TEST(ParallelDeterminismTest, TwoPathEqLenAnswers) {
  ExpectThreadInvariant(
      CycleGraph(6, "ab"),
      Parse("q(x, y) := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2)"));
}

TEST(ParallelDeterminismTest, LayeredDagWorkloads) {
  Rng rng(61);
  const GraphDb db = LayeredDag(&rng, 4, 6, 2, 2);
  ExpectThreadInvariant(db, ChainEqLenQuery(kAb, 3).ValueOrDie());
  ExpectThreadInvariant(db, CliqueCrpqQuery(kAb, 3, "a*").ValueOrDie());
  ExpectThreadInvariant(db, EqLenStarQuery(kAb, 3).ValueOrDie());
}

TEST(ParallelDeterminismTest, FreeVariableProjection) {
  Rng rng(7);
  const GraphDb db = RandomGraph(&rng, 12, 2.0, 2);
  ExpectThreadInvariant(db,
                        Parse("q(x, z) := x -[/a(a|b)*/]-> y, y -[/b*/]-> z"));
}

TEST(ParallelDeterminismTest, CaptureAssignment) {
  EvalOptions options;
  options.capture_assignment = true;
  ExpectThreadInvariant(
      CycleGraph(5, "ab"),
      Parse("q(x, y) := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2)"), options);
}

TEST(ParallelDeterminismTest, MaxAnswersEarlyStop) {
  const GraphDb db = CycleGraph(8, "ab");
  const EcrpqQuery q = Parse("q(x, y) := x -[/a|b/]-> y");
  EvalOptions options;
  options.max_answers = 3;
  // The cutoff must land on the same three answers for every pool size.
  ExpectThreadInvariant(db, q, options);
  options.num_threads = 4;
  const EvalResult par = Eval(db, q, options);
  EXPECT_EQ(par.answers.size(), 3u);
}

TEST(ParallelDeterminismTest, StreamingCallbackSequence) {
  const GraphDb db = CycleGraph(6, "ab");
  const EcrpqQuery q =
      Parse("q(x, y) := x -[p1]-> y, x -[p2]-> y, eqlen(p1, p2)");
  auto stream = [&](int num_threads) {
    std::vector<std::vector<VertexId>> streamed;
    EvalOptions options;
    options.num_threads = num_threads;
    options.on_answer = [&](const std::vector<VertexId>& answer) {
      streamed.push_back(answer);
      return true;
    };
    Eval(db, q, options);
    return streamed;
  };
  // Not just the same set: the same sequence, in the same order.
  EXPECT_EQ(stream(1), stream(4));
}

TEST(ParallelDeterminismTest, StreamingEarlyStopCount) {
  const GraphDb db = CycleGraph(8, "ab");
  const EcrpqQuery q = Parse("q(x, y) := x -[/a|b/]-> y");
  auto stop_after = [&](int num_threads, int limit) {
    std::vector<std::vector<VertexId>> streamed;
    EvalOptions options;
    options.num_threads = num_threads;
    options.on_answer = [&](const std::vector<VertexId>& answer) {
      streamed.push_back(answer);
      return static_cast<int>(streamed.size()) < limit;
    };
    const EvalResult r = Eval(db, q, options);
    EXPECT_EQ(streamed.size(), static_cast<size_t>(limit));
    EXPECT_EQ(r.answers.size(), static_cast<size_t>(limit));
    return streamed;
  };
  EXPECT_EQ(stop_after(1, 3), stop_after(4, 3));
}

TEST(ParallelDeterminismTest, BooleanQueries) {
  const GraphDb db = CycleGraph(4, "ab");
  ExpectThreadInvariant(db, Parse("q() := x -[/ab/]-> y"));
  ExpectThreadInvariant(db, Parse("q() := x -[/aa/]-> y"));  // Unsat.
}

TEST(ParallelDeterminismTest, CqReductionRelations) {
  const GraphDb db = CycleGraph(6, "ab");
  const EcrpqQuery q = ChainEqLenQuery(kAb, 4).ValueOrDie();
  auto eval = [&](int num_threads) {
    EvalOptions options;
    options.num_threads = num_threads;
    Result<EvalResult> r =
        EvaluateViaCqReduction(db, q, /*use_treedec=*/true, options);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).ValueOrDie();
  };
  const EvalResult seq = eval(1);
  const EvalResult par = eval(4);
  EXPECT_EQ(seq.satisfiable, par.satisfiable);
  EXPECT_EQ(seq.answers, par.answers);
  EXPECT_EQ(seq.stats.product_states, par.stats.product_states);
}

TEST(ParallelDeterminismTest, CqReductionBudgetError) {
  // Budget violations must also be thread-invariant: every pool size
  // aborts with the same error.
  Rng rng(3);
  const GraphDb db = RandomGraph(&rng, 10, 2.0, 2);
  const EcrpqQuery q = EqLenStarQuery(kAb, 2).ValueOrDie();
  auto error_at = [&](int num_threads) {
    EvalOptions options;
    options.num_threads = num_threads;
    options.max_product_states = 5;
    Result<CqReduction> r = ReduceToCq(db, q, options);
    EXPECT_FALSE(r.ok()) << "pool size " << num_threads;
    return r.status();
  };
  const Status sequential = error_at(1);
  EXPECT_EQ(sequential.code(), StatusCode::kCapacityExceeded);
  EXPECT_EQ(sequential.ToString(), error_at(4).ToString());
}

TEST(ParallelDeterminismTest, RpqReachAllAnyPoolSize) {
  Rng rng(10);
  const GraphDb db = RandomGraph(&rng, 20, 2.5, 2);
  Alphabet alphabet = Alphabet::OfChars("ab");
  Result<Nfa> lang = CompileRegex("a(a|b)*b", &alphabet);
  ASSERT_TRUE(lang.ok()) << lang.status();
  const auto seq = RpqReachAll(db, *lang, 1);
  EXPECT_EQ(seq, RpqReachAll(db, *lang, 2));
  EXPECT_EQ(seq, RpqReachAll(db, *lang, 4));
  EXPECT_TRUE(std::is_sorted(seq.begin(), seq.end()));
}

TEST(ParallelDeterminismTest, DenseAndSparseVisitedAgree) {
  // The dense-bitset BFS is an internal representation switch; both paths
  // must explore the same states and report the same accepting targets.
  Rng rng(42);
  const GraphDb db = RandomGraph(&rng, 9, 2.0, 2);
  const EcrpqQuery q = EqLenStarQuery(kAb, 2).ValueOrDie();
  const std::vector<ComponentPlan> plans = PlanComponents(q);
  ASSERT_FALSE(plans.empty());
  const ComponentPlan& plan = plans[0];
  const int r = static_cast<int>(plan.paths.size());

  auto reach_with = [&](bool disable_dense,
                        const std::vector<VertexId>& sources) {
    Result<JoinMachine> machine =
        JoinMachine::Create(q.alphabet(), plan.machine_components, r);
    EXPECT_TRUE(machine.ok()) << machine.status();
    TupleSearchOptions options;
    options.disable_dense_visited = disable_dense;
    Result<TupleSearcher> searcher =
        TupleSearcher::Create(&db, &*machine, options);
    EXPECT_TRUE(searcher.ok()) << searcher.status();
    ReachSet copy = searcher->Reach(sources);
    return copy;
  };

  const VertexId n = static_cast<VertexId>(db.NumVertices());
  for (VertexId u = 0; u < n; ++u) {
    const std::vector<VertexId> sources(r, u);
    const ReachSet dense = reach_with(false, sources);
    const ReachSet sparse = reach_with(true, sources);
    EXPECT_EQ(dense.targets, sparse.targets) << "source " << u;
    EXPECT_EQ(dense.explored_states, sparse.explored_states) << "source " << u;
    EXPECT_EQ(dense.aborted, sparse.aborted);
  }
}

TEST(ParallelDeterminismTest, DenseAndSparseAgreeOnBudgetAbort) {
  const GraphDb db = CycleGraph(6, "ab");
  const EcrpqQuery q = EqLenStarQuery(kAb, 2).ValueOrDie();
  const std::vector<ComponentPlan> plans = PlanComponents(q);
  ASSERT_FALSE(plans.empty());
  const int r = static_cast<int>(plans[0].paths.size());
  for (bool disable_dense : {false, true}) {
    Result<JoinMachine> machine =
        JoinMachine::Create(q.alphabet(), plans[0].machine_components, r);
    ASSERT_TRUE(machine.ok()) << machine.status();
    TupleSearchOptions options;
    options.disable_dense_visited = disable_dense;
    options.max_states = 3;
    Result<TupleSearcher> searcher =
        TupleSearcher::Create(&db, &*machine, options);
    ASSERT_TRUE(searcher.ok()) << searcher.status();
    const ReachSet& reach = searcher->Reach(std::vector<VertexId>(r, 0));
    EXPECT_TRUE(reach.aborted);
    EXPECT_EQ(reach.explored_states, 3u);
  }
}

TEST(ParallelDeterminismTest, ReachManyMatchesSequentialReach) {
  Rng rng(5);
  const GraphDb db = RandomGraph(&rng, 8, 2.0, 2);
  const EcrpqQuery q = EqLenStarQuery(kAb, 2).ValueOrDie();
  const std::vector<ComponentPlan> plans = PlanComponents(q);
  ASSERT_FALSE(plans.empty());
  const int r = static_cast<int>(plans[0].paths.size());

  std::vector<std::vector<VertexId>> sources;
  const VertexId n = static_cast<VertexId>(db.NumVertices());
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      sources.push_back({u, v});
    }
  }
  ASSERT_EQ(r, 2);

  // Reference: one searcher, no pool.
  Result<JoinMachine> ref_machine =
      JoinMachine::Create(q.alphabet(), plans[0].machine_components, r);
  ASSERT_TRUE(ref_machine.ok());
  Result<TupleSearcher> ref =
      TupleSearcher::Create(&db, &*ref_machine, TupleSearchOptions{});
  ASSERT_TRUE(ref.ok());

  // Pool of 3 workers, one searcher each.
  db.Finalize();
  std::vector<JoinMachine> machines;
  std::vector<TupleSearcher> searchers;
  machines.reserve(3);
  searchers.reserve(3);
  std::vector<TupleSearcher*> ptrs;
  for (int w = 0; w < 3; ++w) {
    machines.push_back(
        JoinMachine::Create(q.alphabet(), plans[0].machine_components, r)
            .ValueOrDie());
    searchers.push_back(
        TupleSearcher::Create(&db, &machines.back(), TupleSearchOptions{})
            .ValueOrDie());
    ptrs.push_back(&searchers.back());
  }
  ThreadPool pool(3);
  const std::vector<const ReachSet*> results =
      ReachMany(ptrs, sources, &pool);
  ASSERT_EQ(results.size(), sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    ASSERT_NE(results[i], nullptr) << "slot " << i;
    EXPECT_EQ(results[i]->targets, ref->Reach(sources[i]).targets)
        << "slot " << i;
  }
}

}  // namespace
}  // namespace ecrpq
