// E7 — Lemma 4.3: the reduction to CQ materializes, per component, a
// relation over V^{2r} in O(|D|^{2·cc_vertex}) — we measure tuples and time
// against |D| for cc_vertex = 1 (CRPQ-like) and cc_vertex = 2 (Example 2.1).
// BM_EvaluateCcv2 adds the tree-decomposition join over the reduced CQ
// (the cq-reduction/treedec route), with its bag tuples and join steps.
#include <benchmark/benchmark.h>

#include "common/obs.h"
#include "eval/reduce_to_cq.h"
#include "graphdb/generators.h"
#include "query/parser.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

void BM_ReduceCcv1(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const GraphDb db = CycleGraph(n, "ab");
  const EcrpqQuery query =
      ParseEcrpq("q() := x -[/a(a|b)*/]-> y", db.alphabet()).ValueOrDie();
  size_t tuples = 0;
  for (auto _ : state) {
    CqReduction reduction = ReduceToCq(db, query).ValueOrDie();
    tuples = reduction.db->TotalTuples();
    benchmark::DoNotOptimize(reduction);
  }
  state.counters["vertices"] = n;
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["cc_vertex"] = 1;
}
BENCHMARK(BM_ReduceCcv1)
    ->RangeMultiplier(2)
    ->Range(4, 64)
    ->Unit(benchmark::kMillisecond);

void BM_ReduceCcv2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const GraphDb db = CycleGraph(n, "ab");
  const EcrpqQuery query =
      ExampleTwoOneQuery(db.alphabet()).ValueOrDie();
  size_t tuples = 0;
  size_t sources = 0;
  for (auto _ : state) {
    CqReduction reduction = ReduceToCq(db, query).ValueOrDie();
    tuples = reduction.db->TotalTuples();
    sources = reduction.source_tuples_enumerated;
    benchmark::DoNotOptimize(reduction);
  }
  state.counters["vertices"] = n;
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["source_tuples"] = static_cast<double>(sources);  // = n^2.
  state.counters["cc_vertex"] = 2;
}
BENCHMARK(BM_ReduceCcv2)
    ->RangeMultiplier(2)
    ->Range(4, 16)
    ->Unit(benchmark::kMillisecond);

void BM_EvaluateCcv2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const GraphDb db = CycleGraph(n, "ab");
  const EcrpqQuery query =
      ExampleTwoOneQuery(db.alphabet()).ValueOrDie();
  size_t answers = 0;
  for (auto _ : state) {
    EvalResult result =
        EvaluateViaCqReduction(db, query, /*use_treedec=*/true).ValueOrDie();
    answers = result.answers.size();
    benchmark::DoNotOptimize(result);
  }
  // One instrumented run outside the timing loop for the join counters.
  obs::Session session;
  EvalOptions options;
  options.obs = &session;
  EvaluateViaCqReduction(db, query, /*use_treedec=*/true, options)
      .ValueOrDie();
  const obs::StatsReport report = session.Report();
  state.counters["vertices"] = n;
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["bag_tuples_materialized"] =
      static_cast<double>(report[obs::CounterId::kBagTuplesMaterialized]);
  state.counters["assignments_tried"] =
      static_cast<double>(report[obs::CounterId::kAssignmentsTried]);
  state.counters["cc_vertex"] = 2;
}
BENCHMARK(BM_EvaluateCcv2)
    ->RangeMultiplier(2)
    ->Range(4, 16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ecrpq
