// E2 — Theorem 3.2(3): with cc_vertex, cc_hedge and treewidth all bounded,
// evaluation is polynomial in combined complexity.
//
// Workload: chains of length L with local eq-len atoms (cc_vertex = 2,
// cc_hedge = 1, tw <= 2), evaluated through the Lemma 4.3 pipeline with the
// tree-decomposition CQ engine.
//  * Query/L sweep at fixed |D|: cost grows ~linearly in L.
//  * Data/n sweep at fixed L: polynomial (the |D|^{2·ccv} materialization).
#include <benchmark/benchmark.h>

#include "common/obs.h"
#include "common/rng.h"
#include "eval/reduce_to_cq.h"
#include "graphdb/generators.h"
#include "workloads/query_gen.h"

namespace ecrpq {
namespace {

// One instrumented run outside the timing loop: export the pipeline metrics
// into the benchmark's user counters (and through them into BENCH_*.json).
void ExportPipelineCounters(benchmark::State& state, const GraphDb& db,
                            const EcrpqQuery& query) {
  obs::Session session;
  EvalOptions options;
  options.obs = &session;
  EvaluateViaCqReduction(db, query, /*use_treedec=*/true, options)
      .ValueOrDie();
  const obs::StatsReport report = session.Report();
  state.counters["product_states_expanded"] = static_cast<double>(
      report[obs::CounterId::kProductStatesExpanded]);
  state.counters["tuples_materialized"] =
      static_cast<double>(report[obs::CounterId::kTuplesMaterialized]);
  state.counters["bag_tuples_materialized"] =
      static_cast<double>(report[obs::CounterId::kBagTuplesMaterialized]);
}

void BM_TractableQueryLength(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const GraphDb db = CycleGraph(8, "ab");
  const EcrpqQuery query =
      ChainEqLenQuery(db.alphabet(), length).ValueOrDie();
  bool satisfiable = false;
  for (auto _ : state) {
    EvalResult result = EvaluateViaCqReduction(db, query).ValueOrDie();
    satisfiable = result.satisfiable;
    benchmark::DoNotOptimize(result);
  }
  state.counters["chain_length"] = length;
  state.counters["satisfiable"] = satisfiable ? 1 : 0;
  state.counters["n"] = length;  // Canonical size for --json.
  ExportPipelineCounters(state, db, query);
}
// The /10 point is a known non-monotone outlier (~3-4x the /12 time) and
// it is planning, not evaluation: profiling puts ~80% of its wall time in
// TreeDec.decompose. Up through length 11 the reduced CQ's Gaifman graph
// still fits TreewidthBest's exact_threshold (18 vertices), so planning
// runs the O*(2^n) Held-Karp exact DP, whose cost roughly quadruples per
// unit of length (0.1ms at /6, 1.1ms at /8, 10ms at /10); from /12 on the
// graph exceeds the threshold and planning falls back to the min-fill /
// min-degree heuristics (~0.05ms). The spike is that policy boundary —
// pay exponential planning only while it is affordable — and is stable
// across repetitions, so the perf gate's slack model handles it like any
// other point.
BENCHMARK(BM_TractableQueryLength)
    ->DenseRange(2, 14, 2)
    ->Unit(benchmark::kMillisecond);

void BM_TractableDataScaling(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const GraphDb db = CycleGraph(n, "ab");
  const EcrpqQuery query = ChainEqLenQuery(db.alphabet(), 4).ValueOrDie();
  for (auto _ : state) {
    EvalResult result = EvaluateViaCqReduction(db, query).ValueOrDie();
    benchmark::DoNotOptimize(result);
  }
  state.counters["vertices"] = n;
  state.counters["n"] = n;  // Canonical size for --json.
  ExportPipelineCounters(state, db, query);
}
BENCHMARK(BM_TractableDataScaling)
    ->RangeMultiplier(2)
    ->Range(4, 32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ecrpq
