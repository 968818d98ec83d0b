// Planner: the characterization of Theorems 3.1 / 3.2 as an executable
// classifier + engine router.
//
// For a single query the three measures (cc_vertex, cc_hedge, treewidth of
// G^node) are of course finite; the regimes of the theorems speak about
// *classes* of queries where a measure is unbounded. The classifier reports
// the regime of the smallest natural class containing the query relative to
// configurable thresholds: a query whose measures are within thresholds is
// evaluated with the polynomial pipeline the upper-bound proofs describe;
// one with bounded cc but large treewidth falls to the NP engine; anything
// else runs the generic (PSPACE-shaped) evaluator.
#ifndef ECRPQ_EVAL_PLANNER_H_
#define ECRPQ_EVAL_PLANNER_H_

#include <string>
#include <string_view>

#include "common/cache.h"
#include "common/hash.h"
#include "common/result.h"
#include "eval/generic_eval.h"
#include "graphdb/graph_db.h"
#include "query/ast.h"
#include "structure/measures.h"

namespace ecrpq {

// Combined-complexity regimes of Theorem 3.2.
enum class EvalRegime {
  kPolynomialTime,  // cc_vertex, cc_hedge, tw all bounded.
  kNp,              // cc bounded, tw unbounded.
  kPspace,          // cc_vertex or cc_hedge unbounded.
};

// Parameterized regimes of Theorem 3.1.
enum class ParamRegime {
  kFpt,  // cc_vertex, tw bounded.
  kW1,   // cc_vertex bounded, tw unbounded.
  kXnl,  // cc_vertex unbounded.
};

const char* EvalRegimeName(EvalRegime r);
const char* ParamRegimeName(ParamRegime r);

struct PlannerThresholds {
  int max_cc_vertex = 2;
  int max_cc_hedge = 3;
  int max_treewidth = 2;
};

enum class EngineChoice {
  kCrpqPipeline,      // Corollary 2.4: R_L materialization + tree-dec CQ.
  kCqReduction,       // Lemma 4.3 pipeline + tree-dec CQ (poly regime).
  kCqReductionNp,     // Lemma 4.3 pipeline + backtracking CQ (NP regime).
  kGeneric,           // Lazy product evaluator (PSPACE regime).
};

const char* EngineChoiceName(EngineChoice e);

struct QueryClassification {
  TwoLevelMeasures measures;
  bool is_crpq = false;
  EvalRegime eval_regime = EvalRegime::kPspace;
  ParamRegime param_regime = ParamRegime::kXnl;
  EngineChoice engine = EngineChoice::kGeneric;

  std::string ToString() const;
  // Compact single-line JSON verdict for the telemetry layer (event-log
  // records, `trace` op metadata): the measures that drove the routing
  // decision plus the chosen regimes and engine. Key order is fixed, so
  // the serialization is deterministic.
  std::string ToJson() const;
};

QueryClassification ClassifyQuery(const EcrpqQuery& query,
                                  const PlannerThresholds& thresholds = {});

// Cached classification: the verdict is served from the process-wide plan
// cache, keyed on CanonicalQueryKey(query) (query/simplify.h — exact
// canonical bytes, so alpha-renamed / atom-permuted variants share one
// entry and distinct structures never collide) plus the thresholds. The
// expensive part of classification is the G^node treewidth computation;
// a warm hit skips it entirely. `obs_shard` (nullable) receives
// kCacheHits/kCacheMisses/kCacheLookupNs.
QueryClassification ClassifyQueryCached(
    const EcrpqQuery& query, const PlannerThresholds& thresholds = {},
    obs::MetricsShard* obs_shard = nullptr);

// The process-wide plan cache (tests, benches, stats).
using PlanCache =
    ShardedLruCache<std::string, QueryClassification, BytesHash>;
PlanCache& GlobalPlanCache();

// Drops every entry of every process-wide cross-query cache: the plan
// cache, the automaton interner and the reach-set memo. Test and
// cold-cache-benchmark hook; never required for correctness (epoch keys
// already make stale reach entries unreachable).
void ClearGlobalCaches();

// The one dispatch over EngineChoice: runs `query` on `engine`. The
// generic-only options (pin, on_answer, capture_assignment) are
// InvalidArgument on any other engine rather than silently dropped.
Result<EvalResult> Evaluate(const GraphDb& db, const EcrpqQuery& query,
                            EngineChoice engine,
                            const EvalOptions& options = {});

// The check Evaluate applies up front, for callers (EvaluateAdaptive) that
// commit to `engine` before calling it.
Status CheckOptionsForEngine(EngineChoice engine, const EvalOptions& options);

// Classifies, then Evaluate()s on the classification's engine.
// `classification_out` (optional) receives the plan.
Result<EvalResult> EvaluatePlanned(const GraphDb& db, const EcrpqQuery& query,
                                   const EvalOptions& options = {},
                                   const PlannerThresholds& thresholds = {},
                                   QueryClassification* classification_out =
                                       nullptr);

// What an engine name selects: the regime route (EvaluatePlanned), the
// budgeted adaptive route (EvaluateAdaptive, eval/adaptive.h) or one fixed
// engine (Evaluate).
struct EngineRoute {
  enum class Kind { kAuto, kAdaptive, kFixed };
  Kind kind = Kind::kAuto;
  EngineChoice engine = EngineChoice::kGeneric;  // kFixed only.
};

// The engine-name table behind `ecrpq_cli eval|profile --engine=` and the
// service's "engine" field: auto, adaptive, generic, crpq, cq (the Lemma 4.3
// tree-decomposition route). Any other name is InvalidArgument
// "unknown engine '<name>'".
Result<EngineRoute> EngineRouteByName(std::string_view name);

}  // namespace ecrpq

#endif  // ECRPQ_EVAL_PLANNER_H_
