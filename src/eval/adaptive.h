// Adaptive evaluation: budgeted lazy search with a regime-aware fallback.
//
// The E12 ablation shows the lazy product evaluator dominates on easy
// (satisfiable, small) instances while the Lemma 4.3 pipeline provides the
// polynomial worst-case guarantee in the tractable regime. The adaptive
// engine combines both, guided by the classification:
//
//   1. run the lazy generic evaluator with a product-state budget derived
//      from the database size and the query's cc_vertex;
//   2. if it finishes, done — its answer is exact;
//   3. if it hits the budget, fall back to the engine the planner
//      prescribes for the query's regime (pipeline engines materialize
//      bottom-up and are immune to unlucky search orders; in the PSPACE
//      regime there is nothing better, so the budget is lifted instead).
#ifndef ECRPQ_EVAL_ADAPTIVE_H_
#define ECRPQ_EVAL_ADAPTIVE_H_

#include "common/result.h"
#include "eval/generic_eval.h"
#include "eval/planner.h"

namespace ecrpq {

struct AdaptiveOptions {
  // Budget for phase 1 as a multiple of |V|^min(cc_vertex, 2) · cc_hedge.
  double budget_factor = 64.0;
  EvalOptions eval;                 // max_answers etc.
  PlannerThresholds thresholds;
};

struct AdaptiveReport {
  QueryClassification classification;
  size_t phase1_budget = 0;
  bool fell_back = false;
  EngineChoice fallback_engine = EngineChoice::kGeneric;
};

// The generic-only options in `options.eval` are checked up front
// against the fallback engine (CheckOptionsForEngine).
Result<EvalResult> EvaluateAdaptive(const GraphDb& db,
                                    const EcrpqQuery& query,
                                    const AdaptiveOptions& options = {},
                                    AdaptiveReport* report = nullptr);

// Evaluates on a named route (EngineRouteByName). `report` (optional)
// receives the classification on the routes that classify (auto,
// adaptive) and, on adaptive, the phase-1 outcome.
Result<EvalResult> EvaluateRoute(const GraphDb& db, const EcrpqQuery& query,
                                 EngineRoute route, const EvalOptions& options,
                                 AdaptiveReport* report = nullptr);

}  // namespace ecrpq

#endif  // ECRPQ_EVAL_ADAPTIVE_H_
