#include "eval/adaptive.h"

#include <algorithm>
#include <cmath>

namespace ecrpq {
namespace {

// Phase 1 budgets for at most |V|^2 source tuples, however wide the
// components are.
constexpr int kCcVertexCap = 2;

}  // namespace

Result<EvalResult> EvaluateAdaptive(const GraphDb& db,
                                    const EcrpqQuery& query,
                                    const AdaptiveOptions& options,
                                    AdaptiveReport* report) {
  const QueryClassification classification =
      ClassifyQuery(query, options.thresholds);
  ECRPQ_RETURN_NOT_OK(
      CheckOptionsForEngine(classification.engine, options.eval));
  if (report != nullptr) {
    report->classification = classification;
    report->fell_back = false;
  }

  // Phase-1 budget: enough to cover an easy instance's reachable product
  // space, small enough to bail out before exponential blowup.
  const double n = std::max(1, db.NumVertices());
  const int r = std::min(classification.measures.cc_vertex, kCcVertexCap);
  const double raw = options.budget_factor * std::pow(n, r) *
                     std::max(1, classification.measures.cc_hedge);
  // At least 1: a budget of 0 would mean "unlimited" downstream.
  const size_t budget =
      std::max<size_t>(1, static_cast<size_t>(std::min(raw, 1e9)));
  if (report != nullptr) report->phase1_budget = budget;

  EvalOptions phase1 = options.eval;
  phase1.max_product_states = budget;
  ECRPQ_ASSIGN_OR_RAISE(EvalResult lazy, EvaluateGeneric(db, query, phase1));
  if (!lazy.aborted) return lazy;

  // Phase 2: regime-prescribed engine, unbudgeted.
  if (report != nullptr) {
    report->fell_back = true;
    report->fallback_engine = classification.engine;
  }
  EvalOptions fallback = options.eval;
  if (classification.engine == EngineChoice::kGeneric) {
    // PSPACE regime: nothing structurally better; lift the budget.
    fallback.max_product_states = 0;
  }
  return Evaluate(db, query, classification.engine, fallback);
}

Result<EvalResult> EvaluateRoute(const GraphDb& db, const EcrpqQuery& query,
                                 EngineRoute route, const EvalOptions& options,
                                 AdaptiveReport* report) {
  switch (route.kind) {
    case EngineRoute::Kind::kAuto:
      return EvaluatePlanned(db, query, options, {},
                             report != nullptr ? &report->classification
                                               : nullptr);
    case EngineRoute::Kind::kAdaptive: {
      AdaptiveOptions adaptive;
      adaptive.eval = options;
      return EvaluateAdaptive(db, query, adaptive, report);
    }
    case EngineRoute::Kind::kFixed:
      return Evaluate(db, query, route.engine, options);
  }
  return Status::Internal("unknown engine route");
}

}  // namespace ecrpq
