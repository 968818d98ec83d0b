// Backtracking CQ evaluation — the general (NP) algorithm.
//
// Atoms are ordered greedily to bind variables early; candidate tuples for
// each atom come from per-bound-pattern hash indexes (cq/relation.h).
#ifndef ECRPQ_CQ_EVAL_BACKTRACK_H_
#define ECRPQ_CQ_EVAL_BACKTRACK_H_

#include <cstdint>
#include <vector>

#include "common/obs.h"
#include "common/result.h"
#include "cq/cq.h"

namespace ecrpq {

struct CqEvalOptions {
  // Stop after this many distinct answers (0 = unlimited). Satisfiability
  // checks pass 1.
  size_t max_answers = 0;
  // Abort after this many backtracking steps (0 = unlimited).
  size_t max_steps = 0;
  // Observability & resource-governance session (common/obs.h). A tripped
  // budget turns the evaluation into Status::ResourceExhausted (the
  // max_steps cutoff above instead returns OK with aborted = true). Null =
  // zero overhead.
  obs::Session* obs = nullptr;
};

struct CqEvalResult {
  bool satisfiable = false;
  // Distinct answers projected to free_vars (empty vector element for
  // Boolean queries when satisfiable).
  std::vector<std::vector<uint32_t>> answers;
  size_t steps = 0;
  bool aborted = false;
};

// Greedy join order over query.atoms[ids] (ids ascending): repeatedly the
// atom with the fewest unbound variable occurrences, ties to the smaller
// relation, then to the earlier id. Returns the ids in join order.
std::vector<size_t> OrderAtoms(const RelationalDb& db, const CqQuery& query,
                               const std::vector<size_t>& ids);

Result<CqEvalResult> CqEvaluateBacktracking(const RelationalDb& db,
                                            const CqQuery& query,
                                            const CqEvalOptions& options = {});

// Convenience: Boolean satisfiability.
Result<bool> CqSatisfiable(const RelationalDb& db, const CqQuery& query);

}  // namespace ecrpq

#endif  // ECRPQ_CQ_EVAL_BACKTRACK_H_
