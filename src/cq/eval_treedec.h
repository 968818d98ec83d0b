// Tree-decomposition-based CQ evaluation — the |D|^{O(tw)} algorithm behind
// Proposition 2.3(1) and the polynomial upper bounds of Theorem 3.2(3).
//
// Pipeline (cq/join_tree.h): tree-decompose the Gaifman graph; assign every
// atom to a bag containing its variables; materialize each bag's relation
// as a flat row array (all assignments of the bag's variables satisfying
// its atoms, unconstrained bag variables ranging over the domain);
// semijoin-reduce leaves upward (Yannakakis); satisfiable iff the root
// survives; answers are enumerated by a top-down walk in pre-order, the
// first max_answers distinct answers in walk order being the ones kept.
// With an obs session, kAnswerLatencyNs gets one sample per distinct
// answer, measured from the call's start.
#ifndef ECRPQ_CQ_EVAL_TREEDEC_H_
#define ECRPQ_CQ_EVAL_TREEDEC_H_

#include "common/result.h"
#include "cq/cq.h"
#include "cq/eval_backtrack.h"

namespace ecrpq {

struct TreeDecEvalStats {
  int width_used = 0;
  size_t bag_tuples_materialized = 0;
};

Result<CqEvalResult> CqEvaluateTreeDec(const RelationalDb& db,
                                       const CqQuery& query,
                                       const CqEvalOptions& options = {},
                                       TreeDecEvalStats* stats = nullptr);

}  // namespace ecrpq

#endif  // ECRPQ_CQ_EVAL_TREEDEC_H_
