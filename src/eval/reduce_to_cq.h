// The reduction of Lemma 4.3: ECRPQ evaluation → CQ evaluation.
//
// For each G^rel component with path variables π_1..π_r (endpoints x_i, y_i)
// the relation
//   R'_C = {(u_1, v_1, ..., u_r, v_r) : ∃ paths u_i → v_i whose labels are
//           jointly accepted by the component's merged relation}
// is materialized over the vertex domain, and the ECRPQ becomes the CQ
//   ⋀_C R'_C(x_1, y_1, ..., x_r, y_r)
// over 2r pairwise-distinct variables per atom (coinciding endpoints are
// split into fresh copies whose equality is enforced inside R'_C), so each
// atom contributes a full 2r-clique to the Gaifman graph while the atom
// hypergraph keeps the component chain structure. Construction cost is
// O(|D|^{2·cc_vertex}) per component — polynomial when cc_vertex (and, for
// the query-rewriting step, cc_hedge) are bounded, as the lemma states.
#ifndef ECRPQ_EVAL_REDUCE_TO_CQ_H_
#define ECRPQ_EVAL_REDUCE_TO_CQ_H_

#include <memory>

#include "common/obs.h"
#include "common/result.h"
#include "cq/cq.h"
#include "cq/relational_db.h"
#include "eval/generic_eval.h"
#include "graphdb/graph_db.h"
#include "query/ast.h"

namespace ecrpq {

struct CqReduction {
  std::unique_ptr<RelationalDb> db;
  CqQuery query;
  // Diagnostics for experiment E7.
  size_t source_tuples_enumerated = 0;
  size_t product_states = 0;
};

// Reads options.num_threads, max_product_states and obs. The materialized
// relations and any budget error are identical for every num_threads:
// batches of source tuples are searched concurrently but merged in
// enumeration order. A per-source search beyond max_product_states is
// CapacityExceeded; a tripped session budget is ResourceExhausted, and the
// partial StatsReport stays readable via the session.
Result<CqReduction> ReduceToCq(const GraphDb& db, const EcrpqQuery& query,
                               const EvalOptions& options = {});

// End-to-end: reduce, then evaluate the CQ with the tree-decomposition
// engine (use_treedec) or the backtracking engine, stopping after
// options.max_answers answers. This is the paper's polynomial-time / NP
// pipeline for bounded-cc queries.
Result<EvalResult> EvaluateViaCqReduction(const GraphDb& db,
                                          const EcrpqQuery& query,
                                          bool use_treedec = true,
                                          const EvalOptions& options = {});

}  // namespace ecrpq

#endif  // ECRPQ_EVAL_REDUCE_TO_CQ_H_
