// CRPQ fast path (Corollary 2.4): each atom x -L-> y is replaced by the
// binary reachability relation R_L, computed in polynomial time by product
// BFS (graphdb/rpq_reach.h); the query becomes a CQ over binary relations
// whose Gaifman graph is the CRPQ abstraction.
#ifndef ECRPQ_EVAL_CRPQ_EVAL_H_
#define ECRPQ_EVAL_CRPQ_EVAL_H_

#include "common/result.h"
#include "eval/generic_eval.h"
#include "graphdb/graph_db.h"
#include "query/ast.h"

namespace ecrpq {

// Errors with InvalidArgument if !query.IsCrpq(). The CQ over the R_L
// relations runs on the tree-decomposition engine (polynomial for
// bounded-treewidth queries) and stops after options.max_answers answers.
// A non-null options.obs session observes the per-atom relation builds and
// the CQ phase and enforces the session budget (Status::ResourceExhausted
// on trip).
//
// By default each reach atom's language NFA is interned (shared across
// queries, see automata/interner.h) and its per-source reach sets are
// served from the epoch-keyed global reach memo (graphdb/reach_memo.h).
// options.disable_cache bypasses both — answers are byte-identical either
// way; the flag exists for ablation and the ecrpq_cli --no-cache escape
// hatch.
Result<EvalResult> EvaluateCrpq(const GraphDb& db, const EcrpqQuery& query,
                                const EvalOptions& options = {});

}  // namespace ecrpq

#endif  // ECRPQ_EVAL_CRPQ_EVAL_H_
