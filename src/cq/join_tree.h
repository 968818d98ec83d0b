// The bag core shared by tree-decomposition CQ evaluation
// (cq/eval_treedec.h) and homomorphism counting (cq/count.h): a rooted tree
// decomposition of the query whose bags hold their satisfying assignments
// as flat, row-major uint32 arrays.
//
//   BuildJoinTree    decompose the Gaifman graph, root it, assign atoms to
//                    bags, contract atomless bags contained in their parent
//   MaterializeBags  per bag, an in-place backtracking over its atoms that
//                    writes rows straight into the bag's array; then sort
//                    and dedup
//   SemijoinUp       Yannakakis up-pass: index each non-root bag by its
//                    separator projection, then keep the parent rows whose
//                    projection occurs in it
//
// After SemijoinUp every surviving row of a bag extends to every child, so
// a top-down walk over JoinBag::Matching never dead-ends.
#ifndef ECRPQ_CQ_JOIN_TREE_H_
#define ECRPQ_CQ_JOIN_TREE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "cq/cq.h"
#include "cq/eval_backtrack.h"

namespace ecrpq {

struct JoinBag {
  std::vector<int> vars;      // Sorted; never empty.
  std::vector<size_t> atoms;  // Indices into query.atoms, ascending.
  int parent = -1;
  // Separator with the parent: the positions of its variables in `vars`
  // and in the parent's vars.
  std::vector<int> sep_pos;
  std::vector<int> parent_sep_pos;
  // Assignments of `vars`, row-major; sorted and distinct once
  // materialized.
  std::vector<uint32_t> rows;
  // Built by SemijoinUp for non-root bags: row ids stably sorted by their
  // separator projection, and those projections in the same order
  // (sep_pos.size() values each).
  std::vector<uint32_t> sep_order;
  std::vector<uint32_t> sep_keys;

  size_t NumRows() const { return rows.size() / vars.size(); }
  const uint32_t* Row(size_t i) const { return rows.data() + i * vars.size(); }
  // Positions [first, last) of sep_order whose rows project to `key`.
  std::pair<size_t, size_t> Matching(const uint32_t* key) const;
};

struct JoinTree {
  int width = 0;  // Of the decomposition, before contraction.
  // Bags in the enumeration walk's pre-order: bags[0] is the root and a
  // parent precedes its children.
  std::vector<JoinBag> bags;
};

// TreewidthBest + DecompositionFromEliminationOrder over the Gaifman graph,
// rooted at the first eliminated variable's bag. Each atom goes to the
// first bag (in decomposition order) holding its variables. A non-root bag
// contained in its parent with no atoms of its own would hold every domain
// value of its variables and filter nothing; it is contracted, its
// children spliced into the parent's child list at its position, which
// leaves the walk order of every other bag unchanged.
Result<JoinTree> BuildJoinTree(const CqQuery& query);

// Materializes every bag: the bag's atoms in OrderAtoms order, candidate
// rows from a sorted prefix range or Relation::Matches, one step and one
// kAssignmentsTried per matched row, bag variables no atom binds ranging
// over the domain. options.max_steps applies per bag; a bag that reaches
// it stops the run and the result is true (aborted). options.obs is
// polled every 4,096 search nodes and once after each bag (budget trip =
// ResourceExhausted). Records kBagWidth, kPhaseBagMaterializeNs and
// kBagTuplesMaterialized on `shard` and adds the bag tuples to
// `*bag_tuples` when non-null.
Result<bool> MaterializeBags(const RelationalDb& db, const CqQuery& query,
                             const CqEvalOptions& options,
                             obs::MetricsShard* shard, JoinTree* tree,
                             size_t* bag_tuples);

// Yannakakis up-pass, leaves first. Builds sep_order/sep_keys of each
// non-root bag, then filters its parent's rows in place, keeping order.
void SemijoinUp(JoinTree* tree);

}  // namespace ecrpq

#endif  // ECRPQ_CQ_JOIN_TREE_H_
