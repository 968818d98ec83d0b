#include "cq/count.h"

#include "common/check.h"
#include "cq/join_tree.h"
#include "eval/reduce_to_cq.h"

namespace ecrpq {
namespace {

using u128 = unsigned __int128;

Result<uint64_t> Narrow(u128 value) {
  if (value > static_cast<u128>(~uint64_t{0})) {
    return Status::CapacityExceeded("assignment count exceeds 2^64-1");
  }
  return static_cast<uint64_t>(value);
}

}  // namespace

Result<uint64_t> CountAssignments(const RelationalDb& db,
                                  const CqQuery& query) {
  ECRPQ_RETURN_NOT_OK(ValidateCq(db, query));
  if (query.num_vars == 0) return uint64_t{1};

  ECRPQ_ASSIGN_OR_RAISE(JoinTree tree, BuildJoinTree(query));
  ECRPQ_ASSIGN_OR_RAISE(const bool aborted,
                        MaterializeBags(db, query, {}, nullptr, &tree,
                                        nullptr));
  ECRPQ_CHECK(!aborted);  // No step limit, no budget.
  // The up-pass drops only parent rows some child cannot extend, whose
  // count is zero anyway.
  SemijoinUp(&tree);

  // Bottom-up DP, leaves first: counts[b][i] = number of assignments of
  // the variables of b's subtree that restrict to row i of bag b.
  const std::vector<JoinBag>& bags = tree.bags;
  std::vector<std::vector<u128>> counts(bags.size());
  for (size_t b = 0; b < bags.size(); ++b) {
    counts[b].assign(bags[b].NumRows(), 1);
  }
  std::vector<u128> prefix_sums;
  std::vector<uint32_t> key;
  for (size_t b = bags.size(); b-- > 1;) {
    const JoinBag& bag = bags[b];
    const JoinBag& parent = bags[bag.parent];
    // Child counts summed over runs of equal separator projection.
    prefix_sums.assign(1, 0);
    for (uint32_t row : bag.sep_order) {
      prefix_sums.push_back(prefix_sums.back() + counts[b][row]);
    }
    key.resize(bag.parent_sep_pos.size());
    for (size_t i = 0; i < parent.NumRows(); ++i) {
      const uint32_t* row = parent.Row(i);
      for (size_t j = 0; j < key.size(); ++j) {
        key[j] = row[bag.parent_sep_pos[j]];
      }
      const auto [first, last] = bag.Matching(key.data());
      // 128-bit intermediates; the final Narrow() guards the result. (A
      // count needing more than 128 bits would require ~2^64 vertices.)
      counts[bag.parent][i] *= prefix_sums[last] - prefix_sums[first];
    }
  }

  u128 total = 0;
  for (const u128 c : counts[0]) total += c;
  return Narrow(total);
}

Result<uint64_t> CountAssignmentsBrute(const RelationalDb& db,
                                       const CqQuery& query) {
  ECRPQ_RETURN_NOT_OK(ValidateCq(db, query));
  const uint32_t n = db.domain_size();
  if (query.num_vars == 0) return uint64_t{1};
  if (n == 0) return uint64_t{0};
  std::vector<uint32_t> assignment(query.num_vars, 0);
  u128 count = 0;
  while (true) {
    bool ok = true;
    for (const CqAtom& atom : query.atoms) {
      std::vector<uint32_t> tuple;
      for (CqVarId v : atom.vars) tuple.push_back(assignment[v]);
      if (!db.Find(atom.relation)->Contains(tuple)) {
        ok = false;
        break;
      }
    }
    if (ok) ++count;
    int i = 0;
    for (; i < query.num_vars; ++i) {
      if (++assignment[i] < n) break;
      assignment[i] = 0;
    }
    if (i == query.num_vars) break;
  }
  return Narrow(count);
}

Result<uint64_t> CountEcrpqNodeAssignments(const GraphDb& db,
                                           const EcrpqQuery& query) {
  if (db.NumVertices() == 0) {
    return static_cast<uint64_t>(query.NumNodeVars() == 0 ? 1 : 0);
  }
  ECRPQ_ASSIGN_OR_RAISE(CqReduction reduction, ReduceToCq(db, query));
  return CountAssignments(*reduction.db, reduction.query);
}

}  // namespace ecrpq
