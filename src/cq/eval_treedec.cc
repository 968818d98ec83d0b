#include "cq/eval_treedec.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "common/check.h"
#include "common/hash.h"
#include "cq/join_tree.h"

namespace ecrpq {
namespace {

constexpr uint32_t kUnset = ~uint32_t{0};

}  // namespace

Result<CqEvalResult> CqEvaluateTreeDec(const RelationalDb& db,
                                       const CqQuery& query,
                                       const CqEvalOptions& options,
                                       TreeDecEvalStats* stats) {
  ECRPQ_RETURN_NOT_OK(ValidateCq(db, query));
  obs::Trace* trace =
      options.obs != nullptr ? options.obs->trace() : nullptr;
  obs::MetricsShard* shard = options.obs != nullptr
                                 ? options.obs->metrics().AcquireShard()
                                 : nullptr;
  obs::Span eval_span(trace, "CqEvaluateTreeDec");
  CqEvalResult result;
  if (query.num_vars == 0) {
    result.satisfiable = true;
    result.answers.push_back({});
    return result;
  }
  std::chrono::steady_clock::time_point start_time{};
  if (shard != nullptr) start_time = std::chrono::steady_clock::now();

  JoinTree tree;
  {
    obs::Span span(trace, "TreeDec.decompose");
    ECRPQ_ASSIGN_OR_RAISE(tree, BuildJoinTree(query));
  }
  if (stats != nullptr) stats->width_used = tree.width;
  {
    obs::Span span(trace, "TreeDec.materialize_bags");
    ECRPQ_ASSIGN_OR_RAISE(
        const bool aborted,
        MaterializeBags(db, query, options, shard, &tree,
                        stats != nullptr ? &stats->bag_tuples_materialized
                                         : nullptr));
    if (aborted) {
      result.aborted = true;
      return result;
    }
  }
  {
    obs::Span span(trace, "TreeDec.semijoin");
    SemijoinUp(&tree);
  }
  const std::vector<JoinBag>& bags = tree.bags;
  if (bags[0].rows.empty()) {
    result.satisfiable = false;
    return result;
  }
  result.satisfiable = true;

  // Top-down walk in pre-order. Bag i binds the variables no earlier bag
  // holds (fresh_pos); the others are exactly its separator, which
  // JoinBag::Matching already fixes.
  std::vector<std::vector<int>> fresh_pos(bags.size());
  {
    std::vector<bool> bound(query.num_vars, false);
    for (size_t i = 0; i < bags.size(); ++i) {
      for (size_t p = 0; p < bags[i].vars.size(); ++p) {
        if (bound[bags[i].vars[p]]) continue;
        bound[bags[i].vars[p]] = true;
        fresh_pos[i].push_back(static_cast<int>(p));
      }
      ECRPQ_DCHECK(fresh_pos[i].size() + bags[i].sep_pos.size() ==
                   bags[i].vars.size());
    }
  }

  std::vector<uint32_t> assignment(query.num_vars, kUnset);
  std::vector<uint32_t> key;
  std::unordered_set<std::vector<uint32_t>, VectorHash<uint32_t>> answers;
  bool done = false;
  size_t budget_tick = 0;

  auto walk = [&](auto&& self, size_t idx) -> void {
    if (done) return;
    if (options.obs != nullptr &&
        (options.obs->Exhausted() ||
         ((++budget_tick & 4095) == 0 && options.obs->CheckBudget()))) {
      done = true;
      return;
    }
    if (idx == bags.size()) {
      std::vector<uint32_t> answer;
      answer.reserve(query.free_vars.size());
      for (CqVarId v : query.free_vars) {
        ECRPQ_DCHECK(assignment[v] != kUnset);
        answer.push_back(assignment[v]);
      }
      if (answers.insert(std::move(answer)).second && shard != nullptr) {
        shard->Record(obs::HistogramId::kAnswerLatencyNs,
                      static_cast<uint64_t>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - start_time)
                              .count()));
      }
      if (options.max_answers != 0 && answers.size() >= options.max_answers) {
        done = true;
      }
      return;
    }
    const JoinBag& bag = bags[idx];
    auto try_row = [&](const uint32_t* row) {
      for (int p : fresh_pos[idx]) assignment[bag.vars[p]] = row[p];
      self(self, idx + 1);
    };
    if (bag.parent < 0) {
      for (size_t i = 0; i < bag.NumRows() && !done; ++i) try_row(bag.Row(i));
      return;
    }
    key.resize(bag.sep_pos.size());
    for (size_t j = 0; j < key.size(); ++j) {
      key[j] = assignment[bag.vars[bag.sep_pos[j]]];
      ECRPQ_DCHECK(key[j] != kUnset);
    }
    const auto [first, last] = bag.Matching(key.data());
    for (size_t j = first; j < last && !done; ++j) {
      try_row(bag.Row(bag.sep_order[j]));
    }
  };
  {
    obs::Span span(trace, "TreeDec.enumerate");
    walk(walk, 0);
  }

  // Final check (not just Exhausted()): totals that crossed the budget
  // between poll strides still surface as ResourceExhausted.
  if (options.obs != nullptr && options.obs->CheckBudget()) {
    return options.obs->ExhaustedStatus();
  }

  result.answers.assign(answers.begin(), answers.end());
  std::sort(result.answers.begin(), result.answers.end());
  return result;
}

}  // namespace ecrpq
