#include "eval/reduce_to_cq.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "cq/eval_backtrack.h"
#include "cq/eval_treedec.h"
#include "eval/merge.h"
#include "graphdb/tuple_search.h"
#include "query/validate.h"
#include "synchro/join.h"

namespace ecrpq {
namespace {

obs::Trace* TraceOf(const EvalOptions& options) {
  return options.obs != nullptr ? options.obs->trace() : nullptr;
}

}  // namespace

Result<CqReduction> ReduceToCq(const GraphDb& db, const EcrpqQuery& query,
                               const EvalOptions& options) {
  obs::Span span(TraceOf(options), "ReduceToCq");
  obs::MetricsShard* shard = options.obs != nullptr
                                 ? options.obs->metrics().AcquireShard()
                                 : nullptr;
  ECRPQ_RETURN_NOT_OK(ValidateQueryForDb(query, db.alphabet()));
  CqReduction reduction;
  reduction.db = std::make_unique<RelationalDb>(
      static_cast<uint32_t>(db.NumVertices()));
  reduction.query.num_vars = query.NumNodeVars();
  for (int v = 0; v < query.NumNodeVars(); ++v) {
    reduction.query.var_names.push_back(query.NodeVarName(v));
  }
  for (NodeVarId v : query.free_vars()) {
    reduction.query.free_vars.push_back(v);
  }

  const std::vector<ComponentPlan> plans = PlanComponents(query);
  const VertexId n = static_cast<VertexId>(db.NumVertices());

  const int threads = ThreadPool::ResolveNumThreads(options.num_threads);
  ThreadPool* pool = nullptr;
  if (threads > 1 && n > 1) {
    db.Finalize();  // The lazy CSR build is not thread-safe.
    pool = ThreadPool::Shared(threads);
  }
  const int num_workers = pool != nullptr ? threads : 1;

  for (size_t c = 0; c < plans.size() && n > 0; ++c) {
    const ComponentPlan& plan = plans[c];
    const int r = static_cast<int>(plan.paths.size());
    const std::string name = "comp" + std::to_string(c);
    obs::Span component_span(TraceOf(options), "ReduceToCq.component",
                             static_cast<uint64_t>(c));
    obs::ScopedTimer component_timer(shard, obs::HistogramId::kPhaseReduceNs);

    // One machine + searcher per worker: the machine's lazy determinization
    // caches are not shareable across threads, and the enumeration below
    // never repeats a source tuple, so splitting the memo loses nothing.
    std::vector<std::unique_ptr<JoinMachine>> machines;
    std::vector<std::unique_ptr<TupleSearcher>> searchers;
    std::vector<TupleSearcher*> searcher_ptrs;
    {
      obs::ScopedTimer nfa_timer(shard, obs::HistogramId::kPhaseNfaBuildNs);
      for (int w = 0; w < num_workers; ++w) {
        ECRPQ_ASSIGN_OR_RAISE(
            JoinMachine machine,
            JoinMachine::Create(query.alphabet(), plan.machine_components, r));
        machines.push_back(std::make_unique<JoinMachine>(std::move(machine)));
        TupleSearchOptions search_options;
        search_options.max_states = options.max_product_states;
        search_options.obs = options.obs;
        ECRPQ_ASSIGN_OR_RAISE(
            TupleSearcher searcher,
            TupleSearcher::Create(&db, machines.back().get(), search_options));
        searchers.push_back(
            std::make_unique<TupleSearcher>(std::move(searcher)));
        searcher_ptrs.push_back(searchers.back().get());
      }
    }

    ECRPQ_ASSIGN_OR_RAISE(Relation * rel,
                          reduction.db->AddRelation(name, 2 * r));

    // The CQ atom R'_C(x_1, y_1, ..., x_r, y_r). Lemma 4.3's atom is a pure
    // 2r-ary template: when the same node variable occupies several endpoint
    // positions of the component, every position after the first gets a
    // fresh copy variable and the coincidence is pushed into the
    // materialized relation (only rows agreeing on coinciding positions are
    // kept). The atom therefore spans 2r pairwise-distinct variables and
    // its hypergraph edge has the full 2r-clique Gaifman footprint.
    CqAtom atom;
    atom.relation = name;
    std::vector<int> same_as(2 * r, -1);  // Position of the original, or -1.
    {
      std::map<NodeVarId, int> first_position;
      for (int i = 0; i < 2 * r; ++i) {
        const NodeVarId v =
            (i % 2 == 0) ? plan.sources[i / 2] : plan.targets[i / 2];
        const auto [it, inserted] = first_position.try_emplace(v, i);
        if (inserted) {
          atom.vars.push_back(v);
        } else {
          same_as[i] = it->second;
          atom.vars.push_back(
              static_cast<CqVarId>(reduction.query.num_vars));
          reduction.query.var_names.push_back(
              query.NodeVarName(v) + "'" +
              std::to_string(reduction.query.num_vars));
          ++reduction.query.num_vars;
        }
      }
    }

    // Enumerate all |V|^r source tuples — the O(|D|^{2 cc_vertex}) step.
    // Tuples are drawn in mixed-radix order and searched in batches: the
    // per-tuple product BFS runs fan out across the pool, and the batch is
    // merged back in enumeration order, so relation contents and any budget
    // error are identical to the sequential run.
    constexpr size_t kBatchSize = 1024;
    std::vector<VertexId> sources(r, 0);
    std::vector<uint32_t> row(2 * r);
    std::vector<std::vector<VertexId>> batch;
    bool exhausted = false;
    while (!exhausted) {
      batch.clear();
      while (batch.size() < kBatchSize) {
        batch.push_back(sources);
        // Mixed-radix increment of the source tuple.
        int i = 0;
        for (; i < r; ++i) {
          if (++sources[i] < n) break;
          sources[i] = 0;
        }
        if (i == r) {
          exhausted = true;
          break;
        }
      }
      const std::vector<const ReachSet*> reaches = ReachMany(
          searcher_ptrs, batch, pool,
          options.obs != nullptr ? options.obs->cancel_token() : nullptr,
          shard);
      for (size_t b = 0; b < batch.size(); ++b) {
        ++reduction.source_tuples_enumerated;
        if (reaches[b] == nullptr) {
          // Slots are only skipped when the session's cancel token fired,
          // which here means the budget tripped mid-batch.
          return options.obs->ExhaustedStatus();
        }
        const ReachSet& reach = *reaches[b];
        if (reach.aborted) {
          if (options.obs != nullptr && options.obs->Exhausted()) {
            return options.obs->ExhaustedStatus();
          }
          return Status::CapacityExceeded(
              "component search exceeded the product-state budget");
        }
        for (const std::vector<VertexId>& targets : reach.targets) {
          for (int i = 0; i < r; ++i) {
            row[2 * i] = batch[b][i];
            row[2 * i + 1] = targets[i];
          }
          bool coincides = true;
          for (int i = 0; i < 2 * r && coincides; ++i) {
            if (same_as[i] >= 0 && row[i] != row[same_as[i]]) {
              coincides = false;
            }
          }
          if (!coincides) continue;
          rel->Add(row);
          obs::Add(shard, obs::CounterId::kTuplesMaterialized);
        }
      }
      if (options.obs != nullptr && options.obs->CheckBudget()) {
        return options.obs->ExhaustedStatus();
      }
    }
    for (const auto& searcher : searchers) {
      reduction.product_states += searcher->TotalExploredStates();
    }

    reduction.query.atoms.push_back(std::move(atom));
  }
  reduction.db->FinalizeAll();
  return reduction;
}

Result<EvalResult> EvaluateViaCqReduction(const GraphDb& db,
                                          const EcrpqQuery& query,
                                          bool use_treedec,
                                          const EvalOptions& options) {
  EvalResult out;
  if (db.NumVertices() == 0) {
    out.satisfiable = (query.NumNodeVars() == 0);
    if (out.satisfiable) out.answers.push_back({});
    return out;
  }
  ECRPQ_ASSIGN_OR_RAISE(CqReduction reduction, ReduceToCq(db, query, options));
  CqEvalOptions cq_options;
  cq_options.max_answers = query.IsBoolean() ? 1 : options.max_answers;
  cq_options.obs = options.obs;
  obs::Span cq_span(TraceOf(options), "EvaluateReducedCq");
  ECRPQ_ASSIGN_OR_RAISE(
      CqEvalResult cq_result,
      use_treedec
          ? CqEvaluateTreeDec(*reduction.db, reduction.query, cq_options)
          : CqEvaluateBacktracking(*reduction.db, reduction.query,
                                   cq_options));
  out.satisfiable = cq_result.satisfiable;
  out.aborted = cq_result.aborted;
  out.stats.product_states = reduction.product_states;
  for (auto& answer : cq_result.answers) {
    out.answers.push_back(std::move(answer));
  }
  return out;
}

}  // namespace ecrpq
