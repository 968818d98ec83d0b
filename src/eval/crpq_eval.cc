#include "eval/crpq_eval.h"

#include <string>
#include <vector>

#include "automata/interner.h"
#include "cq/cq.h"
#include "cq/eval_treedec.h"
#include "cq/relational_db.h"
#include "graphdb/reach_memo.h"
#include "graphdb/rpq_reach.h"
#include "query/validate.h"
#include "synchro/tape_pack.h"

namespace ecrpq {

Result<EvalResult> EvaluateCrpq(const GraphDb& db, const EcrpqQuery& query,
                                const EvalOptions& options) {
  obs::Session* obs = options.obs;
  obs::Span span(obs != nullptr ? obs->trace() : nullptr, "EvaluateCrpq");
  obs::MetricsShard* shard =
      obs != nullptr ? obs->metrics().AcquireShard() : nullptr;
  ECRPQ_RETURN_NOT_OK(ValidateQueryForDb(query, db.alphabet()));
  if (!query.IsCrpq()) {
    return Status::Invalid("EvaluateCrpq requires a CRPQ");
  }
  EvalResult out;
  if (db.NumVertices() == 0) {
    out.satisfiable = (query.NumNodeVars() == 0);
    if (out.satisfiable) out.answers.push_back({});
    return out;
  }

  // Language per path variable (A* when unconstrained). Relation NFAs of
  // arity 1 use packed letters (symbol+1); unpack back to Symbol labels.
  std::vector<const SyncRelation*> lang_of(query.NumPathVars(), nullptr);
  for (const RelAtom& atom : query.rel_atoms()) {
    lang_of[atom.paths[0]] = &query.relation(atom.relation);
  }

  RelationalDb rdb(static_cast<uint32_t>(db.NumVertices()));
  CqQuery cq;
  cq.num_vars = query.NumNodeVars();
  for (int v = 0; v < cq.num_vars; ++v) {
    cq.var_names.push_back(query.NodeVarName(v));
  }
  for (NodeVarId v : query.free_vars()) cq.free_vars.push_back(v);

  for (size_t a = 0; a < query.reach_atoms().size(); ++a) {
    const ReachAtom& atom = query.reach_atoms()[a];
    // Build the Symbol-labelled language NFA.
    Nfa lang;
    if (lang_of[atom.path] == nullptr) {
      // A*: one accepting state looping on every symbol.
      lang.AddState();
      lang.SetInitial(0);
      lang.SetAccepting(0);
      for (Symbol s = 0; s < static_cast<Symbol>(query.alphabet().size());
           ++s) {
        lang.AddTransition(0, static_cast<Label>(s), 0);
      }
    } else {
      const SyncRelation& rel = *lang_of[atom.path];
      lang.AddStates(rel.nfa().NumStates());
      for (StateId s : rel.nfa().initial()) lang.SetInitial(s);
      for (StateId s = 0; s < static_cast<StateId>(rel.nfa().NumStates());
           ++s) {
        if (rel.nfa().IsAccepting(s)) lang.SetAccepting(s);
        for (const Nfa::Transition& t : rel.nfa().TransitionsFrom(s)) {
          if (t.label == kEpsilon) {
            lang.AddTransition(s, kEpsilon, t.to);
          } else {
            const TapeLetter letter = rel.pack().Get(t.label, 0);
            if (letter == kBlank) continue;  // ⊥ never occurs on arity 1.
            lang.AddTransition(s, static_cast<Label>(letter), t.to);
          }
        }
      }
    }
    const std::string name = "reach" + std::to_string(a);
    ECRPQ_ASSIGN_OR_RAISE(Relation * rel, rdb.AddRelation(name, 2));
    {
      // One reach-atom materialization == one kPhaseReduceNs sample.
      // Cached path: intern the language (dedups across atoms AND across
      // queries — repeated regexes share one normalized automaton) and
      // serve per-source reach sets from the epoch-keyed global memo.
      // RpqReachFrom's output is independent of transition order, so the
      // interned (normalized) automaton yields byte-identical rows.
      obs::ScopedTimer reduce_timer(shard, obs::HistogramId::kPhaseReduceNs);
      const std::vector<std::pair<VertexId, VertexId>> rows =
          options.disable_cache
              ? RpqReachAll(db, lang, /*num_threads=*/0, obs)
              : RpqReachAllCached(
                    db, AutomatonInterner::Global().Intern(lang, shard),
                    /*num_threads=*/0, obs);
      for (const auto& [u, v] : rows) {
        const uint32_t row[2] = {u, v};
        rel->Add(row);
        obs::Add(shard, obs::CounterId::kTuplesMaterialized);
      }
    }
    if (obs != nullptr && obs->CheckBudget()) {
      return obs->ExhaustedStatus();
    }
    cq.atoms.push_back(CqAtom{name, {atom.from, atom.to}});
  }
  rdb.FinalizeAll();

  CqEvalOptions cq_options;
  cq_options.max_answers = query.IsBoolean() ? 1 : options.max_answers;
  cq_options.obs = obs;
  ECRPQ_ASSIGN_OR_RAISE(CqEvalResult cq_result,
                        CqEvaluateTreeDec(rdb, cq, cq_options));
  out.satisfiable = cq_result.satisfiable;
  out.aborted = cq_result.aborted;
  for (auto& answer : cq_result.answers) {
    out.answers.push_back(std::move(answer));
  }
  return out;
}

}  // namespace ecrpq
