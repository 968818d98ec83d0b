#include "replay.h"

#include <fstream>

#include "common/obs.h"
#include "eval/planner.h"
#include "graphdb/reach_memo.h"
#include "query/parser.h"
#include "query/simplify.h"
#include "service/protocol.h"
#include "stats.h"

namespace servicebench {
namespace {

using ecrpq::EngineChoice;

const char* EngineSpanName(EngineChoice engine) {
  switch (engine) {
    case EngineChoice::kCrpqPipeline:
      return "eval.engine.crpq_pipeline";
    case EngineChoice::kCqReduction:
      return "eval.engine.cq_reduction";
    case EngineChoice::kCqReductionNp:
      return "eval.engine.cq_reduction_np";
    case EngineChoice::kGeneric:
      return "eval.engine.generic";
  }
  return "eval.engine.unknown";
}

// Calls the query layers in service order, one span each. Everything the
// caller reads afterwards (engine choice, counters) stays in `session` and
// `engine`, so no bookkeeping runs between the spans. False when a layer
// reports an error.
bool ReplayQuery(const ecrpq::ServiceRequest& req, ecrpq::GraphDb* db,
                 uint64_t request, int root, const ReplayOptions& options,
                 ecrpq::obs::Session* session,
                 ecrpq::obs::MetricsShard* classify_shard,
                 SpanRecorder* recorder, EngineChoice* engine) {
  int span = recorder->Begin("query.parse", root, request);
  ecrpq::Result<ecrpq::EcrpqQuery> query =
      ecrpq::ParseEcrpq(req.query, db->alphabet());
  recorder->End(span);
  if (!query.ok()) return false;

  span = recorder->Begin("query.canonical_key", root, request);
  const std::string key = ecrpq::CanonicalQueryKey(*query);
  recorder->End(span);
  if (key.empty()) return false;

  span = recorder->Begin("eval.classify", root, request);
  *engine = ecrpq::ClassifyQueryCached(*query, {}, classify_shard).engine;
  recorder->End(span);

  ecrpq::EvalOptions eval_options;
  eval_options.num_threads = options.pool_threads;
  eval_options.max_answers = static_cast<size_t>(req.max_answers);
  eval_options.obs = session;
  span = recorder->Begin(EngineSpanName(*engine), root, request);
  const bool ok = ecrpq::EvaluatePlanned(*db, *query, eval_options).ok();
  recorder->End(span);
  return ok;
}

// Mirrors the service's mutation path: mutate, then re-finalize.
bool ReplayMutation(const ecrpq::ServiceRequest& req, ecrpq::GraphDb* db,
                    uint64_t request, int root, SpanRecorder* recorder,
                    ReplayResult* out) {
  const size_t edges_before = db->NumEdges();
  const int vertices_before = db->NumVertices();
  const int span = recorder->Begin("graphdb.mutate", root, request);
  bool ok = true;
  if (req.op == ecrpq::RequestOp::kAddVertex) {
    db->AddVertices(static_cast<int>(req.count));
  } else {
    const auto limit = static_cast<uint32_t>(db->NumVertices());
    ok = req.from < limit && req.to < limit;
    if (ok) db->AddEdge(req.from, std::string_view(req.symbol), req.to);
  }
  db->Finalize();
  recorder->End(span);
  ++out->mutations;
  if (db->NumEdges() == edges_before && db->NumVertices() == vertices_before) {
    ++out->noop_mutations;
  }
  return ok;
}

}  // namespace

const char* RouteLabel(EngineChoice engine) {
  switch (engine) {
    case EngineChoice::kCrpqPipeline:
      return "crpq_pipeline";
    case EngineChoice::kCqReduction:
      return "cq_reduction";
    case EngineChoice::kCqReductionNp:
      return "cq_reduction_np";
    case EngineChoice::kGeneric:
      return "generic";
  }
  return "unknown";
}

int SpanRecorder::Begin(const char* name, int parent, uint64_t request) {
  spans_.push_back({name, NowNs(), 0, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int span) { spans_[span].end_ns = NowNs(); }

bool SpanRecorder::WriteJsonLines(const std::string& path,
                                  const std::string& label) const {
  std::ofstream out(path);
  if (!out) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    out << "{\"pass\":\"" << label << "\",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns - origin
        << ",\"end_ns\":" << s.end_ns - origin << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

ReplayResult Replay(const std::map<std::string, ecrpq::GraphDb*>& graphs,
                    const std::vector<std::string>& lines,
                    const ReplayOptions& options, SpanRecorder* recorder) {
  ReplayResult out;
  auto& memo = ecrpq::ReachMemo::Global().cache();
  const auto memo_before = memo.GetStats();
  const uint64_t start_ns = NowNs();
  for (size_t i = 0; i < lines.size(); ++i) {
    if (options.time_limit_s > 0 &&
        static_cast<double>(NowNs() - start_ns) / 1e9 > options.time_limit_s) {
      break;
    }
    const uint64_t request = i;
    // Per-request observation state is built before the root span opens
    // and read after it closes, so the spans cover only layer calls.
    ecrpq::obs::Session session;
    ecrpq::obs::MetricsShard* classify_shard = session.metrics().AcquireShard();
    EngineChoice engine = EngineChoice::kGeneric;
    const int root = recorder->Begin("request", -1, request);
    const size_t first_child = recorder->spans().size();
    const int parse = recorder->Begin("service.protocol_parse", root, request);
    ecrpq::Result<ecrpq::ServiceRequest> req =
        ecrpq::ParseRequestLine(lines[i]);
    recorder->End(parse);
    bool ok = req.ok();
    const bool is_query = ok && req->op == ecrpq::RequestOp::kQuery;
    if (ok) {
      auto it = graphs.find(req->graph);
      ok = it != graphs.end();
      if (ok && is_query) {
        ok = ReplayQuery(*req, it->second, request, root, options, &session,
                         classify_shard, recorder, &engine);
      } else if (ok) {
        ok = ReplayMutation(*req, it->second, request, root, recorder, &out);
      }
    }
    recorder->End(root);
    if (!ok) ++out.errors;
    if (is_query) {
      ++out.queries;
      using ecrpq::obs::CounterId;
      out.plan_hits += classify_shard->Load(CounterId::kCacheHits);
      out.plan_misses += classify_shard->Load(CounterId::kCacheMisses);
      const ecrpq::obs::StatsReport report = session.Report();
      out.tuples_materialized += report[CounterId::kTuplesMaterialized];
      out.bag_tuples_materialized +=
          report[CounterId::kBagTuplesMaterialized];
      out.rpq_bfs_runs += report[CounterId::kRpqBfsRuns];
      out.product_states_expanded +=
          report[CounterId::kProductStatesExpanded];
      out.assignments_tried += report[CounterId::kAssignmentsTried];
      out.branches_explored += report[CounterId::kBranchesExplored];
      out.generic_reach_queries += report[CounterId::kReachQueries];
    }

    const std::vector<Span>& spans = recorder->spans();
    const double root_ns =
        static_cast<double>(spans[root].end_ns - spans[root].start_ns);
    double covered_ns = 0;
    for (size_t s = first_child; s < spans.size(); ++s) {
      const double ns =
          static_cast<double>(spans[s].end_ns - spans[s].start_ns);
      covered_ns += ns;
      out.layer_us[spans[s].name].push_back(ns / 1e3);
    }
    out.coverage.push_back(root_ns > 0 ? covered_ns / root_ns : 1.0);
    out.uncovered_us += (root_ns - covered_ns) / 1e3;
    if (is_query) {
      out.query_request_us.push_back(root_ns / 1e3);
      const Span& eval = spans.back();
      out.engine_ms[RouteLabel(engine)].push_back(
          static_cast<double>(eval.end_ns - eval.start_ns) / 1e6);
    }
  }
  const auto memo_after = memo.GetStats();
  out.memo_hits = memo_after.hits - memo_before.hits;
  out.memo_misses = memo_after.misses - memo_before.misses;
  out.memo_evictions = memo_after.evictions - memo_before.evictions;
  out.memo_bytes_end = ecrpq::ReachMemo::Global().SizeBytes();
  return out;
}

}  // namespace servicebench
