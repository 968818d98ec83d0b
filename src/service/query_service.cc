#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "automata/interner.h"
#include "common/dcheck.h"
#include "common/hash.h"
#include "common/json.h"
#include "eval/adaptive.h"
#include "graphdb/io.h"
#include "graphdb/reach_memo.h"
#include "query/parser.h"
#include "query/simplify.h"

namespace ecrpq {
namespace {

// RAII shared (reader) claim on a graph entry: many concurrent holders,
// excluded by a writer.
class GraphReadClaim {
 public:
  explicit GraphReadClaim(QueryService::GraphEntry* entry) : entry_(entry) {
    MutexLock lock(entry_->mu);
    while (entry_->writer) entry_->cv.Wait(entry_->mu);
    ++entry_->active_readers;
  }
  ~GraphReadClaim() {
    bool last = false;
    {
      MutexLock lock(entry_->mu);
      last = --entry_->active_readers == 0;
    }
    if (last) entry_->cv.NotifyAll();
  }
  GraphReadClaim(const GraphReadClaim&) = delete;
  GraphReadClaim& operator=(const GraphReadClaim&) = delete;

 private:
  QueryService::GraphEntry* entry_;
};

// RAII exclusive (writer) claim: excludes readers and other writers.
class GraphWriteClaim {
 public:
  explicit GraphWriteClaim(QueryService::GraphEntry* entry) : entry_(entry) {
    MutexLock lock(entry_->mu);
    while (entry_->writer || entry_->active_readers > 0) {
      entry_->cv.Wait(entry_->mu);
    }
    entry_->writer = true;
  }
  ~GraphWriteClaim() {
    {
      MutexLock lock(entry_->mu);
      entry_->writer = false;
    }
    entry_->cv.NotifyAll();
  }
  GraphWriteClaim(const GraphWriteClaim&) = delete;
  GraphWriteClaim& operator=(const GraphWriteClaim&) = delete;

 private:
  QueryService::GraphEntry* entry_;
};

std::string AnswersToJson(
    const std::vector<std::vector<VertexId>>& answers) {
  std::string out = "[";
  for (size_t i = 0; i < answers.size(); ++i) {
    if (i > 0) out += ",";
    out += "[";
    for (size_t j = 0; j < answers[i].size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(answers[i][j]);
    }
    out += "]";
  }
  out += "]";
  return out;
}

uint64_t UnixMillisNow() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// Milliseconds with microsecond resolution, as a bare JSON number.
std::string MillisString(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ns) / 1e6);
  return buf;
}

std::string HexHash64(uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Compact top-of-profile summary for event-log records: the four largest
// folded phases by self time (the profile is already sorted that way).
std::string PhasesJson(const obs::PhaseProfile& profile) {
  std::string out = "[";
  const size_t n = std::min<size_t>(profile.folded.size(), 4);
  for (size_t i = 0; i < n; ++i) {
    const obs::PhaseStats& p = profile.folded[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(p.name) +
           "\",\"count\":" + std::to_string(p.count) +
           ",\"total_ms\":" + MillisString(p.total_ns) +
           ",\"self_ms\":" + MillisString(p.self_ns) + "}";
  }
  out += "]";
  return out;
}

// Everything one "query" event-log record carries; filled progressively
// along the ExecuteQuery path and rendered once at the end.
// docs/OBSERVABILITY.md documents the rendered schema.
struct QueryEventData {
  std::string trace_id;
  std::string request_id;
  std::string graph;
  std::string engine;
  std::string query_key_hash;  // Empty until the query parsed -> null.
  std::string verdict_json;    // Planner classification; empty -> null.
  const char* status_code = "ok";
  std::string message;                       // Empty on ok.
  const char* budget_outcome = "unlimited";  // ok | tripped | rejected.
  std::string budget_reason;                 // Empty -> null.
  uint64_t latency_ns = 0;
  uint64_t queue_ns = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t num_answers = 0;
  std::string phases_json;  // Empty -> [].
};

std::string RenderQueryEvent(uint64_t ts_ms, const QueryEventData& d) {
  std::string out = "{\"event\":\"query\"";
  out += ",\"ts_ms\":" + std::to_string(ts_ms);
  out += ",\"trace_id\":\"" + JsonEscape(d.trace_id) + "\"";
  out += ",\"request_id\":\"" + JsonEscape(d.request_id) + "\"";
  out += ",\"graph\":\"" + JsonEscape(d.graph) + "\"";
  out += ",\"query_key_hash\":";
  out += d.query_key_hash.empty() ? "null" : "\"" + d.query_key_hash + "\"";
  out += ",\"verdict\":";
  out += d.verdict_json.empty() ? "null" : d.verdict_json;
  out += ",\"engine\":\"" + JsonEscape(d.engine) + "\"";
  out += ",\"status\":\"";
  out += d.status_code;
  out += "\"";
  if (!d.message.empty()) {
    out += ",\"message\":\"" + JsonEscape(d.message) + "\"";
  }
  out += ",\"latency_ms\":" + MillisString(d.latency_ns);
  out += ",\"queue_ms\":" + MillisString(d.queue_ns);
  out += ",\"cache\":{\"hits\":" + std::to_string(d.cache_hits) +
         ",\"misses\":" + std::to_string(d.cache_misses) +
         ",\"evictions\":" + std::to_string(d.cache_evictions) + "}";
  out += ",\"budget\":{\"outcome\":\"";
  out += d.budget_outcome;
  out += "\",\"reason\":";
  out += d.budget_reason.empty() ? "null"
                                 : "\"" + JsonEscape(d.budget_reason) + "\"";
  out += "}";
  out += ",\"num_answers\":" + std::to_string(d.num_answers);
  out += ",\"phases\":";
  out += d.phases_json.empty() ? "[]" : d.phases_json;
  out += "}";
  return out;
}

std::string RenderProtocolErrorEvent(uint64_t ts_ms,
                                     const std::string* request_id,
                                     const std::string& trace_id,
                                     StatusCode code,
                                     std::string_view message) {
  std::string out = "{\"event\":\"protocol_error\"";
  out += ",\"ts_ms\":" + std::to_string(ts_ms);
  out += ",\"trace_id\":";
  out += trace_id.empty() ? "null" : "\"" + JsonEscape(trace_id) + "\"";
  out += ",\"request_id\":";
  out += request_id == nullptr ? "null"
                               : "\"" + JsonEscape(*request_id) + "\"";
  out += ",\"status\":\"";
  out += WireCodeName(code);
  out += "\",\"message\":\"" + JsonEscape(message) + "\"}";
  return out;
}

}  // namespace

QueryService::QueryService(const ServiceConfig& config)
    : QueryService(config, GraphDb(Alphabet::OfChars("ab"))) {}

QueryService::QueryService(const ServiceConfig& config, GraphDb base_graph)
    : config_(config), admission_(config.admission) {
  base_graph.Finalize();
  GraphEntry* installed = InstallGraph("default", std::move(base_graph));
  ECRPQ_CHECK(installed != nullptr);
  RegisterTelemetryGroups();
  if (!config_.event_log_path.empty()) {
    event_log_ = std::make_unique<obs::EventLog>(config_.event_log_path);
  }
}

void QueryService::RegisterTelemetryGroups() {
  // One locked counters() call produces the whole group, so every rendered
  // snapshot preserves the admission identities verbatim:
  //   submitted == admitted + rejected, released + active == admitted.
  telemetry_registry_.RegisterGroup("admission_", [this] {
    const AdmissionCounters c = admission_.counters();
    return obs::TelemetryRegistry::GaugeGroup{
        {"submitted", c.submitted}, {"admitted", c.admitted},
        {"queued", c.queued},       {"rejected", c.rejected},
        {"released", c.released},   {"active", c.active},
        {"active_peak", c.active_peak}};
  });
  // Process-wide cross-query caches: lifetime hit/miss/eviction totals plus
  // current occupancy. Values are per-cache exact; the group as a whole is
  // a best-effort snapshot (the caches have no common lock by design).
  telemetry_registry_.RegisterGroup("cache_", [] {
    obs::TelemetryRegistry::GaugeGroup g;
    PlanCache& plan_cache = GlobalPlanCache();
    const auto plan = plan_cache.GetStats();
    g.emplace_back("plan_hits", plan.hits);
    g.emplace_back("plan_misses", plan.misses);
    g.emplace_back("plan_evictions", plan.evictions);
    g.emplace_back("plan_entries", plan_cache.NumEntries());
    g.emplace_back("plan_bytes", plan_cache.SizeBytes());
    AutomatonInterner& interner = AutomatonInterner::Global();
    const auto nfa = interner.nfa_cache().GetStats();
    g.emplace_back("interner_hits", nfa.hits);
    g.emplace_back("interner_misses", nfa.misses);
    g.emplace_back("interner_evictions", nfa.evictions);
    g.emplace_back("interner_bytes", interner.SizeBytes());
    ReachMemo& memo = ReachMemo::Global();
    const auto reach = memo.cache().GetStats();
    g.emplace_back("reach_hits", reach.hits);
    g.emplace_back("reach_misses", reach.misses);
    g.emplace_back("reach_evictions", reach.evictions);
    g.emplace_back("reach_entries", memo.NumEntries());
    g.emplace_back("reach_bytes", memo.SizeBytes());
    return g;
  });
}

std::unique_ptr<ServiceSession> QueryService::OpenSession() {
  return std::unique_ptr<ServiceSession>(new ServiceSession(this));
}

QueryService::GraphEntry* QueryService::FindGraph(const std::string& name) {
  MutexLock lock(registry_mutex_);
  auto it = graphs_.find(name);
  return it == graphs_.end() ? nullptr : it->second.get();
}

QueryService::GraphEntry* QueryService::InstallGraph(const std::string& name,
                                                     GraphDb db) {
  MutexLock lock(registry_mutex_);
  auto [it, inserted] =
      graphs_.emplace(name, std::make_unique<GraphEntry>(std::move(db)));
  return inserted ? it->second.get() : nullptr;
}

ServiceSession::ServiceSession(QueryService* service)
    : service_(service),
      shard_(service->metrics_.AcquireShard()),
      session_id_(service->next_session_id_.fetch_add(1) + 1) {}

std::string ServiceSession::HandleLine(std::string_view line) {
  // Request latency from arrival to response bytes — admission queueing
  // and evaluation included; what a client actually waits for.
  obs::ScopedTimer timer(shard_, obs::HistogramId::kServiceRequestNs);
  const bool telemetry = service_->config_.telemetry;
  const uint64_t flight_start_ns = telemetry ? recorder_.NowNs() : 0;
  if (line.size() > service_->config_.max_line_bytes) {
    if (telemetry) {
      RecordFlightEvent("protocol_error", flight_start_ns,
                        recorder_.NowNs() - flight_start_ns, ++request_seq_);
      MaybeDumpPostmortem("protocol-error");
    }
    return ErrorResponseLine(nullptr, StatusCode::kCapacityExceeded,
                             "request line exceeds max_line_bytes");
  }
  Result<ServiceRequest> req = ParseRequestLine(line);
  if (!req.ok()) {
    // Best-effort id and trace_id recovery so the client can correlate the
    // error: the line may be well-formed JSON that merely violated the
    // protocol (unknown field, bad type). A malformed request does NOT
    // consume its id — only executed requests do. The trace_id is echoed
    // only when it satisfies the wire constraints on its own: an invalid
    // id is likely the very thing being reported.
    std::string id;
    const std::string* id_ptr = nullptr;
    std::string trace_id;
    Result<json::Value> doc = json::Parse(std::string(line));
    if (doc.ok() && doc->is_object()) {
      if (doc->GetString("id", &id) && !id.empty()) id_ptr = &id;
      std::string t;
      if (doc->GetString("trace_id", &t) && IsValidTraceId(t)) {
        trace_id = std::move(t);
      }
    }
    if (telemetry) {
      RecordFlightEvent("protocol_error", flight_start_ns,
                        recorder_.NowNs() - flight_start_ns, ++request_seq_);
      MaybeDumpPostmortem(trace_id.empty() ? "protocol-error" : trace_id);
      obs::EventLog* log = service_->event_log_.get();
      if (log != nullptr) {
        log->Append(RenderProtocolErrorEvent(UnixMillisNow(), id_ptr,
                                             trace_id, req.status().code(),
                                             req.status().message()));
        obs::Add(shard_, obs::CounterId::kTelemetryEventsLogged);
      }
    }
    return ErrorResponseLine(id_ptr, req.status().code(),
                             req.status().message(), trace_id);
  }
  if (!seen_ids_.insert(req->id).second) {
    return ErrorResponseLine(&req->id, StatusCode::kInvalidArgument,
                             "duplicate request id '" + req->id + "'",
                             req->trace_id);
  }
  Result<std::string> response = Execute(*req);
  if (telemetry) {
    RecordFlightEvent("service_request", flight_start_ns,
                      recorder_.NowNs() - flight_start_ns, ++request_seq_);
  }
  if (!response.ok()) {
    return ErrorResponseLine(&req->id, response.status().code(),
                             response.status().message(), req->trace_id);
  }
  return *std::move(response);
}

Result<std::string> ServiceSession::Execute(const ServiceRequest& req) {
  switch (req.op) {
    case RequestOp::kQuery:
      return ExecuteQuery(req);
    case RequestOp::kCreateGraph:
      return ExecuteCreateGraph(req);
    case RequestOp::kAddEdge:
    case RequestOp::kAddVertex:
      return ExecuteMutation(req);
    case RequestOp::kPing: {
      ResponseBuilder b(req.id);
      if (!req.trace_id.empty()) b.AddString("trace_id", req.trace_id);
      return b.Finish();
    }
    case RequestOp::kStats:
      return ExecuteStats(req);
    case RequestOp::kTrace:
      return ExecuteTrace(req);
    case RequestOp::kShutdown: {
      shutdown_ = true;
      ResponseBuilder b(req.id);
      if (!req.trace_id.empty()) b.AddString("trace_id", req.trace_id);
      b.AddBool("shutting_down", true);
      return b.Finish();
    }
  }
  return Status::Internal("unhandled op");
}

Result<std::string> ServiceSession::ExecuteQuery(const ServiceRequest& req) {
  const bool telemetry = service_->config_.telemetry;
  // The request's span/trace identity: the client's trace_id when supplied
  // (echoed on the wire), else a deterministic server-generated id that is
  // NEVER echoed — response bytes without a client trace_id must not
  // change (the differential suite pins them).
  const std::string trace_id =
      !telemetry ? std::string()
                 : (req.trace_id.empty() ? "auto:" + req.id : req.trace_id);
  const uint64_t flight_start_ns = telemetry ? recorder_.NowNs() : 0;

  obs::Session session;
  obs::MetricsShard* session_shard = session.metrics().AcquireShard();
  if (telemetry) {
    session.EnableTrace();
    session.SetTraceId(trace_id);
  }

  QueryEventData ev;
  ev.trace_id = trace_id;
  ev.request_id = req.id;
  ev.graph = req.graph;
  ev.engine = req.engine;
  bool dump_postmortem = false;

  Result<std::string> response = [&]() -> Result<std::string> {
    QueryService::GraphEntry* entry = service_->FindGraph(req.graph);
    if (entry == nullptr) {
      return Status::NotFound("no graph named '" + req.graph + "'");
    }

    // Effective per-query budget: request override per axis, else the
    // service default. This is also the admission reservation, so the
    // global caps govern the worst case the budgets actually enforce.
    obs::EvalBudget budget = req.budget;
    const obs::EvalBudget& defaults = service_->config_.default_budget;
    if (budget.max_product_states == 0) {
      budget.max_product_states = defaults.max_product_states;
    }
    if (budget.max_memory_bytes == 0) {
      budget.max_memory_bytes = defaults.max_memory_bytes;
    }
    if (budget.timeout_millis == 0) {
      budget.timeout_millis = defaults.timeout_millis;
    }

    AdmissionCharge charge;
    charge.product_states = budget.max_product_states;
    charge.memory_bytes = budget.max_memory_bytes;
    // Admission wait, measured whether the outcome is a ticket or a
    // rejection; recorded into the session's metrics too so a budget
    // trip's partial_stats carries the queue-time histogram.
    const auto admit_start = std::chrono::steady_clock::now();
    Result<AdmissionTicket> admitted =
        service_->admission_.Admit(charge, shard_);
    const uint64_t queue_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - admit_start)
            .count());
    ev.queue_ns = queue_ns;
    obs::Record(shard_, obs::HistogramId::kServiceQueueNs, queue_ns);
    obs::Record(session_shard, obs::HistogramId::kServiceQueueNs, queue_ns);
    if (!admitted.ok()) {
      ev.budget_outcome = "rejected";
      ev.budget_reason = std::string(admitted.status().message());
      dump_postmortem = true;
      if (telemetry) {
        RecordFlightEvent("admission_reject", flight_start_ns,
                          recorder_.NowNs() - flight_start_ns,
                          ++request_seq_);
      }
      return admitted.status();
    }
    AdmissionTicket ticket = std::move(admitted).ValueOrDie();
    // From here the reservation is held; every return path below releases
    // it exactly once through the ticket's destructor.

    GraphReadClaim read_claim(entry);
    const GraphDb& db = entry->db;

    Result<EcrpqQuery> query = ParseEcrpq(req.query, db.alphabet());
    if (!query.ok()) return query.status();
    if (telemetry) {
      ev.query_key_hash = HexHash64(HashBytes(CanonicalQueryKey(*query)));
    }

    if (!budget.Unlimited()) {
      session.SetBudget(budget);
      ev.budget_outcome = "ok";
    }
    ECRPQ_ASSIGN_OR_RAISE(const EngineRoute route,
                          EngineRouteByName(req.engine));
    EvalOptions options;
    options.num_threads = service_->config_.pool_threads;
    options.max_answers = static_cast<size_t>(req.max_answers);
    options.disable_cache = req.no_cache || service_->config_.disable_cache;
    options.obs = &session;
    AdaptiveReport report;
    Result<EvalResult> result = [&] {
      // The request-level span everything the engines record nests under.
      obs::Span request_span(session.trace(), "service_request");
      return EvaluateRoute(db, *query, route, options, &report);
    }();
    const bool classified = route.kind != EngineRoute::Kind::kFixed;
    if (classified && telemetry) {
      ev.verdict_json = report.classification.ToJson();
    }

    if (!result.ok()) {
      if (result.status().code() == StatusCode::kResourceExhausted) {
        ev.budget_outcome = "tripped";
        ev.budget_reason = session.exhausted_reason() != nullptr
                               ? session.exhausted_reason()
                               : std::string(result.status().message());
        ev.status_code = WireCodeName(StatusCode::kResourceExhausted);
        ev.message = std::string(result.status().message());
        dump_postmortem = true;
        if (telemetry) {
          RecordFlightEvent("budget_trip", flight_start_ns,
                            recorder_.NowNs() - flight_start_ns,
                            ++request_seq_);
        }
        // A tripped budget still owes the client its partial stats — the
        // "what had it done so far" channel, same as the CLI's exit-3
        // path.
        std::string out =
            ErrorResponseLine(&req.id, StatusCode::kResourceExhausted,
                              result.status().message(), req.trace_id);
        out.pop_back();  // Reopen the object for the extra member.
        out += ",\"partial_stats\":" + session.Report().ToJson() + "}";
        return out;
      }
      return result.status();
    }

    ev.num_answers = result->answers.size();
    ResponseBuilder b(req.id);
    if (!req.trace_id.empty()) b.AddString("trace_id", req.trace_id);
    b.AddBool("satisfiable", result->satisfiable);
    b.AddUint("num_answers", result->answers.size());
    b.AddRaw("answers", AnswersToJson(result->answers));
    if (classified) {
      b.AddString("engine", EngineChoiceName(report.classification.engine));
    }
    if (req.want_stats) {
      b.AddRaw("stats", session.Report().ToJson());
    }
    return b.Finish();
  }();

  if (!response.ok()) {
    ev.status_code = WireCodeName(response.status().code());
    ev.message = std::string(response.status().message());
  }

  if (telemetry) {
    const uint64_t dur_ns = recorder_.NowNs() - flight_start_ns;
    ev.latency_ns = dur_ns;
    ev.phases_json = PhasesJson(session.PhaseProfile());
    const obs::StatsReport report = session.Report();
    ev.cache_hits = report[obs::CounterId::kCacheHits];
    ev.cache_misses = report[obs::CounterId::kCacheMisses];
    ev.cache_evictions = report[obs::CounterId::kCacheEvictions];
    // Retain the finished trace for the `trace` op — errors included;
    // that is exactly when the span tree is wanted.
    RetainTrace(trace_id, session.trace()->ToJson(trace_id));
    RecordFlightEvent("query", flight_start_ns, dur_ns, ++request_seq_);
    if (dump_postmortem) MaybeDumpPostmortem(trace_id);
    obs::EventLog* log = service_->event_log_.get();
    if (log != nullptr) {
      const bool is_error = ev.status_code != std::string_view("ok");
      const int64_t latency_ms =
          static_cast<int64_t>(dur_ns / uint64_t{1000000});
      // Errors and budget outcomes always log; ok queries only when they
      // crossed the slow threshold (0 = log everything).
      if (is_error || latency_ms >= service_->config_.slow_ms) {
        log->Append(RenderQueryEvent(UnixMillisNow(), ev));
        obs::Add(shard_, obs::CounterId::kTelemetryEventsLogged);
      }
    }
  }
  return response;
}

Result<std::string> ServiceSession::ExecuteStats(const ServiceRequest& req) {
  ResponseBuilder b(req.id);
  if (!req.trace_id.empty()) b.AddString("trace_id", req.trace_id);
  if (req.stats_format == "prometheus") {
    b.AddString("format", "prometheus");
    b.AddString("exposition", service_->RenderTelemetry());
    return b.Finish();
  }
  // Legacy/default shape: the admission counters, unchanged bytes.
  const AdmissionCounters c = service_->admission_counters();
  b.AddUint("submitted", c.submitted);
  b.AddUint("admitted", c.admitted);
  b.AddUint("queued", c.queued);
  b.AddUint("rejected", c.rejected);
  b.AddUint("released", c.released);
  b.AddUint("active", c.active);
  b.AddUint("active_peak", c.active_peak);
  return b.Finish();
}

Result<std::string> ServiceSession::ExecuteTrace(const ServiceRequest& req) {
  const std::string* trace_json = FindRetainedTrace(req.trace_id);
  if (trace_json == nullptr) {
    return Status::NotFound("no retained trace for trace_id '" +
                            req.trace_id + "'");
  }
  ResponseBuilder b(req.id);
  b.AddString("trace_id", req.trace_id);
  b.AddRaw("trace", *trace_json);
  return b.Finish();
}

Result<std::string> ServiceSession::ExecuteCreateGraph(
    const ServiceRequest& req) {
  GraphDb db = GraphDb(Alphabet::OfChars(req.alphabet));
  if (!req.graph_text.empty()) {
    ECRPQ_ASSIGN_OR_RAISE(db, GraphDbFromString(req.graph_text));
  }
  // Publish finalized: readers must never trigger the lazy CSR build.
  db.Finalize();
  const int vertices = db.NumVertices();
  if (service_->InstallGraph(req.graph, std::move(db)) == nullptr) {
    return Status::Invalid("graph '" + req.graph + "' already exists");
  }
  ResponseBuilder b(req.id);
  if (!req.trace_id.empty()) b.AddString("trace_id", req.trace_id);
  b.AddUint("vertices", static_cast<uint64_t>(vertices));
  return b.Finish();
}

Result<std::string> ServiceSession::ExecuteMutation(
    const ServiceRequest& req) {
  QueryService::GraphEntry* entry = service_->FindGraph(req.graph);
  if (entry == nullptr) {
    return Status::NotFound("no graph named '" + req.graph + "'");
  }
  GraphWriteClaim write_claim(entry);
  GraphDb& db = entry->db;
  if (req.op == RequestOp::kAddVertex) {
    db.AddVertices(static_cast<int>(req.count));
  } else {
    const uint32_t limit = static_cast<uint32_t>(db.NumVertices());
    if (req.from >= limit || req.to >= limit) {
      return Status::OutOfRange("edge endpoint out of range (graph has " +
                                std::to_string(limit) + " vertices)");
    }
    db.AddEdge(req.from, std::string_view(req.symbol), req.to);
  }
  // Rebuild the CSR before the exclusive claim drops: concurrent readers
  // must only ever see a finalized graph (the lazy build is not
  // thread-safe), and the epoch bump has already retired the reach memo's
  // pre-mutation entries.
  db.Finalize();
  ResponseBuilder b(req.id);
  if (!req.trace_id.empty()) b.AddString("trace_id", req.trace_id);
  b.AddUint("vertices", static_cast<uint64_t>(db.NumVertices()));
  b.AddUint("edges", static_cast<uint64_t>(db.NumEdges()));
  return b.Finish();
}

void ServiceSession::RetainTrace(const std::string& trace_id,
                                 std::string trace_json) {
  // The wire is line-delimited: flatten the pretty-printed trace to one
  // line so it can be embedded raw in a `trace` response. JSON whitespace
  // is insignificant, so the result still validates.
  std::replace(trace_json.begin(), trace_json.end(), '\n', ' ');
  while (!trace_json.empty() && trace_json.back() == ' ') {
    trace_json.pop_back();
  }
  // A re-used trace_id replaces its previous trace (latest wins).
  for (auto it = recent_traces_.begin(); it != recent_traces_.end(); ++it) {
    if (it->first == trace_id) {
      recent_traces_.erase(it);
      break;
    }
  }
  recent_traces_.emplace_back(trace_id, std::move(trace_json));
  while (recent_traces_.size() > kMaxRetainedTraces) {
    recent_traces_.pop_front();
  }
}

const std::string* ServiceSession::FindRetainedTrace(
    const std::string& trace_id) const {
  for (auto it = recent_traces_.rbegin(); it != recent_traces_.rend(); ++it) {
    if (it->first == trace_id) return &it->second;
  }
  return nullptr;
}

void ServiceSession::RecordFlightEvent(const char* name, uint64_t start_ns,
                                       uint64_t dur_ns, uint64_t arg) {
  recorder_.Record(name, obs::CurrentTraceThreadId(), start_ns, dur_ns, arg);
  // Mirror into the process-wide recorder backing the fatal-signal dump.
  // Its time base differs, so the event is re-anchored to "ends now".
  obs::FlightRecorder& process = obs::FlightRecorder::Process();
  const uint64_t now_ns = process.NowNs();
  process.Record(name, obs::CurrentTraceThreadId(),
                 now_ns >= dur_ns ? now_ns - dur_ns : 0, dur_ns, arg);
}

void ServiceSession::MaybeDumpPostmortem(const std::string& trace_id) {
  const std::string& dir = service_->config_.postmortem_dir;
  if (dir.empty()) return;
  const std::string path = dir + "/postmortem_s" +
                           std::to_string(session_id_) + "_" +
                           std::to_string(++postmortem_seq_) + ".json";
  if (recorder_.DumpToFile(path, trace_id).ok()) {
    obs::Add(shard_, obs::CounterId::kTelemetryPostmortemDumps);
  }
}

}  // namespace ecrpq
