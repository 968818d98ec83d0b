// servicebench: the end-to-end load generator for ecrpq's QueryService.
//
//   servicebench --workload NAME --seed N --seconds S --trace 0|1
//                [--trace-out PATH]
//
// Drives QueryService in-process through ServiceSession::HandleLine — the
// code path the socket transport runs per request line (service/server.h);
// the socket itself is not measured. One process runs one workload: it sets
// up the service, runs the timed window with closed-loop reader clients
// (and, for read_write, one open-loop writer), verifies every response,
// then prints one detail line and, last, the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 additionally replays
// the request stream through the layers' public functions (replay.h) and
// reports the per-layer metrics instead. README.md documents both sets.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "eval/generic_eval.h"
#include "eval/planner.h"
#include "generator.h"
#include "graphdb/reach_memo.h"
#include "query/parser.h"
#include "replay.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "stats.h"

#ifndef SERVICEBENCH_BUILD_TYPE
#define SERVICEBENCH_BUILD_TYPE "unknown"
#endif

namespace servicebench {
namespace {

using ecrpq::GraphDb;
using ecrpq::VertexId;

// Set-up runs at least kMinSetupRepeats times and until kSetupSeconds have
// gone by (cheap set-ups repeat more, which steadies their median);
// setup_s is the median.
constexpr int kMinSetupRepeats = 3;
constexpr int kMaxSetupRepeats = 1000;
constexpr double kSetupSeconds = 1.5;
// read_write's open-loop writer: its fixed arrival rate.
constexpr double kWriterRateHz = 25;

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

void SleepUntilNs(uint64_t t) {
  const uint64_t now = NowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

// ---------------------------------------------------------------------------
// Responses and references.

struct Response {
  bool ok = false;
  bool satisfiable = false;
  std::vector<std::vector<VertexId>> answers;
  uint64_t vertices = 0;  // Mutation responses.
  std::string error;
};

Response ParseResponse(const std::string& line) {
  Response r;
  ecrpq::Result<ecrpq::json::Value> doc = ecrpq::json::Parse(line);
  if (!doc.ok() || !doc->is_object()) {
    r.error = "unparseable response";
    return r;
  }
  std::string status;
  doc->GetString("status", &status);
  if (status != "ok") {
    std::string message;
    doc->GetString("message", &message);
    r.error = "status " + status + ": " + message;
    return r;
  }
  r.ok = true;
  if (const auto* sat = doc->Find("satisfiable"); sat && sat->is_bool()) {
    r.satisfiable = sat->AsBool();
  }
  doc->GetUint64("vertices", &r.vertices);
  const ecrpq::json::Value* answers = doc->Find("answers");
  if (answers != nullptr && answers->is_array()) {
    for (const auto& tuple : answers->AsArray()) {
      const bool well_formed =
          tuple.is_array() &&
          std::all_of(tuple.AsArray().begin(), tuple.AsArray().end(),
                      [](const auto& v) { return v.is_number(); });
      if (!well_formed) {
        r.ok = false;
        r.error = "malformed answer tuple";
        return r;
      }
      std::vector<VertexId> t;
      for (const auto& v : tuple.AsArray()) {
        t.push_back(static_cast<VertexId>(v.AsUint64()));
      }
      r.answers.push_back(std::move(t));
    }
  }
  return r;
}

struct Reference {
  bool satisfiable = false;
  std::set<std::vector<VertexId>> answers;
};

// All answers by the generic engine run sequentially with every
// process-wide cache off. For queries `auto` routes to the
// CRPQ pipeline or the Lemma 4.3 reductions this is a different engine;
// for generic-routed stars no other engine finishes at these sizes (the
// reduction enumerates |V|^3 source tuples), so the check there is
// against the sequential search with the caches disabled.
Reference ComputeReference(const GraphDb& db, const std::string& text,
                           std::string* error) {
  Reference ref;
  auto query = ecrpq::ParseEcrpq(text, db.alphabet());
  if (!query.ok()) {
    *error = "reference parse: " + query.status().ToString();
    return ref;
  }
  ecrpq::EvalOptions options;
  options.num_threads = 1;
  options.disable_cache = true;
  auto result = ecrpq::EvaluateGeneric(db, *query, options);
  if (!result.ok()) {
    *error = "reference eval: " + result.status().ToString();
    return ref;
  }
  ref.satisfiable = result->satisfiable;
  ref.answers.insert(result->answers.begin(), result->answers.end());
  return ref;
}

// Boolean flags must match; with max_answers every tuple must be a
// reference answer and the count must be min(max_answers, |reference|).
std::string CheckAnswers(const Response& r, const Reference& ref,
                         uint64_t max_answers) {
  if (r.satisfiable != ref.satisfiable) return "satisfiable flag differs";
  if (max_answers == 0) return "";
  const size_t want = std::min<size_t>(max_answers, ref.answers.size());
  if (r.answers.size() != want) {
    return "answer count " + std::to_string(r.answers.size()) + " != " +
           std::to_string(want);
  }
  for (const auto& tuple : r.answers) {
    if (ref.answers.count(tuple) == 0) return "answer not in reference";
  }
  return "";
}

// The same rule for one distinct query without enumerating its whole
// answer set: each returned tuple is certified by a reference run with the
// free variables pinned to it, and only a response with fewer than
// max_answers tuples needs the full reference count.
std::string CheckQuery(const GraphDb& db, const QuerySpec& q,
                       const Response& r) {
  auto query = ecrpq::ParseEcrpq(q.text, db.alphabet());
  if (!query.ok()) return "reference parse: " + query.status().ToString();
  ecrpq::EvalOptions options;
  options.num_threads = 1;
  options.disable_cache = true;
  if (query->IsBoolean() || r.answers.size() < q.max_answers) {
    std::string error;
    const Reference ref = ComputeReference(db, q.text, &error);
    return error.empty() ? CheckAnswers(r, ref, q.max_answers) : error;
  }
  if (!r.satisfiable) return "satisfiable flag differs";
  const std::vector<ecrpq::NodeVarId>& free = query->free_vars();
  std::set<std::vector<VertexId>> seen;
  for (const auto& tuple : r.answers) {
    if (tuple.size() != free.size() || !seen.insert(tuple).second) {
      return "malformed or repeated answer";
    }
    ecrpq::EvalOptions pinned = options;
    for (size_t i = 0; i < free.size(); ++i) {
      pinned.pin.emplace_back(free[i], tuple[i]);
    }
    auto ref = ecrpq::EvaluateGeneric(db, *query, pinned);
    if (!ref.ok()) return "reference eval: " + ref.status().ToString();
    if (!ref->satisfiable) return "answer not in reference";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Set-up.

struct Setup {
  std::map<std::string, GraphDb> graphs;  // The benchmark's own copies.
  std::unique_ptr<ecrpq::QueryService> service;
  std::vector<WarmShape> shapes;
  // Warm workloads: the priming response of each (shape, variant), and the
  // same bytes without the request id — what every later response to that
  // text must read.
  std::vector<std::string> primed;
  std::vector<std::string> expected;
};

// The response after its {"id":"...", prefix.
std::string AfterId(const std::string& response) {
  const size_t close = response.find('"', 7);
  return close == std::string::npos ? response : response.substr(close + 1);
}

bool SendOk(ecrpq::ServiceSession* session, const std::string& line) {
  return ParseResponse(session->HandleLine(line)).ok;
}

// Graph generation and load over the wire, service start (the CSR builds
// happen at load), and for warm workloads the priming pass.
bool RunSetup(const WorkloadDef& w, uint64_t seed, Setup* setup) {
  for (const GraphSpec& spec : GraphsOf(w.kind)) {
    setup->graphs.emplace(spec.name, MakeGraph(spec, seed));
  }
  ecrpq::ServiceConfig config;
  config.pool_threads = w.pool_threads;
  setup->service = std::make_unique<ecrpq::QueryService>(config);
  auto session = setup->service->OpenSession();
  int id = 0;
  for (const auto& [name, db] : setup->graphs) {
    if (!SendOk(session.get(),
                CreateGraphLine("load" + std::to_string(id++), name, db))) {
      return false;
    }
  }
  if (IsWarm(w.kind)) {
    setup->shapes = WarmShapes(seed);
    for (const WarmShape& shape : setup->shapes) {
      for (const QuerySpec& q : shape.variants) {
        setup->primed.push_back(
            session->HandleLine(QueryLine("prime" + std::to_string(id++), q)));
        setup->expected.push_back(AfterId(setup->primed.back()));
      }
    }
  }
  return true;
}

size_t NumVariants(const Setup& setup) {
  return setup.shapes.empty() ? 1 : setup.shapes.front().variants.size();
}

const QuerySpec& WarmQuery(const Setup& setup, uint32_t index) {
  const size_t variants = NumVariants(setup);
  return setup.shapes[index / variants].variants[index % variants];
}

// ---------------------------------------------------------------------------
// The timed window. Readers keep only what they cannot rebuild: every
// request is a pure function of (seed, client, index).

struct Sample {
  double latency_ms = 0;
  // Position in the distinct stream, or shape * variants + variant.
  uint32_t index = 0;
};

struct ReaderLog {
  std::vector<Sample> samples;
  // Cold and parallel: every response, checked after the window. Warm
  // responses are checked as they arrive (a byte compare), so memory does
  // not grow with throughput.
  std::vector<std::string> responses;
  uint64_t failed = 0;
  std::string first_failure;
};

struct Write {
  Mutation mutation;
  std::string line;
  std::string response;
  double latency_ms = 0;
  double late_ms = 0;  // How late the request went out.
};

struct Window {
  std::vector<ReaderLog> readers;
  std::vector<Write> writes;
  double elapsed_s = 0;
};

Window RunWindow(const WorkloadDef& w, uint64_t seed, double seconds,
                 const Setup& setup) {
  Window window;
  window.readers.resize(w.readers);
  std::vector<std::unique_ptr<ecrpq::ServiceSession>> sessions;
  for (int c = 0; c <= w.readers; ++c) {
    sessions.push_back(setup.service->OpenSession());
  }
  const std::string writer_graph = GraphsOf(w.kind).front().name;
  // Every client starts at the same instant.
  const uint64_t start = NowNs() + 20'000'000;
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<uint64_t> last_finish(w.readers, start);

  auto reader = [&](int c) {
    ReaderLog& log = window.readers[c];
    std::unique_ptr<DistinctQueryStream> distinct;
    std::unique_ptr<WarmDraws> draws;
    if (IsWarm(w.kind)) {
      draws = std::make_unique<WarmDraws>(seed, c, setup.shapes.size(),
                                          NumVariants(setup));
    } else {
      distinct = std::make_unique<DistinctQueryStream>(w.kind, seed);
    }
    // Distinct streams stop on a schedule-round boundary after the
    // deadline, so every run measures whole rounds of the family mix.
    auto more = [&] {
      return NowNs() < deadline ||
             (distinct && distinct->position() % distinct->period() != 0);
    };
    // Think times are drawn around think_ms so the readers do not settle
    // into one phase pattern for the whole run.
    ecrpq::Rng think(ecrpq::HashCombine(seed, 0x7417 + c));
    SleepUntilNs(start);
    for (uint32_t i = 0; more(); ++i) {
      Sample sample;
      std::string line;
      if (draws) {
        const auto [shape, variant] = draws->Next();
        sample.index =
            static_cast<uint32_t>(shape * NumVariants(setup) + variant);
        line = QueryLine("q" + std::to_string(i),
                         WarmQuery(setup, sample.index));
      } else {
        sample.index = i;
        line = QueryLine("q" + std::to_string(i), distinct->Next());
      }
      const uint64_t t0 = NowNs();
      std::string response = sessions[c]->HandleLine(line);
      const uint64_t t1 = NowNs();
      sample.latency_ms = Ms(t1 - t0);
      last_finish[c] = t1;
      log.samples.push_back(sample);
      if (distinct) {
        log.responses.push_back(std::move(response));
        continue;
      }
      // warm_repeat: byte-identical to the verified priming response.
      // read_write: the graph may have moved since priming, so status only.
      const bool ok =
          w.kind == Workload::kWarmRepeat
              ? AfterId(response) == setup.expected[sample.index]
              : response.find("\"status\":\"ok\"") != std::string::npos;
      if (!ok && log.failed++ == 0) log.first_failure = response;
      if (w.think_ms > 0) {
        const double ms = w.think_ms * (0.5 + think.Below(1001) / 1000.0);
        SleepUntilNs(NowNs() + static_cast<uint64_t>(ms * 1e6));
      }
    }
  };

  // Open loop: request i is due at start + i / rate and is timed from
  // then, so a stalled write also charges the writes queued behind it.
  auto writer = [&]() {
    WriterStream stream(seed, setup.graphs.at(writer_graph));
    const double period_ns = 1e9 / kWriterRateHz;
    for (size_t i = 0;; ++i) {
      const uint64_t due = start + static_cast<uint64_t>(i * period_ns);
      if (due >= deadline) break;
      SleepUntilNs(due);
      Write write;
      write.mutation = stream.Next();
      write.line =
          MutationLine("w" + std::to_string(i), writer_graph, write.mutation);
      const uint64_t sent = NowNs();
      write.response = sessions[w.readers]->HandleLine(write.line);
      write.latency_ms = Ms(NowNs() - due);
      write.late_ms = Ms(sent - due);
      window.writes.push_back(std::move(write));
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < w.readers; ++c) threads.emplace_back(reader, c);
  if (w.kind == Workload::kReadWrite) threads.emplace_back(writer);
  for (std::thread& t : threads) t.join();
  // Throughput counts the readers' time: a writer that catches up after
  // the readers stop does not stretch the window.
  const uint64_t end =
      *std::max_element(last_finish.begin(), last_finish.end());
  window.elapsed_s = static_cast<double>(end - start) / 1e9;
  return window;
}

// The queries the (single) distinct-stream reader sent, rebuilt.
std::vector<QuerySpec> SentDistinctQueries(const WorkloadDef& w, uint64_t seed,
                                           size_t count) {
  DistinctQueryStream stream(w.kind, seed);
  std::vector<QuerySpec> queries;
  for (size_t i = 0; i < count; ++i) queries.push_back(stream.Next());
  return queries;
}

// ---------------------------------------------------------------------------
// Verification.

struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> messages;  // First few failures.

  void Fail(const std::string& what) {
    ++failed;
    if (messages.size() < 8) messages.push_back(what);
  }
};

void VerifyWindow(const WorkloadDef& w, const Setup& setup,
                  const Window& window,
                  const std::vector<QuerySpec>& distinct_queries,
                  Verdict* verdict) {
  if (IsWarm(w.kind)) {
    // The priming responses against one reference per shape; the window's
    // responses were compared with them as they arrived.
    const GraphDb& db = setup.graphs.begin()->second;
    for (size_t s = 0; s < setup.shapes.size(); ++s) {
      std::string error;
      const Reference ref =
          ComputeReference(db, setup.shapes[s].variants[0].text, &error);
      for (size_t v = 0; v < NumVariants(setup); ++v) {
        const QuerySpec& q = setup.shapes[s].variants[v];
        const Response r =
            ParseResponse(setup.primed[s * NumVariants(setup) + v]);
        const std::string mismatch =
            !error.empty() ? error
            : !r.ok        ? r.error
                           : CheckAnswers(r, ref, q.max_answers);
        if (!mismatch.empty()) {
          verdict->Fail("priming " + q.text + ": " + mismatch);
        }
      }
    }
    for (const ReaderLog& log : window.readers) {
      verdict->attempted += log.samples.size();
      if (log.failed == 0) continue;
      verdict->failed += log.failed - 1;
      verdict->Fail("response differs from its verified priming response: " +
                    log.first_failure);
    }
  } else {
    // One reference check per distinct query, now, outside the window.
    const ReaderLog& log = window.readers.front();
    for (size_t i = 0; i < log.samples.size(); ++i) {
      ++verdict->attempted;
      const QuerySpec& q = distinct_queries[i];
      const Response r = ParseResponse(log.responses[i]);
      const std::string mismatch =
          !r.ok ? r.error : CheckQuery(setup.graphs.at(q.graph), q, r);
      if (!mismatch.empty()) {
        verdict->Fail(q.family + ": " + mismatch + " for " + q.text);
      }
    }
  }
  for (const Write& write : window.writes) {
    ++verdict->attempted;
    const Response r = ParseResponse(write.response);
    if (!r.ok) verdict->Fail("write: " + r.error);
  }
}

// read_write: the final graph must hold exactly the initial edges plus the
// applied ones, and the applied vertex count.
void VerifyFinalGraph(const WorkloadDef& w, const Setup& setup,
                      const Window& window, uint64_t seed, Verdict* verdict) {
  const std::string name = GraphsOf(w.kind).front().name;
  WriterStream replayed(seed, setup.graphs.at(name));
  for (size_t i = 0; i < window.writes.size(); ++i) replayed.Next();
  auto session = setup.service->OpenSession();
  for (char symbol : {'a', 'b', 'c'}) {
    QuerySpec q;
    q.graph = name;
    q.text = std::string("q(x, y) := x -[/") + symbol + "/]-> y";
    const Response r = ParseResponse(
        session->HandleLine(QueryLine(std::string("final_") + symbol, q)));
    std::set<std::vector<VertexId>> want;
    for (const auto& [from, to] : replayed.edges(symbol)) {
      want.insert({from, to});
    }
    const std::set<std::vector<VertexId>> got(r.answers.begin(),
                                              r.answers.end());
    if (!r.ok || got != want) {
      verdict->Fail(std::string("final graph: ") + symbol +
                    "-edges differ from the applied edge set");
    }
  }
  if (!window.writes.empty()) {
    const Response last = ParseResponse(window.writes.back().response);
    if (last.vertices != replayed.num_vertices()) {
      verdict->Fail("final graph: vertex count differs");
    }
  }
}

// ---------------------------------------------------------------------------
// Traced replay.

struct ReplayInput {
  std::vector<std::string> lines;
  std::vector<double> e2e_ms;  // The window's latency of each query line.
};

// The readers' requests round-robin, with one write after every
// `reads / writes` reads (at least one), the ratio the window measured.
ReplayInput BuildReplayInput(const Setup& setup, const Window& window,
                             const std::vector<QuerySpec>& distinct_queries) {
  ReplayInput in;
  size_t reads = 0;
  for (const ReaderLog& log : window.readers) reads += log.samples.size();
  const size_t writes = window.writes.size();
  const size_t every = writes > 0 ? std::max<size_t>(1, reads / writes) : 0;
  size_t next_write = 0, emitted = 0;
  for (size_t i = 0; emitted < reads; ++i) {
    for (const ReaderLog& log : window.readers) {
      if (i >= log.samples.size()) continue;
      const Sample& sample = log.samples[i];
      const QuerySpec& q = distinct_queries.empty()
                               ? WarmQuery(setup, sample.index)
                               : distinct_queries[i];
      in.lines.push_back(QueryLine("q" + std::to_string(i), q));
      in.e2e_ms.push_back(sample.latency_ms);
      ++emitted;
      if (every > 0 && emitted % every == 0 && next_write < writes) {
        in.lines.push_back(window.writes[next_write++].line);
        in.e2e_ms.push_back(-1);
      }
    }
  }
  return in;
}

std::map<std::string, GraphDb*> Pointers(
    std::map<std::string, GraphDb>* graphs) {
  std::map<std::string, GraphDb*> ptrs;
  for (auto& [name, db] : *graphs) ptrs[name] = &db;
  return ptrs;
}

// Fresh graphs (new cache identities) and empty process-wide caches, then
// the warm workloads' priming pass, untraced.
std::map<std::string, GraphDb> ReplayGraphs(const WorkloadDef& w,
                                            uint64_t seed,
                                            const Setup& setup) {
  ecrpq::ClearGlobalCaches();
  std::map<std::string, GraphDb> graphs;
  for (const GraphSpec& spec : GraphsOf(w.kind)) {
    graphs.emplace(spec.name, MakeGraph(spec, seed));
  }
  if (IsWarm(w.kind)) {
    std::vector<std::string> prime;
    for (const WarmShape& shape : setup.shapes) {
      for (const QuerySpec& q : shape.variants) {
        prime.push_back(QueryLine("prime", q));
      }
    }
    SpanRecorder scratch;
    Replay(Pointers(&graphs), prime, {w.pool_threads, 0}, &scratch);
  }
  return graphs;
}

double LayerMedian(const ReplayResult& r, const std::string& layer) {
  auto it = r.layer_us.find(layer);
  return it == r.layer_us.end() ? 0 : Median(it->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

std::string JsonString(const std::string& s) {
  return "\"" + ecrpq::JsonEscape(s) + "\"";
}

// Runs the traced replay and adds the per-layer metrics; `detail` gets the
// replay's own figures.
void AddLayerMetrics(const WorkloadDef& w, const Args& args,
                     const Setup& setup, const Window& window,
                     const std::vector<QuerySpec>& distinct_queries,
                     Verdict* verdict,
                     MetricSet* metrics, JsonObject* detail) {
  const ReplayInput input = BuildReplayInput(setup, window, distinct_queries);
  auto graphs = ReplayGraphs(w, args.seed, setup);
  SpanRecorder recorder;
  const ReplayResult r = Replay(Pointers(&graphs), input.lines,
                                {w.pool_threads, args.seconds}, &recorder);
  if (r.errors > 0) verdict->Fail("replay: a layer call failed");

  // The window's latencies of exactly the replayed queries.
  std::vector<double> e2e_replayed;
  std::vector<std::string> replayed_queries;
  for (size_t i = 0; i < r.queries + r.mutations; ++i) {
    if (input.e2e_ms[i] < 0) continue;
    e2e_replayed.push_back(input.e2e_ms[i]);
    replayed_queries.push_back(input.lines[i]);
  }
  const double replay_p50_us = Median(r.query_request_us);

  // Pool > 1: the same queries again at pool 1, from cold caches, for the
  // work-inflation ratio. At pool 1 the ratio is 1 by definition.
  double work_inflation = 1;
  if (w.pool_threads != 1) {
    auto graphs1 = ReplayGraphs(w, args.seed, setup);
    SpanRecorder scratch;
    const ReplayResult r1 =
        Replay(Pointers(&graphs1), replayed_queries, {1, 0}, &scratch);
    work_inflation = Ratio(static_cast<double>(r.assignments_tried),
                           static_cast<double>(r1.assignments_tried));
    JsonObject work;
    work.Add("pool", JsonNumber(w.pool_threads));
    work.Add("assignments", JsonNumber(r.assignments_tried));
    work.Add("pool1_assignments", JsonNumber(r1.assignments_tried));
    work.Add("query_p50_us", JsonNumber(replay_p50_us));
    work.Add("pool1_query_p50_us", JsonNumber(Median(r1.query_request_us)));
    detail->Add("work", work.str());
  }

  const double queries = static_cast<double>(r.queries);
  auto per_query = [&](uint64_t total) {
    return Ratio(static_cast<double>(total), queries);
  };
  const uint64_t memo_lookups = r.memo_hits + r.memo_misses;
  metrics->Add("service.protocol_parse_us",
               LayerMedian(r, "service.protocol_parse"), "us");
  metrics->Add("query.parse_us", LayerMedian(r, "query.parse"), "us");
  metrics->Add("query.canonical_key_us", LayerMedian(r, "query.canonical_key"),
               "us");
  metrics->Add("service.self_us", Median(e2e_replayed) * 1e3 - replay_p50_us,
               "us");
  metrics->Add("eval.classify_us", LayerMedian(r, "eval.classify"), "us");
  metrics->Add("eval.plan_cache_hit_ratio",
               Ratio(static_cast<double>(r.plan_hits),
                     static_cast<double>(r.plan_hits + r.plan_misses)),
               "frac");
  for (const char* route :
       {"crpq_pipeline", "cq_reduction", "cq_reduction_np", "generic"}) {
    auto it = r.engine_ms.find(route);
    const bool ran = it != r.engine_ms.end();
    metrics->Add(std::string("eval.route_share.") + route,
                 ran ? per_query(it->second.size()) : 0, "frac");
    metrics->Add(std::string("eval.engine_ms.") + route,
                 ran ? Median(it->second) : 0, "ms");
  }
  metrics->Add("cq.tuples_materialized", per_query(r.tuples_materialized),
               "count/query");
  metrics->Add("cq.bag_tuples_materialized",
               per_query(r.bag_tuples_materialized), "count/query");
  metrics->Add("graphdb.reach_queries_per_query",
               per_query(memo_lookups + r.generic_reach_queries),
               "count/query");
  metrics->Add("graphdb.memo_hit_ratio",
               Ratio(static_cast<double>(r.memo_hits),
                     static_cast<double>(memo_lookups)),
               "frac");
  metrics->Add("graphdb.reach_memo_bytes",
               static_cast<double>(r.memo_bytes_end), "bytes");
  metrics->Add("graphdb.reach_memo_evictions",
               static_cast<double>(r.memo_evictions), "count");
  metrics->Add("graphdb.rpq_bfs_runs", per_query(r.rpq_bfs_runs),
               "count/query");
  metrics->Add("graphdb.product_states_expanded",
               per_query(r.product_states_expanded), "count/query");
  metrics->Add("graphdb.mutate_us", LayerMedian(r, "graphdb.mutate"), "us");
  metrics->Add("graphdb.noop_mutation_share",
               Ratio(static_cast<double>(r.noop_mutations),
                     static_cast<double>(r.mutations)),
               "frac");
  metrics->Add("eval.assignments_tried", per_query(r.assignments_tried),
               "count/query");
  metrics->Add("eval.branches_explored", per_query(r.branches_explored),
               "count/query");
  metrics->Add("common.work_inflation", work_inflation, "ratio");
  std::vector<double> late_ms;
  for (const Write& write : window.writes) late_ms.push_back(write.late_ms);
  metrics->Add("bench.writer_late_ms", Median(late_ms), "ms");
  const double min_coverage =
      r.coverage.empty()
          ? 0
          : *std::min_element(r.coverage.begin(), r.coverage.end());
  metrics->Add("replay.coverage_min_pct", 100 * min_coverage, "%");
  const auto covered = std::count_if(r.coverage.begin(), r.coverage.end(),
                                     [](double c) { return c >= 0.95; });
  metrics->Add("replay.covered_95_share",
               Ratio(static_cast<double>(covered),
                     static_cast<double>(r.coverage.size())),
               "frac");
  metrics->Add("replay.query_p50_us", replay_p50_us, "us");

  JsonObject replay;
  replay.Add("requests", JsonNumber(r.queries + r.mutations));
  replay.Add("queries", JsonNumber(r.queries));
  replay.Add("mutations", JsonNumber(r.mutations));
  replay.Add("coverage_p50_pct", JsonNumber(100 * Median(r.coverage)));
  // Self time per layer over the whole pass; "request" is the part of the
  // root spans no layer span covers.
  JsonObject self_ms;
  self_ms.Add("request", JsonNumber(r.uncovered_us / 1e3));
  for (const auto& [layer, us] : r.layer_us) {
    self_ms.Add(layer,
                JsonNumber(std::accumulate(us.begin(), us.end(), 0.0) / 1e3));
  }
  replay.Add("self_ms", self_ms.str());
  if (!args.trace_out.empty()) {
    const bool written = recorder.WriteJsonLines(
        args.trace_out,
        std::string(w.name) + "/seed" + std::to_string(args.seed));
    replay.Add("trace_file", written ? JsonString(args.trace_out) : "null");
  }
  detail->Add("replay", replay.str());
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

int Run(const Args& args) {
  const WorkloadDef* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "servicebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // --- Set-up, several times; the last one serves the window.
  std::vector<double> setup_s;
  Setup setup;
  double setup_total_s = 0;
  for (int i = 0; i < kMaxSetupRepeats &&
                  (i < kMinSetupRepeats || setup_total_s < kSetupSeconds);
       ++i) {
    setup = Setup();
    ecrpq::ClearGlobalCaches();
    const uint64_t t0 = NowNs();
    if (!RunSetup(*w, args.seed, &setup)) {
      std::fprintf(stderr, "servicebench: set-up request failed\n");
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total_s += setup_s.back();
  }

  // --- Timed window.
  JsonObject phase_s;
  uint64_t phase_start = NowNs();
  auto end_phase = [&](const char* name) {
    const uint64_t now = NowNs();
    phase_s.Add(name, JsonNumber(static_cast<double>(now - phase_start) / 1e9));
    phase_start = now;
  };
  const Window window = RunWindow(*w, args.seed, args.seconds, setup);
  end_phase("window");
  const double peak_rss_mb = PeakRssMb();
  const size_t memo_bytes = ecrpq::ReachMemo::Global().SizeBytes();

  // --- Verification.
  const std::vector<QuerySpec> distinct_queries =
      IsWarm(w->kind) ? std::vector<QuerySpec>()
                      : SentDistinctQueries(*w, args.seed,
                                            window.readers[0].samples.size());
  Verdict verdict;
  VerifyWindow(*w, setup, window, distinct_queries, &verdict);
  if (w->kind == Workload::kReadWrite) {
    VerifyFinalGraph(*w, setup, window, args.seed, &verdict);
  }
  end_phase("verify");

  std::vector<double> query_ms;
  std::map<std::string, std::vector<double>> family_ms;
  std::set<std::string> texts;
  for (const ReaderLog& log : window.readers) {
    for (size_t i = 0; i < log.samples.size(); ++i) {
      const Sample& sample = log.samples[i];
      const QuerySpec& q = distinct_queries.empty()
                               ? WarmQuery(setup, sample.index)
                               : distinct_queries[i];
      query_ms.push_back(sample.latency_ms);
      family_ms[q.family].push_back(sample.latency_ms);
      texts.insert(q.text);
    }
  }
  const Tail query_tail = TailPercentile(query_ms);

  // --- Detail line: everything behind the metrics.
  JsonObject detail;
  detail.Add("workload", JsonString(w->name));
  detail.Add("seed", JsonNumber(static_cast<double>(args.seed)));
  detail.Add("seconds", JsonNumber(args.seconds));
  detail.Add("nproc",
             JsonNumber(static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))));
  detail.Add("build_type", JsonString(SERVICEBENCH_BUILD_TYPE));
  const char* env_threads = std::getenv("ECRPQ_THREADS");
  detail.Add("ECRPQ_THREADS", env_threads ? JsonString(env_threads) : "null");
  detail.Add("pool_threads", JsonNumber(w->pool_threads));
  // What each route resolves: only the generic engine reads pool_threads;
  // the CRPQ pipeline and the reductions ask for the default pool.
  const double default_pool = ecrpq::ThreadPool::ResolveNumThreads(0);
  JsonObject resolved;
  resolved.Add("crpq_pipeline", JsonNumber(default_pool));
  resolved.Add("cq_reduction", JsonNumber(default_pool));
  resolved.Add("cq_reduction_np", JsonNumber(default_pool));
  resolved.Add("generic", JsonNumber(ecrpq::ThreadPool::ResolveNumThreads(
                              w->pool_threads)));
  detail.Add("resolved_pool", resolved.str());
  detail.Add("readers", JsonNumber(w->readers));
  detail.Add("think_ms", JsonNumber(w->think_ms));
  detail.Add("inputs_fingerprint",
             JsonString(std::to_string(ecrpq::HashBytes(
                 SerializeInputs(*w, args.seed, 256)))));
  JsonObject setup_detail;
  setup_detail.Add("repeats", JsonNumber(static_cast<double>(setup_s.size())));
  setup_detail.Add(
      "min_s", JsonNumber(*std::min_element(setup_s.begin(), setup_s.end())));
  setup_detail.Add("max_s", JsonNumber(Max(setup_s)));
  detail.Add("setup", setup_detail.str());
  detail.Add("queries", JsonNumber(static_cast<double>(query_ms.size())));
  detail.Add("distinct_text_share",
             JsonNumber(Ratio(static_cast<double>(texts.size()),
                              static_cast<double>(query_ms.size()))));
  JsonObject families;
  for (const auto& [family, ms] : family_ms) {
    JsonObject f;
    f.Add("share", JsonNumber(Ratio(static_cast<double>(ms.size()),
                                    static_cast<double>(query_ms.size()))));
    f.Add("p50_ms", JsonNumber(Median(ms)));
    f.Add("max_ms", JsonNumber(Max(ms)));
    families.Add(family, f.str());
  }
  detail.Add("families", families.str());
  auto tail_json = [](const Tail& tail, size_t samples) {
    JsonObject t;
    t.Add("percentile", JsonNumber(tail.percentile));
    t.Add("samples", JsonNumber(static_cast<double>(samples)));
    t.Add("beyond", JsonNumber(static_cast<double>(tail.beyond)));
    return t.str();
  };
  detail.Add("query_tail", tail_json(query_tail, query_ms.size()));
  if (w->kind == Workload::kReadWrite) {
    // Write latency stays out of the metrics: when a write gets in depends
    // on the rare moments no reader holds the graph, and its median swings
    // by more than a quarter between runs.
    std::vector<double> write_ms, late_ms;
    size_t noop_writes = 0;
    for (const Write& write : window.writes) {
      write_ms.push_back(write.latency_ms);
      late_ms.push_back(write.late_ms);
      noop_writes += write.mutation.noop ? 1 : 0;
    }
    const Tail write_tail = TailPercentile(write_ms);
    JsonObject writer;
    writer.Add("rate_hz", JsonNumber(kWriterRateHz));
    writer.Add("writes", JsonNumber(static_cast<double>(window.writes.size())));
    writer.Add("noop_share",
               JsonNumber(Ratio(static_cast<double>(noop_writes),
                                static_cast<double>(write_ms.size()))));
    writer.Add("write_p50_ms", JsonNumber(Median(write_ms)));
    writer.Add("write_tail_ms", JsonNumber(write_tail.value));
    writer.Add("write_tail", tail_json(write_tail, write_ms.size()));
    writer.Add("late_p50_ms", JsonNumber(Median(late_ms)));
    writer.Add("late_max_ms", JsonNumber(Max(late_ms)));
    size_t landed = 0;
    for (size_t i = 0; i < window.writes.size(); ++i) {
      const double done_s = (static_cast<double>(i) / kWriterRateHz) +
                            window.writes[i].latency_ms / 1e3;
      landed += done_s <= window.elapsed_s ? 1 : 0;
    }
    writer.Add("landed_in_window", JsonNumber(static_cast<double>(landed)));
    detail.Add("writer", writer.str());
  }
  JsonObject memo;
  memo.Add("bytes", JsonNumber(static_cast<double>(memo_bytes)));
  memo.Add("capacity", JsonNumber(static_cast<double>(
                           ecrpq::ReachMemo::kDefaultCapacityBytes)));
  detail.Add("reach_memo", memo.str());
  // Reported here, not as a metric: under several client threads the
  // allocator's fragmentation makes it swing by half between runs of one
  // seed (see README.md).
  detail.Add("peak_rss_mb", JsonNumber(peak_rss_mb));

  MetricSet metrics;
  if (!args.trace) {
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("query_p50_ms", Median(query_ms), "ms");
    metrics.Add("query_tail_ms", query_tail.value, "ms");
    metrics.Add("query_qps",
                Ratio(static_cast<double>(query_ms.size()), window.elapsed_s),
                "1/s");
  } else {
    AddLayerMetrics(*w, args, setup, window, distinct_queries, &verdict,
                    &metrics, &detail);
    end_phase("replay");
  }
  detail.Add("failed_frac",
             JsonNumber(Ratio(static_cast<double>(verdict.failed),
                              static_cast<double>(verdict.attempted))));
  std::string failures = "[";
  for (size_t i = 0; i < verdict.messages.size(); ++i) {
    failures += (i ? ", " : "") + JsonString(verdict.messages[i]);
  }
  detail.Add("failures", failures + "]");
  detail.Add("phase_s", phase_s.str());
  std::printf("{\"detail\": %s}\n", detail.str().c_str());

  const bool correct = verdict.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed),
              metrics.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servicebench

int main(int argc, char** argv) {
  servicebench::Args args;
  if (!servicebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servicebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  return servicebench::Run(args);
}
