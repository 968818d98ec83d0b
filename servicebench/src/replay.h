// Traced replay: re-runs a workload's request lines sequentially by calling
// the layers' public functions directly — ParseRequestLine, ParseEcrpq,
// CanonicalQueryKey, ClassifyQueryCached, EvaluatePlanned, the GraphDb
// mutators — with a benchmark-side span around each call. The program
// itself records nothing new; counts come from the obs::Session handed to
// the engines and to ClassifyQueryCached, and from GetStats() deltas of the
// process-wide reach memo.
#ifndef SERVICEBENCH_REPLAY_H_
#define SERVICEBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eval/planner.h"
#include "graphdb/graph_db.h"

namespace servicebench {

// One recorded span. `parent` indexes the recorder's span list (-1 for a
// request's root span); spans of one request share `request`.
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int parent;
  uint64_t request;
};

// In-memory span store, written out once at exit.
class SpanRecorder {
 public:
  // Room for this many spans is reserved up front, so growing the store
  // does not land inside a measured request.
  static constexpr size_t kReserved = 1 << 18;
  SpanRecorder() {
    // Resizing first also faults the pages in.
    spans_.resize(kReserved);
    spans_.clear();
  }
  int Begin(const char* name, int parent, uint64_t request);
  void End(int span);
  const std::vector<Span>& spans() const { return spans_; }
  // One JSON object per line: name, start/end in ns since the recorder's
  // first span, parent index, request id. `label` tags every line.
  bool WriteJsonLines(const std::string& path, const std::string& label) const;

 private:
  std::vector<Span> spans_;
};

// Per-layer figures of one replay pass.
struct ReplayResult {
  size_t queries = 0;
  size_t mutations = 0;
  size_t noop_mutations = 0;
  size_t errors = 0;  // Layer calls that returned an error status.
  // Per call, in microseconds: the layer spans (their self time — layer
  // spans have no children) and each query request's root span.
  std::map<std::string, std::vector<double>> layer_us;
  std::vector<double> query_request_us;
  // Share of each request's root span covered by its layer spans.
  std::vector<double> coverage;
  // Root self time summed over requests (the part no layer span covers).
  double uncovered_us = 0;
  // Queries and engine milliseconds per routed engine.
  std::map<std::string, std::vector<double>> engine_ms;
  // Sums over the replayed queries.
  uint64_t tuples_materialized = 0;
  uint64_t bag_tuples_materialized = 0;
  uint64_t rpq_bfs_runs = 0;
  uint64_t product_states_expanded = 0;
  uint64_t assignments_tried = 0;
  uint64_t branches_explored = 0;
  uint64_t generic_reach_queries = 0;
  // Plan-cache outcomes of the replay's own ClassifyQueryCached calls.
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  // GetStats() deltas of the reach memo across the pass.
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t memo_evictions = 0;
  uint64_t memo_bytes_end = 0;
};

struct ReplayOptions {
  int pool_threads = 1;
  // Stop after the request that crosses this much wall time (0: no limit).
  double time_limit_s = 0;
};

// Replays `lines` (query and mutation requests) against `graphs`, keyed by
// the wire graph name. Mutations change the graphs. Spans go to `recorder`
// when it is non-null.
ReplayResult Replay(const std::map<std::string, ecrpq::GraphDb*>& graphs,
                    const std::vector<std::string>& lines,
                    const ReplayOptions& options, SpanRecorder* recorder);

// Snake-case metric label of a routed engine: crpq_pipeline, cq_reduction,
// cq_reduction_np, generic.
const char* RouteLabel(ecrpq::EngineChoice engine);

}  // namespace servicebench

#endif  // SERVICEBENCH_REPLAY_H_
