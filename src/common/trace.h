// Tracing: RAII spans recorded into a chrome://tracing-compatible JSON
// trace (the "Trace Event Format", complete events, ph:"X").
//
// A Span measures one region on one thread; on destruction it appends a
// completed event to the owning Trace. Span construction against a null
// Trace* is a no-op (two stores), which is how observability-disabled runs
// pay nothing: the engine holds a null trace pointer and every span
// collapses.
//
// Span names must be string literals (or otherwise outlive the Trace);
// events store the pointer, not a copy. The optional `arg` renders as
// {"args":{"v":N}} — used for branch indices, component ids, sizes.
//
// Load a written file in chrome://tracing or https://ui.perfetto.dev.
#ifndef ECRPQ_COMMON_TRACE_H_
#define ECRPQ_COMMON_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"

namespace ecrpq {
namespace obs {

// Small dense id for the calling thread, stable for the thread's lifetime
// (process-wide numbering; the main thread is usually 0).
int CurrentTraceThreadId();

// One completed event: the record type of both Trace and FlightRecorder.
struct TraceEvent {
  const char* name;
  int tid;
  uint64_t start_ns;  // Relative to the owning Trace's/recorder's origin.
  uint64_t dur_ns;
  uint64_t arg;
  bool has_arg;
  // FlightRecorder sequence stamp: lifetime record index + 1; 0 for Trace
  // events, which have no sequence.
  uint64_t seq = 0;
};

// The one Trace-Event-Format renderer, behind Trace::ToJson and
// FlightRecorder::ToTraceJson:
//   {["traceId": "<id>", ]"traceEvents": [
//     {"name": ..., "cat": <cat>, "ph": "X", "pid": 0, "tid": ..., "ts": ...,
//      "dur": ...[, "args": {["seq": <seq - 1>, ]"v": <arg>}]},
//   ...], "displayTimeUnit": "ms"}
// one event per line, in the given order. Times are microseconds with
// three decimals. Names and the trace id are escaped with JsonEscape.
std::string RenderTraceJson(std::string_view trace_id, const char* cat,
                            const std::vector<TraceEvent>& events);

class Trace {
 public:
  Trace();
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  // Appends a completed event. Thread-safe.
  void Record(const char* name, int tid, uint64_t start_ns, uint64_t dur_ns)
      ECRPQ_EXCLUDES(mutex_);
  void Record(const char* name, int tid, uint64_t start_ns, uint64_t dur_ns,
              uint64_t arg) ECRPQ_EXCLUDES(mutex_);

  // Nanoseconds since this Trace was constructed.
  uint64_t NowNs() const;

  // Snapshot, sorted by (start, tid).
  size_t NumEvents() const ECRPQ_EXCLUDES(mutex_);
  std::vector<TraceEvent> Events() const ECRPQ_EXCLUDES(mutex_);

  // {"traceEvents":[...],"displayTimeUnit":"ms"} — events sorted by
  // (start, tid, name) so output layout is stable for a given set of spans.
  // A non-empty `trace_id` adds a top-level "traceId" key, which is how the
  // query service links one request's exported trace back to the wire
  // trace_id it was submitted under (extra top-level keys are fine for both
  // chrome://tracing and ValidateTraceJson).
  std::string ToJson(std::string_view trace_id = {}) const;
  Status WriteFile(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable Mutex mutex_;
  std::vector<TraceEvent> events_ ECRPQ_GUARDED_BY(mutex_);
};

// RAII span. Usage:
//   obs::Span span(trace, "ReduceToCq");          // trace may be null
//   obs::Span span(trace, "branch", branch_index);
class Span {
 public:
  Span(Trace* trace, const char* name)
      : trace_(trace), name_(name), has_arg_(false), arg_(0) {
    if (trace_ != nullptr) start_ns_ = trace_->NowNs();
  }
  Span(Trace* trace, const char* name, uint64_t arg)
      : trace_(trace), name_(name), has_arg_(true), arg_(arg) {
    if (trace_ != nullptr) start_ns_ = trace_->NowNs();
  }
  ~Span() {
    if (trace_ == nullptr) return;
    const uint64_t end_ns = trace_->NowNs();
    if (has_arg_) {
      trace_->Record(name_, CurrentTraceThreadId(), start_ns_,
                     end_ns - start_ns_, arg_);
    } else {
      trace_->Record(name_, CurrentTraceThreadId(), start_ns_,
                     end_ns - start_ns_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace* trace_;
  const char* name_;
  bool has_arg_;
  uint64_t arg_;
  uint64_t start_ns_ = 0;
};

// Aggregated per-phase timing derived from a Trace's spans.
//
// "Cumulative" (total_ns) is the summed duration of every span with that
// name; "self" (self_ns) subtracts the time spent in spans nested inside it
// on the same thread, so for a properly nested single-thread trace the
// self times of all phases telescope to exactly the duration of the
// top-level span(s) — the invariant behind `ecrpq_cli profile`'s coverage
// line. Spans on different threads never nest into each other, so on a
// multi-thread trace the per-thread sections are exact while the folded
// self-time sum can exceed wall time (concurrent phases both count).
struct PhaseStats {
  std::string name;
  uint64_t count = 0;
  uint64_t total_ns = 0;  // Cumulative: sum of span durations.
  uint64_t self_ns = 0;   // Cumulative minus nested same-thread spans.
};

struct PhaseProfile {
  // Per-phase stats folded across threads, sorted by self_ns descending
  // (ties by name, so output is stable).
  std::vector<PhaseStats> folded;
  // The same breakdown per trace thread id, phases in the same order
  // discipline.
  std::vector<std::pair<int, std::vector<PhaseStats>>> per_thread;
  // First span start to last span end across the whole trace.
  uint64_t span_ns = 0;

  uint64_t TotalSelfNs() const;
  // Aligned table: phase, count, cumulative ms, self ms, self%; followed by
  // per-thread sections when more than one thread recorded spans, and a
  // closing "self-time coverage" line (TotalSelfNs / span_ns).
  std::string ToString() const;
};

// Builds the profile from the trace's current events. Deterministic for a
// fixed set of events.
PhaseProfile BuildPhaseProfile(const Trace& trace);

// Schema check for an exported trace: the text must parse as JSON, carry a
// top-level "traceEvents" array, and every event must be an object with
// string "name"/"ph" and numeric "ts"/"dur"/"pid"/"tid" fields. With
// `min_events` > 0, additionally fails when the trace holds fewer events —
// the "non-empty trace" gate used by tools/ci.sh.
Status ValidateTraceJson(const std::string& text, size_t min_events = 0);

}  // namespace obs
}  // namespace ecrpq

#endif  // ECRPQ_COMMON_TRACE_H_
