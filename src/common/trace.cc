#include "common/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/json.h"

namespace ecrpq {
namespace obs {

int CurrentTraceThreadId() {
  static std::atomic<int> next{0};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Trace::Trace() : origin_(std::chrono::steady_clock::now()) {}

uint64_t Trace::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

void Trace::Record(const char* name, int tid, uint64_t start_ns,
                   uint64_t dur_ns) {
  MutexLock lock(mutex_);
  events_.push_back(TraceEvent{name, tid, start_ns, dur_ns, 0, false});
}

void Trace::Record(const char* name, int tid, uint64_t start_ns,
                   uint64_t dur_ns, uint64_t arg) {
  MutexLock lock(mutex_);
  events_.push_back(TraceEvent{name, tid, start_ns, dur_ns, arg, true});
}

size_t Trace::NumEvents() const {
  MutexLock lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> Trace::Events() const {
  std::vector<TraceEvent> snapshot;
  {
    MutexLock lock(mutex_);
    snapshot = events_;
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              return std::strcmp(a.name, b.name) < 0;
            });
  return snapshot;
}

namespace {

// Trace Event Format timestamps are microseconds; keep ns precision as a
// fraction.
void AppendMicros(uint64_t ns, std::string* out) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                              static_cast<unsigned long long>(ns / 1000),
                              static_cast<unsigned long long>(ns % 1000));
  out->append(buf, static_cast<size_t>(n));
}

}  // namespace

std::string RenderTraceJson(std::string_view trace_id, const char* cat,
                            const std::vector<TraceEvent>& events) {
  std::string out = "{";
  if (!trace_id.empty()) {
    out += "\"traceId\": \"";
    JsonEscape(trace_id, &out);
    out += "\", ";
  }
  out += "\"traceEvents\": [\n";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += "  {\"name\": \"";
    JsonEscape(e.name, &out);
    out += "\", \"cat\": \"";
    out += cat;
    out += "\", \"ph\": \"X\", \"pid\": 0, \"tid\": ";
    out += std::to_string(e.tid);
    out += ", \"ts\": ";
    AppendMicros(e.start_ns, &out);
    out += ", \"dur\": ";
    AppendMicros(e.dur_ns, &out);
    if (e.has_arg || e.seq != 0) {
      out += ", \"args\": {";
      if (e.seq != 0) out += "\"seq\": " + std::to_string(e.seq - 1) + ", ";
      out += "\"v\": " + std::to_string(e.arg) + "}";
    }
    out += i + 1 < events.size() ? "},\n" : "}\n";
  }
  out += "], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::string Trace::ToJson(std::string_view trace_id) const {
  return RenderTraceJson(trace_id, "ecrpq", Events());
}

Status Trace::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  out << ToJson();
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Phase profiles.

namespace {

// Accumulates one thread's events (already sorted by start) into per-name
// stats using an interval-nesting stack: a span's self time is its duration
// minus the durations of its direct children on the same thread.
void AccumulateThread(const std::vector<TraceEvent>& events,
                      std::map<std::string, PhaseStats>* stats) {
  struct Open {
    const char* name;
    uint64_t end_ns;
    uint64_t child_ns = 0;
    uint64_t dur_ns;
  };
  std::vector<Open> stack;
  auto close_top = [&]() {
    const Open top = stack.back();
    stack.pop_back();
    PhaseStats& s = (*stats)[top.name];
    if (s.name.empty()) s.name = top.name;
    const uint64_t child = std::min(top.child_ns, top.dur_ns);
    s.self_ns += top.dur_ns - child;
    if (!stack.empty()) stack.back().child_ns += top.dur_ns;
  };
  for (const TraceEvent& e : events) {
    while (!stack.empty() && stack.back().end_ns <= e.start_ns) close_top();
    PhaseStats& s = (*stats)[e.name];
    if (s.name.empty()) s.name = e.name;
    ++s.count;
    s.total_ns += e.dur_ns;
    stack.push_back(Open{e.name, e.start_ns + e.dur_ns, 0, e.dur_ns});
  }
  while (!stack.empty()) close_top();
}

std::vector<PhaseStats> SortedStats(
    const std::map<std::string, PhaseStats>& stats) {
  std::vector<PhaseStats> out;
  out.reserve(stats.size());
  for (const auto& [name, s] : stats) out.push_back(s);
  std::sort(out.begin(), out.end(),
            [](const PhaseStats& a, const PhaseStats& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.name < b.name;
            });
  return out;
}

std::string Millis(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

void AppendPhaseTable(const std::vector<PhaseStats>& phases,
                      uint64_t denom_ns, std::ostringstream* out) {
  size_t width = std::strlen("phase");
  for (const PhaseStats& p : phases) {
    width = std::max(width, p.name.size());
  }
  char line[160];
  std::snprintf(line, sizeof(line), "%-*s  %8s  %12s  %12s  %7s\n",
                static_cast<int>(width), "phase", "count", "total_ms",
                "self_ms", "self%");
  *out << line;
  for (const PhaseStats& p : phases) {
    const double pct =
        denom_ns == 0
            ? 0.0
            : 100.0 * static_cast<double>(p.self_ns) /
                  static_cast<double>(denom_ns);
    std::snprintf(line, sizeof(line), "%-*s  %8llu  %12s  %12s  %6.1f%%\n",
                  static_cast<int>(width), p.name.c_str(),
                  static_cast<unsigned long long>(p.count),
                  Millis(p.total_ns).c_str(), Millis(p.self_ns).c_str(), pct);
    *out << line;
  }
}

}  // namespace

uint64_t PhaseProfile::TotalSelfNs() const {
  uint64_t total = 0;
  for (const PhaseStats& p : folded) total += p.self_ns;
  return total;
}

std::string PhaseProfile::ToString() const {
  std::ostringstream out;
  AppendPhaseTable(folded, span_ns, &out);
  if (per_thread.size() > 1) {
    for (const auto& [tid, phases] : per_thread) {
      out << "\nthread " << tid << ":\n";
      AppendPhaseTable(phases, span_ns, &out);
    }
  }
  const uint64_t self = TotalSelfNs();
  const double coverage =
      span_ns == 0 ? 0.0
                   : 100.0 * static_cast<double>(self) /
                         static_cast<double>(span_ns);
  char line[96];
  std::snprintf(line, sizeof(line),
                "self-time coverage: %.1f%% of %s ms wall\n", coverage,
                Millis(span_ns).c_str());
  out << line;
  return out.str();
}

PhaseProfile BuildPhaseProfile(const Trace& trace) {
  PhaseProfile profile;
  const std::vector<TraceEvent> events = trace.Events();
  if (events.empty()) return profile;
  uint64_t first_start = ~uint64_t{0};
  uint64_t last_end = 0;
  std::map<int, std::vector<TraceEvent>> by_tid;
  for (const TraceEvent& e : events) {
    first_start = std::min(first_start, e.start_ns);
    last_end = std::max(last_end, e.start_ns + e.dur_ns);
    by_tid[e.tid].push_back(e);
  }
  profile.span_ns = last_end - first_start;
  std::map<std::string, PhaseStats> folded;
  for (auto& [tid, tid_events] : by_tid) {
    // The nesting stack needs parents before children: start ascending,
    // and at equal start the longer (enclosing) span first.
    std::stable_sort(tid_events.begin(), tid_events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.start_ns != b.start_ns) {
                         return a.start_ns < b.start_ns;
                       }
                       return a.dur_ns > b.dur_ns;
                     });
    std::map<std::string, PhaseStats> per;
    AccumulateThread(tid_events, &per);
    for (const auto& [name, s] : per) {
      PhaseStats& f = folded[name];
      if (f.name.empty()) f.name = name;
      f.count += s.count;
      f.total_ns += s.total_ns;
      f.self_ns += s.self_ns;
    }
    profile.per_thread.emplace_back(tid, SortedStats(per));
  }
  profile.folded = SortedStats(folded);
  return profile;
}

// ---------------------------------------------------------------------------
// Schema check.

Status ValidateTraceJson(const std::string& text, size_t min_events) {
  Result<json::Value> doc = json::Parse(text);
  if (!doc.ok()) {
    return Status::ParseError("trace is not well-formed JSON: " +
                              doc.status().message());
  }
  if (!doc->is_object()) {
    return Status::ParseError("trace top level is not a JSON object");
  }
  const json::Value* events = doc->Find("traceEvents");
  if (events == nullptr) {
    return Status::ParseError("trace has no \"traceEvents\" key");
  }
  if (!events->is_array()) {
    return Status::ParseError("\"traceEvents\" is not an array");
  }
  for (const json::Value& event : events->AsArray()) {
    if (!event.is_object()) {
      return Status::ParseError("trace event is not an object");
    }
    // Bit i set = required field i seen: name, ph, ts, dur, pid, tid.
    static constexpr const char* kRequired[] = {"name", "ph",  "ts",
                                                "dur",  "pid", "tid"};
    unsigned seen = 0;
    for (const auto& [key, value] : event.AsObject()) {
      const bool string_field = key == "name" || key == "ph" || key == "cat";
      const bool number_field =
          key == "ts" || key == "dur" || key == "pid" || key == "tid";
      if (string_field && !value.is_string()) {
        return Status::ParseError("event field \"" + key +
                                  "\" is not a string");
      }
      if (number_field && !value.is_number()) {
        return Status::ParseError("event field \"" + key +
                                  "\" is not a number");
      }
      for (unsigned i = 0; i < 6; ++i) {
        if (key == kRequired[i]) seen |= 1u << i;
      }
    }
    if (seen != 0x3f) {
      return Status::ParseError(
          "event object missing a required field (name/ph/ts/dur/pid/tid)");
    }
  }
  if (events->AsArray().size() < min_events) {
    return Status::Invalid("trace holds " +
                           std::to_string(events->AsArray().size()) +
                           " event(s), expected at least " +
                           std::to_string(min_events));
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace ecrpq
