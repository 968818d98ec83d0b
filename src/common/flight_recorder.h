// FlightRecorder: a fixed-capacity, lock-free ring buffer of recent
// spans/events, kept cheap enough to run always-on and dumped as a
// chrome://tracing JSON postmortem when something goes wrong (budget trip,
// protocol error, fatal signal).
//
// Write path: one fetch_add claims a slot, the payload is stored, then the
// slot's sequence number is published with release order — wait-free, no
// mutex, no allocation. Multiple writers are allowed; two writers that land
// on the same slot a full lap apart can tear it, which the reader detects
// (the sequence stamp re-check) and resolves by skipping the slot — a
// postmortem that drops one torn record is still a postmortem.
//
// Read path (ToTraceJson/DumpToFile) walks the retained window oldest
// first and renders it with RenderTraceJson, the renderer Trace::ToJson
// uses, so every dump validates under ValidateTraceJson. Event names must
// be string literals (or otherwise outlive the recorder) — same contract
// as obs::Span.
//
// The process-wide instance (Process()) backs the fatal-signal dump
// installed by `ecrpq_cli serve --postmortem-dir=...`: per-session
// recorders mirror their events into it so the signal handler has one
// place to drain.
#ifndef ECRPQ_COMMON_FLIGHT_RECORDER_H_
#define ECRPQ_COMMON_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/trace.h"

namespace ecrpq {
namespace obs {

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // The process-wide recorder the fatal-signal dump drains.
  static FlightRecorder& Process();

  // Appends one completed event. `name` must outlive the recorder
  // (string literal); `tid` is CurrentTraceThreadId()-style. Wait-free.
  void Record(const char* name, int tid, uint64_t start_ns, uint64_t dur_ns,
              uint64_t arg = 0);

  // Nanoseconds since this recorder was constructed — the time base every
  // recorded event should use.
  uint64_t NowNs() const;

  // Lifetime number of Record calls (>= retained window size).
  uint64_t NumRecorded() const {
    return next_.load(std::memory_order_acquire);
  }

  // Renders the retained window, oldest first, as Trace-Event-Format JSON
  // ({"traceEvents":[...]}). Always ValidateTraceJson-conformant, even
  // mid-write (torn slots are skipped). A non-empty `trace_id` adds the
  // top-level "traceId" key.
  std::string ToTraceJson(std::string_view trace_id = {}) const;

  // ToTraceJson to a file.
  Status DumpToFile(const std::string& path,
                    std::string_view trace_id = {}) const;

  // Installs a fatal-signal handler (SIGSEGV/SIGABRT/SIGBUS/SIGFPE) that
  // dumps Process() to `path`, then re-raises with the default disposition
  // so the exit status still reports the signal. Last installation wins.
  // The dump path allocates and is therefore not strictly async-signal-
  // safe; for a crashing process a best-effort postmortem beats none.
  static void InstallFatalSignalDump(const std::string& path);

 private:
  // A seqlock slot. The payload is one relaxed-or-ordered atomic word per
  // TraceEvent field, so a reader racing a writer reads stale or mixed
  // words (and then drops the slot on the stamp re-check) but never races
  // in the C++ sense.
  struct Slot {
    // seq == claim index + 1, published AFTER the payload; 0 = never
    // written or being rewritten. The reader re-checks it around the
    // payload read.
    std::atomic<uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<int> tid{0};
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint64_t> arg{0};
    std::atomic<bool> has_arg{false};
  };

  const size_t capacity_;
  std::chrono::steady_clock::time_point origin_;
  std::atomic<uint64_t> next_{0};
  std::vector<Slot> slots_;
};

}  // namespace obs
}  // namespace ecrpq

#endif  // ECRPQ_COMMON_FLIGHT_RECORDER_H_
