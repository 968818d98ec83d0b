#include "common/flight_recorder.h"

#include <csignal>
#include <cstdio>
#include <fstream>

namespace ecrpq {
namespace obs {

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      origin_(std::chrono::steady_clock::now()),
      slots_(capacity_) {}

FlightRecorder& FlightRecorder::Process() {
  static FlightRecorder* recorder = new FlightRecorder(1024);
  return *recorder;
}

uint64_t FlightRecorder::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

void FlightRecorder::Record(const char* name, int tid, uint64_t start_ns,
                            uint64_t dur_ns, uint64_t arg) {
  const uint64_t claim = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[claim % capacity_];
  // Invalidate first so a reader racing this write sees "in flux", not a
  // stale-payload/new-seq mix. Release stores keep the invalidation ahead
  // of every payload word.
  constexpr auto kRelease = std::memory_order_release;
  slot.seq.store(0, std::memory_order_relaxed);
  slot.name.store(name, kRelease);
  slot.tid.store(tid, kRelease);
  slot.start_ns.store(start_ns, kRelease);
  slot.dur_ns.store(dur_ns, kRelease);
  slot.arg.store(arg, kRelease);
  slot.has_arg.store(true, kRelease);
  slot.seq.store(claim + 1, kRelease);
}

std::string FlightRecorder::ToTraceJson(std::string_view trace_id) const {
  std::vector<TraceEvent> window;
  window.reserve(capacity_);
  const uint64_t end = next_.load(std::memory_order_acquire);
  const uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  for (uint64_t i = begin; i < end; ++i) {
    const Slot& slot = slots_[i % capacity_];
    const uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before != i + 1) continue;  // Overwritten or mid-write: skip.
    // Acquire loads keep the stamp re-check below after every payload
    // word.
    constexpr auto kAcquire = std::memory_order_acquire;
    const TraceEvent e{slot.name.load(kAcquire),     slot.tid.load(kAcquire),
                       slot.start_ns.load(kAcquire), slot.dur_ns.load(kAcquire),
                       slot.arg.load(kAcquire),      slot.has_arg.load(kAcquire),
                       seq_before};
    // A writer lapping us invalidates seq first, so an unchanged stamp
    // means the payload we copied was not torn.
    if (slot.seq.load(std::memory_order_relaxed) != seq_before) continue;
    if (e.name == nullptr) continue;
    window.push_back(e);
  }
  return RenderTraceJson(trace_id, "flightrec", window);
}

Status FlightRecorder::DumpToFile(const std::string& path,
                                  std::string_view trace_id) const {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  out << ToTraceJson(trace_id);
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Fatal-signal dump.

namespace {

// Written once by InstallFatalSignalDump before any handler can run; the
// handler only reads. A plain pointer (not std::string) so the handler
// never touches a possibly-mid-mutation object.
std::atomic<const char*> g_fatal_dump_path{nullptr};

void FatalSignalHandler(int signo) {
  const char* path = g_fatal_dump_path.load(std::memory_order_acquire);
  if (path != nullptr) {
    // Best effort: DumpToFile allocates, which is formally unsafe in a
    // handler but the process is dying anyway (see header).
    (void)FlightRecorder::Process().DumpToFile(path, "fatal-signal");
  }
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

}  // namespace

void FlightRecorder::InstallFatalSignalDump(const std::string& path) {
  // Leaked on purpose: the handler may outlive every caller scope.
  char* copy = new char[path.size() + 1];
  std::snprintf(copy, path.size() + 1, "%s", path.c_str());
  g_fatal_dump_path.store(copy, std::memory_order_release);
  std::signal(SIGSEGV, FatalSignalHandler);
  std::signal(SIGABRT, FatalSignalHandler);
  std::signal(SIGBUS, FatalSignalHandler);
  std::signal(SIGFPE, FatalSignalHandler);
}

}  // namespace obs
}  // namespace ecrpq
