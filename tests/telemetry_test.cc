// Unit coverage for the request-telemetry sinks: the TelemetryRegistry
// exposition (format, determinism, gauge-group atomicity), the EventLog
// JSON-lines appender, and the FlightRecorder ring (wraparound, trace
// validity, file dumps).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/event_log.h"
#include "common/flight_recorder.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace ecrpq {
namespace {

using obs::CounterId;
using obs::EventLog;
using obs::FlightRecorder;
using obs::HistogramId;
using obs::TelemetryRegistry;
using obs::ValidateTraceJson;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "ecrpq_telemetry_test_" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TelemetryRegistryTest, RendersCountersHistogramsAndGauges) {
  obs::Metrics metrics;
  obs::MetricsShard* shard = metrics.AcquireShard();
  shard->Add(CounterId::kProductStatesExpanded, 41);
  for (int i = 1; i <= 100; ++i) {
    shard->Record(HistogramId::kServiceRequestNs, static_cast<uint64_t>(i));
  }

  TelemetryRegistry registry;
  registry.RegisterGroup("admission_", [] {
    return TelemetryRegistry::GaugeGroup{{"submitted", 7}, {"admitted", 7}};
  });

  const std::string text = registry.Render(metrics.Aggregate());
  EXPECT_NE(text.find("# TYPE ecrpq_product_states_expanded counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ecrpq_product_states_expanded 41"), std::string::npos);
  // Histogram family (a Prometheus summary): count, sum, quantiles.
  EXPECT_NE(text.find("# TYPE ecrpq_service_request_ns summary"),
            std::string::npos);
  EXPECT_NE(text.find("ecrpq_service_request_ns_count 100"),
            std::string::npos);
  EXPECT_NE(text.find("ecrpq_service_request_ns_sum 5050"),
            std::string::npos);
  EXPECT_NE(text.find("ecrpq_service_request_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ecrpq_service_request_ns{quantile=\"0.9\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ecrpq_service_request_ns{quantile=\"0.99\"}"),
            std::string::npos);
  // Gauge group, "ecrpq_" + prefix + suffix.
  EXPECT_NE(text.find("# TYPE ecrpq_admission_submitted gauge"),
            std::string::npos);
  EXPECT_NE(text.find("ecrpq_admission_submitted 7"), std::string::npos);

  // Identical state renders byte-identically (deterministic ordering).
  EXPECT_EQ(text, registry.Render(metrics.Aggregate()));
}

TEST(TelemetryRegistryTest, GroupSnapshotIsOneCallbackInvocation) {
  // The registry must take each group from exactly ONE callback invocation
  // per Render — that is what lets a provider that reads all its values
  // under one lock promise cross-value identities in every snapshot.
  TelemetryRegistry registry;
  int calls = 0;
  registry.RegisterGroup("pair_", [&calls] {
    ++calls;
    const uint64_t a = static_cast<uint64_t>(calls) * 10;
    return TelemetryRegistry::GaugeGroup{{"left", a}, {"right", a}};
  });
  obs::Metrics metrics;
  const std::string text = registry.Render(metrics.Aggregate());
  EXPECT_EQ(calls, 1);
  // Both values came from the same invocation.
  EXPECT_NE(text.find("ecrpq_pair_left 10"), std::string::npos) << text;
  EXPECT_NE(text.find("ecrpq_pair_right 10"), std::string::npos) << text;
}

TEST(TelemetryRegistryTest, StatsOnlyExpositionSkipsEmptyHistograms) {
  obs::Metrics metrics;
  obs::MetricsShard* shard = metrics.AcquireShard();
  shard->Add(CounterId::kCacheHits, 3);
  const std::string text = obs::RenderStatsExposition(metrics.Aggregate());
  EXPECT_NE(text.find("ecrpq_cache_hits 3"), std::string::npos) << text;
  // No histogram was recorded: no empty histogram families in the output.
  EXPECT_EQ(text.find("ecrpq_service_request_ns"), std::string::npos) << text;
}

TEST(EventLogTest, AppendsOneFlushedLinePerEvent) {
  const std::string path = TempPath("event_log.jsonl");
  std::remove(path.c_str());
  EventLog log(path);
  ASSERT_TRUE(log.ok());
  log.Append("{\"event\":\"query\",\"n\":1}");
  log.Append("{\"event\":\"query\",\"n\":2}");
  EXPECT_EQ(log.lines_written(), 2u);

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    Result<json::Value> doc = json::Parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    std::string event;
    ASSERT_TRUE(doc->GetString("event", &event));
    EXPECT_EQ(event, "query");
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(EventLogTest, UnwritablePathIsNotOkAndAppendIsANoOp) {
  EventLog log("/nonexistent-dir-zz/event.jsonl");
  EXPECT_FALSE(log.ok());
  log.Append("{\"event\":\"query\"}");  // Must not crash.
  EXPECT_EQ(log.lines_written(), 0u);
}

TEST(EventLogTest, ConcurrentAppendsNeverInterleaveWithinALine) {
  const std::string path = TempPath("event_log_mt.jsonl");
  std::remove(path.c_str());
  EventLog log(path);
  ASSERT_TRUE(log.ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Append("{\"event\":\"query\",\"writer\":" + std::to_string(t) +
                   ",\"n\":" + std::to_string(i) + "}");
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(log.lines_written(), uint64_t{kThreads} * kPerThread);

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_TRUE(json::Parse(line).ok()) << "torn line: " << line;
  }
  EXPECT_EQ(lines, kThreads * kPerThread);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, RetainedWindowValidatesAsTraceJson) {
  FlightRecorder recorder(/*capacity=*/8);
  recorder.Record("parse", 0, 100, 50);
  recorder.Record("evaluate", 0, 200, 300, /*arg=*/7);
  EXPECT_EQ(recorder.NumRecorded(), 2u);
  const std::string json = recorder.ToTraceJson("t-42");
  EXPECT_TRUE(ValidateTraceJson(json, /*min_events=*/2).ok()) << json;
  Result<json::Value> doc = json::Parse(json);
  ASSERT_TRUE(doc.ok());
  std::string trace_id;
  ASSERT_TRUE(doc->GetString("traceId", &trace_id)) << json;
  EXPECT_EQ(trace_id, "t-42");
}

TEST(FlightRecorderTest, WraparoundKeepsOnlyTheNewestEvents) {
  FlightRecorder recorder(/*capacity=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    recorder.Record("event", 0, i * 100, 10, i);
  }
  EXPECT_EQ(recorder.NumRecorded(), 10u);
  const std::string json = recorder.ToTraceJson();
  ASSERT_TRUE(ValidateTraceJson(json, /*min_events=*/4).ok()) << json;
  Result<json::Value> doc = json::Parse(json);
  ASSERT_TRUE(doc.ok());
  const json::Value* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Exactly the last `capacity` records survive, oldest first.
  ASSERT_EQ(events->AsArray().size(), 4u);
  double prev_ts = -1;
  for (const json::Value& event : events->AsArray()) {
    double ts = 0;
    ASSERT_TRUE(event.GetNumber("ts", &ts));
    EXPECT_GT(ts, prev_ts) << "events must be oldest-first";
    prev_ts = ts;
  }
}

// Byte-exact golden for the postmortem format: six fixed-time records into
// a capacity-4 ring keep the newest four, oldest first, each carrying its
// lifetime sequence number next to the caller's arg.
TEST(FlightRecorderTest, TraceJsonGoldenBytesAfterWraparound) {
  FlightRecorder recorder(/*capacity=*/4);
  for (uint64_t i = 0; i < 6; ++i) {
    recorder.Record(i % 2 == 1 ? "query" : "protocol_error",
                    static_cast<int>(i % 3), i * 1500 + 7, 100 + i, i * 10);
  }
  EXPECT_EQ(recorder.ToTraceJson("t-42"),
            "{\"traceId\": \"t-42\", \"traceEvents\": [\n"
            "  {\"name\": \"protocol_error\", \"cat\": \"flightrec\", "
            "\"ph\": \"X\", \"pid\": 0, \"tid\": 2, \"ts\": 3.007, "
            "\"dur\": 0.102, \"args\": {\"seq\": 2, \"v\": 20}},\n"
            "  {\"name\": \"query\", \"cat\": \"flightrec\", \"ph\": \"X\", "
            "\"pid\": 0, \"tid\": 0, \"ts\": 4.507, \"dur\": 0.103, "
            "\"args\": {\"seq\": 3, \"v\": 30}},\n"
            "  {\"name\": \"protocol_error\", \"cat\": \"flightrec\", "
            "\"ph\": \"X\", \"pid\": 0, \"tid\": 1, \"ts\": 6.007, "
            "\"dur\": 0.104, \"args\": {\"seq\": 4, \"v\": 40}},\n"
            "  {\"name\": \"query\", \"cat\": \"flightrec\", \"ph\": \"X\", "
            "\"pid\": 0, \"tid\": 2, \"ts\": 7.507, \"dur\": 0.105, "
            "\"args\": {\"seq\": 5, \"v\": 50}}\n"
            "], \"displayTimeUnit\": \"ms\"}\n");
}

TEST(FlightRecorderTest, DumpToFileWritesAValidPostmortem) {
  const std::string path = TempPath("postmortem.json");
  std::remove(path.c_str());
  FlightRecorder recorder(/*capacity=*/8);
  recorder.Record("service_request", 1, 10, 20);
  ASSERT_TRUE(recorder.DumpToFile(path, "boom-1").ok());
  const std::string dumped = Slurp(path);
  EXPECT_TRUE(ValidateTraceJson(dumped, /*min_events=*/1).ok()) << dumped;
  std::remove(path.c_str());

  EXPECT_FALSE(
      recorder.DumpToFile("/nonexistent-dir-zz/postmortem.json").ok());
}

TEST(FlightRecorderTest, ConcurrentWritersNeverBreakTheDump) {
  FlightRecorder recorder(/*capacity=*/16);
  constexpr int kThreads = 4;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  std::atomic<bool> stop{false};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, &stop, t] {
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        recorder.Record("spin", t, i, 1);
        if (i > 20000) break;
      }
    });
  }
  // Dump repeatedly mid-write: torn slots are skipped, never emitted.
  for (int i = 0; i < 50; ++i) {
    const std::string json = recorder.ToTraceJson();
    ASSERT_TRUE(ValidateTraceJson(json).ok()) << json;
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  // After the storm a lapped slot may retain an older writer's stamp and
  // be (correctly) skipped — the documented drop-a-torn-record contract —
  // so the drained window is valid but not necessarily full. One fresh
  // single-writer lap must be fully readable again.
  EXPECT_TRUE(ValidateTraceJson(recorder.ToTraceJson()).ok());
  for (uint64_t i = 0; i < 16; ++i) {
    recorder.Record("fresh", 0, i * 10, 1);
  }
  EXPECT_TRUE(
      ValidateTraceJson(recorder.ToTraceJson(), /*min_events=*/16).ok());
}

}  // namespace
}  // namespace ecrpq
