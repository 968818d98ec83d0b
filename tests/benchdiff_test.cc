// Unit tests for common/benchdiff.h (the tools/bench_compare engine) and
// the common/json.h parser it is built on: self-comparison passes, a
// synthetic 2x slowdown fails, slack absorbs noise-sized drift, and
// incomparable records (build mode / threads / seed) are skipped with a
// note instead of failing the gate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/benchdiff.h"
#include "common/json.h"

namespace ecrpq {
namespace {

using benchdiff::BenchRecord;
using benchdiff::CompareBenchRecords;
using benchdiff::CompareOptions;
using benchdiff::CompareReport;
using benchdiff::ParseBenchJson;

// ---------------------------------------------------------------------------
// common/json.h

TEST(JsonTest, ParsesScalarsArraysAndObjects) {
  Result<json::Value> doc =
      json::Parse("{\"a\": 1.5, \"b\": [true, null, \"x\\n\"], \"c\": {}}");
  ASSERT_TRUE(doc.ok()) << doc.status();
  double a = 0;
  EXPECT_TRUE(doc->GetNumber("a", &a));
  EXPECT_DOUBLE_EQ(a, 1.5);
  const json::Value* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->AsArray().size(), 3u);
  EXPECT_TRUE(b->AsArray()[0].AsBool());
  EXPECT_TRUE(b->AsArray()[1].is_null());
  EXPECT_EQ(b->AsArray()[2].AsString(), "x\n");
  const json::Value* c = doc->Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->is_object());
  EXPECT_TRUE(c->AsObject().empty());
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("[1,]").ok());
  EXPECT_FALSE(json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(json::Parse("\"unterminated").ok());
  EXPECT_FALSE(json::Parse("1 trailing").ok());
  EXPECT_FALSE(json::Parse("nul").ok());
  // RFC 8259 is the contract: strtod-style extensions (hex, leading
  // zeros, bare dots, hex floats) and raw control characters inside
  // strings are not JSON.
  for (const char* bad :
       {"0x10", "-0x1A", "01", "-01", "1.", "-.5", ".5", "0X1p4", "+1",
        "1e", "1e+", "-", "Infinity", "NaN", "1e999", "[1.e3]",
        "\"tab\there\"", "\"nl\nhere\"", "\"\x01\""}) {
    EXPECT_FALSE(json::Parse(bad).ok()) << bad;
  }
}

TEST(JsonTest, ParsesNegativeAndExponentNumbers) {
  Result<json::Value> doc =
      json::Parse("[-2, 1e3, 0.25, 0, -0.0e0, 1.5e-3, 2E+2]");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_DOUBLE_EQ(doc->AsArray()[0].AsNumber(), -2);
  EXPECT_DOUBLE_EQ(doc->AsArray()[1].AsNumber(), 1000);
  EXPECT_DOUBLE_EQ(doc->AsArray()[2].AsNumber(), 0.25);
  EXPECT_DOUBLE_EQ(doc->AsArray()[3].AsNumber(), 0);
  EXPECT_DOUBLE_EQ(doc->AsArray()[4].AsNumber(), 0);
  EXPECT_DOUBLE_EQ(doc->AsArray()[5].AsNumber(), 0.0015);
  EXPECT_DOUBLE_EQ(doc->AsArray()[6].AsNumber(), 200);
}

TEST(JsonTest, EscapeRoundTripsEveryByte) {
  std::string all;
  for (int c = 1; c < 256; ++c) all.push_back(static_cast<char>(c));
  const std::string escaped = JsonEscape(all);
  for (const char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << escaped;
  }
  Result<json::Value> doc = json::Parse("\"" + escaped + "\"");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->AsString(), all);
  EXPECT_EQ(JsonEscape("q\"\\\n\r\t\x1f"), "q\\\"\\\\\\n\\r\\t\\u001f");
}

// ---------------------------------------------------------------------------
// ParseBenchJson

constexpr const char* kBenchJson = R"([
  {"name": "BM_Foo/4", "n": 4, "median_ns": 1200000, "min_ns": 1000000,
   "repeats": 3, "seed": 0, "threads": 8, "build": "optimized",
   "counters": {"reach_queries": 64, "phase_bfs_ns_p90": 50000}},
  {"name": "BM_Bar/2", "n": 2, "median_ns": 500000, "min_ns": 450000,
   "repeats": 3, "seed": 0, "threads": 8, "build": "optimized",
   "counters": {}}
])";

TEST(BenchDiffTest, ParsesBenchJson) {
  Result<std::vector<BenchRecord>> records = ParseBenchJson(kBenchJson);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 2u);
  const BenchRecord& foo = (*records)[0];
  EXPECT_EQ(foo.name, "BM_Foo/4");
  EXPECT_DOUBLE_EQ(foo.min_ns, 1000000);
  EXPECT_EQ(foo.repeats, 3u);
  EXPECT_EQ(foo.threads, 8u);
  EXPECT_EQ(foo.build, "optimized");
  ASSERT_EQ(foo.counters.size(), 2u);
  EXPECT_EQ(foo.counters[0].first, "reach_queries");
  EXPECT_EQ(foo.counters[1].first, "phase_bfs_ns_p90");
}

// A pre-min_ns baseline (older format): min_ns falls back to median_ns.
TEST(BenchDiffTest, MinNsFallsBackToMedian) {
  Result<std::vector<BenchRecord>> records = ParseBenchJson(
      R"([{"name": "BM_Old", "median_ns": 700, "build": "optimized"}])");
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_DOUBLE_EQ((*records)[0].min_ns, 700);
  EXPECT_EQ((*records)[0].repeats, 1u);
}

TEST(BenchDiffTest, RejectsNonArrayAndNamelessRecords) {
  EXPECT_FALSE(ParseBenchJson("{}").ok());
  EXPECT_FALSE(ParseBenchJson("[{\"n\": 1}]").ok());
  EXPECT_FALSE(ParseBenchJson("not json").ok());
}

// ---------------------------------------------------------------------------
// CompareBenchRecords

std::vector<BenchRecord> BaselineRecords() {
  return *ParseBenchJson(kBenchJson);
}

TEST(BenchDiffTest, SelfComparisonPasses) {
  const std::vector<BenchRecord> records = BaselineRecords();
  const CompareReport report =
      CompareBenchRecords(records, records, CompareOptions{});
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.compared, 2u);
  EXPECT_TRUE(report.notes.empty()) << report.ToString();
}

TEST(BenchDiffTest, TwoXSlowdownFails) {
  const std::vector<BenchRecord> baseline = BaselineRecords();
  std::vector<BenchRecord> current = baseline;
  current[0].min_ns *= 2;  // 1ms -> 2ms: far past 40% rel + 50us abs.
  const CompareReport report =
      CompareBenchRecords(baseline, current, CompareOptions{});
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.regressions.size(), 1u);
  EXPECT_EQ(report.regressions[0].bench, "BM_Foo/4");
  EXPECT_EQ(report.regressions[0].metric, "min_ns");
  EXPECT_NE(report.ToString().find("REGRESSION"), std::string::npos);
}

TEST(BenchDiffTest, NoiseSizedDriftPasses) {
  const std::vector<BenchRecord> baseline = BaselineRecords();
  std::vector<BenchRecord> current = baseline;
  current[0].min_ns *= 1.2;   // Within the 40% relative slack.
  current[1].min_ns += 49000;  // Within the 50us absolute slack.
  EXPECT_TRUE(
      CompareBenchRecords(baseline, current, CompareOptions{}).ok());
}

TEST(BenchDiffTest, CounterBlowupFailsAndTimeCounterGetsTimeSlack) {
  const std::vector<BenchRecord> baseline = BaselineRecords();
  std::vector<BenchRecord> current = baseline;
  // Work counter 64 -> 256: outside 25% rel + 64 abs.
  current[0].counters[0].second = 256;
  CompareReport report =
      CompareBenchRecords(baseline, current, CompareOptions{});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.regressions[0].metric, "reach_queries");

  // The same ratio on a wall-clock counter sits inside the time slack
  // (50us -> 110us is under 50us * 1.4 + 50us = 120us).
  current = baseline;
  current[0].counters[1].second = 110000;
  EXPECT_TRUE(CompareBenchRecords(baseline, current, CompareOptions{}).ok());

  // --no-counters turns the work-counter blowup into a pass.
  current = baseline;
  current[0].counters[0].second = 256;
  CompareOptions no_counters;
  no_counters.check_counters = false;
  EXPECT_TRUE(CompareBenchRecords(baseline, current, no_counters).ok());
}

TEST(BenchDiffTest, SchedPrefixedCountersAreInformationalOnly) {
  // Steal diagnostics depend on the OS scheduler's interleaving, so a
  // "sched_" prefix marks a counter as exported-but-never-compared: even
  // a 100x blowup must not gate.
  std::vector<BenchRecord> baseline = BaselineRecords();
  baseline[0].counters.emplace_back("sched_steal_attempts", 10.0);
  std::vector<BenchRecord> current = baseline;
  current[0].counters.back().second = 1000.0;
  EXPECT_TRUE(CompareBenchRecords(baseline, current, CompareOptions{}).ok());
  current[0].counters.back().second = 0.0;
  EXPECT_TRUE(CompareBenchRecords(baseline, current, CompareOptions{}).ok());
}

TEST(BenchDiffTest, CachePrefixedCountersAreInformationalOnly) {
  // Cache hit/miss/eviction counts depend on what earlier iterations left
  // in the process-wide caches, so like sched_ they are exported for
  // eyeballing but never gated — a warm run vs a cold baseline must pass.
  std::vector<BenchRecord> baseline = BaselineRecords();
  baseline[0].counters.emplace_back("cache_hits", 0.0);
  baseline[0].counters.emplace_back("cache_misses", 500.0);
  std::vector<BenchRecord> current = baseline;
  current[0].counters[current[0].counters.size() - 2].second = 500.0;
  current[0].counters.back().second = 1.0;
  EXPECT_TRUE(CompareBenchRecords(baseline, current, CompareOptions{}).ok());
}

TEST(BenchDiffTest, ServicePrefixedCountersAreInformationalOnly) {
  // Admission traffic (admitted/queued/rejected splits, active peaks) is a
  // function of client timing and load, not of code quality — a run where
  // more clients collided must not gate. Like sched_ and cache_, the
  // "service_" prefix means exported-but-never-compared.
  std::vector<BenchRecord> baseline = BaselineRecords();
  baseline[0].counters.emplace_back("service_admitted", 100.0);
  baseline[0].counters.emplace_back("service_rejected", 0.0);
  std::vector<BenchRecord> current = baseline;
  current[0].counters[current[0].counters.size() - 2].second = 10.0;
  current[0].counters.back().second = 90.0;
  EXPECT_TRUE(CompareBenchRecords(baseline, current, CompareOptions{}).ok());
}

TEST(BenchDiffTest, TelemetryPrefixedCountersAreInformationalOnly) {
  // Event-log records written and postmortem dumps track the load and
  // error mix of a run, not the benchmarked work. Like sched_, cache_ and
  // service_, the "telemetry_" prefix means exported-but-never-compared —
  // a run that logged 100x more events must not gate.
  std::vector<BenchRecord> baseline = BaselineRecords();
  baseline[0].counters.emplace_back("telemetry_events_logged", 1.0);
  baseline[0].counters.emplace_back("telemetry_postmortem_dumps", 0.0);
  std::vector<BenchRecord> current = baseline;
  current[0].counters[current[0].counters.size() - 2].second = 100.0;
  current[0].counters.back().second = 7.0;
  EXPECT_TRUE(CompareBenchRecords(baseline, current, CompareOptions{}).ok());
}

TEST(BenchDiffTest, IncomparableRecordsSkipWithNotes) {
  const std::vector<BenchRecord> baseline = BaselineRecords();

  std::vector<BenchRecord> current = baseline;
  current[0].build = "debug";
  current[0].min_ns *= 50;  // Would fail hard — but must be skipped.
  CompareReport report =
      CompareBenchRecords(baseline, current, CompareOptions{});
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.compared, 1u);
  ASSERT_FALSE(report.notes.empty());

  current = baseline;
  current[1].seed = 99;  // Different workload: skipped.
  report = CompareBenchRecords(baseline, current, CompareOptions{});
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.compared, 1u);

  // Missing benchmark on either side: note, not failure.
  current = {baseline[0]};
  report = CompareBenchRecords(baseline, current, CompareOptions{});
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.compared, 1u);
  report = CompareBenchRecords(current, baseline, CompareOptions{});
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace ecrpq
