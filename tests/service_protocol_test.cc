// Service wire-protocol robustness: every line a client can throw at a
// session — malformed JSON, truncations, oversized payloads, unknown
// fields, duplicate ids, interleaved mutations — must come back as exactly
// one parseable response line with a status, and the session must keep
// serving afterwards. Never a crash, never a hang, never a dropped line.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "service/protocol.h"
#include "service/query_service.h"

namespace ecrpq {
namespace {

// The protocol invariant, asserted after every HandleLine in this file:
// the response parses as a JSON object carrying an `id` (string or null)
// and a `status` of "ok" or "error"; errors also carry code + message.
void ExpectWellFormed(const std::string& response, const std::string& input) {
  Result<json::Value> doc = json::Parse(response);
  ASSERT_TRUE(doc.ok()) << "unparseable response '" << response
                        << "' for input '" << input << "'";
  ASSERT_TRUE(doc->is_object()) << response;
  const json::Value* id = doc->Find("id");
  ASSERT_NE(id, nullptr) << response;
  EXPECT_TRUE(id->is_string() || id->is_null()) << response;
  std::string status;
  ASSERT_TRUE(doc->GetString("status", &status)) << response;
  ASSERT_TRUE(status == "ok" || status == "error") << response;
  if (status == "error") {
    std::string code, message;
    EXPECT_TRUE(doc->GetString("code", &code)) << response;
    EXPECT_TRUE(doc->GetString("message", &message)) << response;
    EXPECT_NE(code, "ok") << response;
  }
}

std::string Handle(ServiceSession* session, const std::string& line) {
  const std::string response = session->HandleLine(line);
  ExpectWellFormed(response, line);
  return response;
}

bool IsError(const std::string& response, const std::string& code) {
  Result<json::Value> doc = json::Parse(response);
  std::string got;
  return doc.ok() && doc->GetString("code", &got) && got == code;
}

bool IsOk(const std::string& response) {
  Result<json::Value> doc = json::Parse(response);
  std::string status;
  return doc.ok() && doc->GetString("status", &status) && status == "ok";
}

TEST(ServiceProtocolTest, MalformedLinesAlwaysStructuredErrors) {
  QueryService service{ServiceConfig{}};
  auto session = service.OpenSession();
  const std::vector<std::string> kBad = {
      "",                          // Empty (the drivers skip blanks, but
                                   // HandleLine itself must survive one).
      "not json at all",
      "{",                         // Truncated object.
      "[1,2,3]",                   // Not an object.
      "42",                        // Not an object.
      "null",
      "{}",                        // No id.
      "{\"id\":\"x\"}",            // No op.
      "{\"id\":\"\",\"op\":\"ping\"}",         // Empty id.
      "{\"id\":42,\"op\":\"ping\"}",           // Non-string id.
      "{\"id\":\"x\",\"op\":\"fly\"}",         // Unknown op.
      "{\"id\":\"x\",\"op\":\"ping\",\"extra\":1}",      // Unknown field.
      "{\"id\":\"x\",\"op\":\"ping\",\"id\":\"y\"}",     // Duplicate field.
      "{\"id\":\"x\",\"op\":\"query\"}",                 // Missing query.
      "{\"id\":\"x\",\"op\":\"query\",\"query\":\"\"}",  // Empty query.
      "{\"id\":\"x\",\"op\":\"query\",\"query\":\"q() := \"}",  // Bad text.
      "{\"id\":\"x\",\"op\":\"query\",\"query\":\"q(x) := x -[/a/]-> y\","
      "\"engine\":\"warp\"}",                            // Unknown engine.
      "{\"id\":\"x\",\"op\":\"query\",\"query\":\"q(x) := x -[/a/]-> y\","
      "\"max_answers\":-1}",                             // Negative uint.
      "{\"id\":\"x\",\"op\":\"query\",\"query\":\"q(x) := x -[/a/]-> y\","
      "\"max_answers\":1.5}",                            // Non-integral.
      "{\"id\":\"x\",\"op\":\"query\",\"query\":\"q(x) := x -[/a/]-> y\","
      "\"no_cache\":\"yes\"}",                           // Wrong type.
      "{\"id\":\"x\",\"op\":\"query\",\"query\":\"q(x) := x -[/a/]-> y\","
      "\"graph\":\"nope\"}",                             // Unknown graph.
      "{\"id\":\"x\",\"op\":\"add_edge\",\"from\":0,\"to\":0}",  // No symbol.
      "{\"id\":\"x\",\"op\":\"add_edge\",\"from\":5,\"symbol\":\"a\","
      "\"to\":0}",                                       // Out of range.
      "{\"id\":\"x\",\"op\":\"add_vertex\",\"count\":0}",
      "{\"id\":\"x\",\"op\":\"create_graph\",\"graph\":\"default\"}",  // Dup.
      "{\"id\":\"x\",\"op\":\"create_graph\",\"graph\":\"g\","
      "\"text\":\"vertices 1\",\"alphabet\":\"ab\"}",    // text AND alphabet.
      "{\"id\":\"x\",\"op\":\"ping\",\"graph\":\"\"}",   // Empty graph name.
  };
  int probe = 0;
  for (const std::string& line : kBad) {
    const std::string response = Handle(session.get(), line);
    std::string status;
    ASSERT_TRUE(json::Parse(response)->GetString("status", &status));
    EXPECT_EQ(status, "error") << line << " -> " << response;
    // The session survives every one of them.
    EXPECT_TRUE(IsOk(Handle(session.get(),
                            "{\"id\":\"alive-" + std::to_string(probe++) +
                                "\",\"op\":\"ping\"}")));
  }
  // The "engine" field is checked against the engine-name table: each of
  // its names is accepted, and an unknown name keeps its exact error line.
  for (const std::string engine :
       {"auto", "adaptive", "generic", "crpq", "cq"}) {
    EXPECT_TRUE(IsOk(Handle(
        session.get(), "{\"id\":\"engine-" + engine +
                           "\",\"op\":\"query\",\"query\":\"q(x) := "
                           "x -[/a/]-> y\",\"engine\":\"" +
                           engine + "\"}")))
        << engine;
  }
  EXPECT_EQ(Handle(session.get(),
                   "{\"id\":\"warp\",\"op\":\"query\",\"query\":\"q(x) := "
                   "x -[/a/]-> y\",\"engine\":\"warp\"}"),
            "{\"id\":\"warp\",\"status\":\"error\",\"code\":"
            "\"invalid_argument\",\"message\":\"unknown engine 'warp'\"}");
}

TEST(ServiceProtocolTest, TraceAndStatsOpsMalformedInputs) {
  QueryService service{ServiceConfig{}};
  auto session = service.OpenSession();
  std::vector<std::string> bad = {
      "{\"id\":\"x\",\"op\":\"ping\",\"trace_id\":\"t\","
      "\"trace_id\":\"u\"}",                          // Duplicate trace_id.
      "{\"id\":\"x\",\"op\":\"ping\",\"trace_id\":\"\"}",   // Empty.
      "{\"id\":\"x\",\"op\":\"ping\",\"trace_id\":42}",     // Non-string.
      "{\"id\":\"x\",\"op\":\"ping\",\"trace_id\":\"has space\"}",
      "{\"id\":\"x\",\"op\":\"ping\",\"trace_id\":\"tab\\there\"}",
      "{\"id\":\"x\",\"op\":\"stats\",\"format\":\"xml\"}",  // Unknown fmt.
      "{\"id\":\"x\",\"op\":\"stats\",\"format\":7}",        // Non-string.
      "{\"id\":\"x\",\"op\":\"stats\",\"query\":\"q\"}",     // Field of
                                                             // another op.
      "{\"id\":\"x\",\"op\":\"trace\"}",               // No trace_id.
      "{\"id\":\"x\",\"op\":\"trace\",\"trace_id\":\"t\",\"extra\":1}",
  };
  // Oversized trace_id (limit is 128 bytes).
  bad.push_back("{\"id\":\"x\",\"op\":\"ping\",\"trace_id\":\"" +
                std::string(129, 'a') + "\"}");
  int probe = 0;
  for (const std::string& line : bad) {
    const std::string response = Handle(session.get(), line);
    std::string status;
    ASSERT_TRUE(json::Parse(response)->GetString("status", &status));
    EXPECT_EQ(status, "error") << line << " -> " << response;
    EXPECT_TRUE(IsOk(Handle(session.get(),
                            "{\"id\":\"alive-" + std::to_string(probe++) +
                                "\",\"op\":\"ping\"}")));
  }
  // A trace_id on an UNKNOWN op is still echoed on the error line: the
  // best-effort recovery pass pulls a valid trace_id out of the rejected
  // request so the client can correlate the failure.
  const std::string unknown_op = Handle(
      session.get(),
      "{\"id\":\"x\",\"op\":\"fly\",\"trace_id\":\"corr-7\"}");
  EXPECT_TRUE(IsError(unknown_op, "invalid_argument")) << unknown_op;
  Result<json::Value> doc = json::Parse(unknown_op);
  std::string echoed;
  ASSERT_TRUE(doc->GetString("trace_id", &echoed)) << unknown_op;
  EXPECT_EQ(echoed, "corr-7");
  // Asking for a trace nobody retained is not_found, not a crash.
  const std::string missing = Handle(
      session.get(),
      "{\"id\":\"y\",\"op\":\"trace\",\"trace_id\":\"never-ran\"}");
  EXPECT_TRUE(IsError(missing, "not_found")) << missing;
}

// One line from the exposition: "<name> <value>". Returns false when the
// metric is absent (the "# TYPE" comment lines never match).
bool FindMetric(const std::string& exposition, const std::string& name,
                uint64_t* value) {
  size_t pos = 0;
  while (pos < exposition.size()) {
    size_t eol = exposition.find('\n', pos);
    if (eol == std::string::npos) eol = exposition.size();
    const std::string line = exposition.substr(pos, eol - pos);
    if (line.size() > name.size() + 1 &&
        line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      *value = std::stoull(line.substr(name.size() + 1));
      return true;
    }
    pos = eol + 1;
  }
  return false;
}

// The exposition's gauge-group contract under fire: 8 threads hammer the
// service with interleaved mutations and queries (the admission slots are
// scarce, so a real mix of admitted and rejected) while the main thread
// scrapes snapshots. EVERY snapshot — not just the drained end state —
// must satisfy the admission identities, because the whole group is
// produced by one locked counters() call.
TEST(ServiceProtocolTest, ExpositionIdentitiesHoldUnderMutationStorm) {
  ServiceConfig config;
  config.pool_threads = 1;
  config.admission.max_concurrent = 2;  // Scarce: forces live rejections.
  QueryService service(config);

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 25;
  std::atomic<int> remaining{kThreads};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &remaining, t] {
      auto session = service.OpenSession();
      const std::string g = "storm" + std::to_string(t);
      session->HandleLine("{\"id\":\"c\",\"op\":\"create_graph\","
                          "\"graph\":\"" + g + "\",\"alphabet\":\"ab\"}");
      session->HandleLine("{\"id\":\"v\",\"op\":\"add_vertex\","
                          "\"graph\":\"" + g + "\",\"count\":4}");
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::string tag = std::to_string(i);
        session->HandleLine(
            "{\"id\":\"e" + tag + "\",\"op\":\"add_edge\",\"graph\":\"" +
            g + "\",\"from\":" + std::to_string(i % 4) +
            ",\"symbol\":\"a\",\"to\":" + std::to_string((i + 1) % 4) + "}");
        // Admitted or rejected, the response is structured either way;
        // what this test pins is the accounting, not the outcome.
        session->HandleLine(
            "{\"id\":\"q" + tag + "\",\"op\":\"query\",\"graph\":\"" + g +
            "\",\"query\":\"q(x) := x -[/a*/]-> y\",\"trace_id\":\"s" +
            std::to_string(t) + "-" + tag + "\"}");
      }
      remaining.fetch_sub(1);
    });
  }

  auto check_snapshot = [&service](bool require_drained) {
    const std::string exposition = service.RenderTelemetry();
    uint64_t submitted = 0, admitted = 0, rejected = 0, released = 0,
             active = 0;
    ASSERT_TRUE(FindMetric(exposition, "ecrpq_admission_submitted",
                           &submitted));
    ASSERT_TRUE(FindMetric(exposition, "ecrpq_admission_admitted",
                           &admitted));
    ASSERT_TRUE(FindMetric(exposition, "ecrpq_admission_rejected",
                           &rejected));
    ASSERT_TRUE(FindMetric(exposition, "ecrpq_admission_released",
                           &released));
    ASSERT_TRUE(FindMetric(exposition, "ecrpq_admission_active", &active));
    EXPECT_EQ(submitted, admitted + rejected);
    EXPECT_EQ(released + active, admitted);
    if (require_drained) {
      EXPECT_EQ(released, admitted);
      EXPECT_EQ(active, 0u);
      EXPECT_EQ(submitted,
                uint64_t{kThreads} * uint64_t{kRequestsPerThread});
    }
  };

  while (remaining.load() > 0) {
    check_snapshot(/*require_drained=*/false);
    if (HasFatalFailure()) break;
  }
  for (std::thread& w : workers) w.join();
  // Drained: released catches admitted, the active gauge is zero, and
  // every query op submitted exactly once.
  check_snapshot(/*require_drained=*/true);
}

TEST(ServiceProtocolTest, OversizedLineRejectedWithoutParsing) {
  ServiceConfig config;
  config.max_line_bytes = 256;
  QueryService service(config);
  auto session = service.OpenSession();
  std::string big = "{\"id\":\"big\",\"op\":\"ping\",\"pad\":\"";
  big += std::string(500, 'x');
  big += "\"}";
  const std::string response = Handle(session.get(), big);
  EXPECT_TRUE(IsError(response, "capacity_exceeded")) << response;
  EXPECT_TRUE(IsOk(Handle(session.get(), "{\"id\":\"p\",\"op\":\"ping\"}")));
}

TEST(ServiceProtocolTest, DuplicateRequestIdsRejectedPerSession) {
  QueryService service{ServiceConfig{}};
  auto session = service.OpenSession();
  EXPECT_TRUE(IsOk(Handle(session.get(), "{\"id\":\"r\",\"op\":\"ping\"}")));
  const std::string dup = Handle(session.get(), "{\"id\":\"r\",\"op\":\"ping\"}");
  EXPECT_TRUE(IsError(dup, "invalid_argument")) << dup;
  // A malformed request does not consume its id: after a protocol error
  // under id "m", a valid request may still use "m".
  Handle(session.get(), "{\"id\":\"m\",\"op\":\"ping\",\"junk\":true}");
  EXPECT_TRUE(IsOk(Handle(session.get(), "{\"id\":\"m\",\"op\":\"ping\"}")));
  // Sessions are independent id scopes.
  auto other = service.OpenSession();
  EXPECT_TRUE(IsOk(Handle(other.get(), "{\"id\":\"r\",\"op\":\"ping\"}")));
}

TEST(ServiceProtocolTest, TruncationsOfValidRequestNeverCrash) {
  QueryService service{ServiceConfig{}};
  auto session = service.OpenSession();
  const std::string full =
      "{\"id\":\"t\",\"op\":\"query\",\"query\":\"q(x) := x -[/a*/]-> y\","
      "\"max_answers\":3,\"stats\":true}";
  for (size_t len = 0; len < full.size(); ++len) {
    // Every proper prefix is invalid JSON or an incomplete request; either
    // way the answer is a structured error, not a crash.
    const std::string response =
        Handle(session.get(), full.substr(0, len));
    std::string status;
    ASSERT_TRUE(json::Parse(response)->GetString("status", &status));
    EXPECT_EQ(status, "error") << full.substr(0, len);
  }
  EXPECT_TRUE(IsOk(Handle(session.get(), full)));
}

TEST(ServiceProtocolTest, InterleavedMutationsKeepSessionCoherent) {
  QueryService service{ServiceConfig{}};
  auto session = service.OpenSession();
  int next_id = 0;
  auto id = [&next_id] { return std::to_string(next_id++); };
  EXPECT_TRUE(IsOk(Handle(
      session.get(), "{\"id\":\"" + id() +
                         "\",\"op\":\"add_vertex\",\"count\":2}")));
  // Garbage between mutations must not corrupt the graph.
  Handle(session.get(), "{\"op\":\"add_vertex\",\"count\":9}");  // No id.
  Handle(session.get(), "{\"id\":\"" + id() +
                            "\",\"op\":\"add_edge\",\"from\":99,"
                            "\"symbol\":\"a\",\"to\":0}");  // Out of range.
  EXPECT_TRUE(IsOk(Handle(
      session.get(), "{\"id\":\"" + id() +
                         "\",\"op\":\"add_edge\",\"from\":0,"
                         "\"symbol\":\"a\",\"to\":1}")));
  const std::string response = Handle(
      session.get(), "{\"id\":\"" + id() +
                         "\",\"op\":\"query\",\"query\":"
                         "\"q(x) := x -[/a/]-> y\"}");
  Result<json::Value> doc = json::Parse(response);
  ASSERT_TRUE(doc.ok());
  // Exactly the two vertices and one edge of the VALID mutations: the
  // rejected ones (no id, endpoint 99) left no trace.
  uint64_t num_answers = ~uint64_t{0};
  ASSERT_TRUE(doc->GetUint64("num_answers", &num_answers)) << response;
  EXPECT_EQ(num_answers, 1u) << response;
}

class ServiceProtocolFuzz : public ::testing::TestWithParam<uint64_t> {};

std::string RandomBytes(Rng* rng, int max_len, std::string_view charset) {
  std::string out;
  const int len = static_cast<int>(rng->Below(max_len + 1));
  for (int i = 0; i < len; ++i) {
    out += charset[rng->Below(charset.size())];
  }
  return out;
}

TEST_P(ServiceProtocolFuzz, ByteSoupNeverCrashesTheSession) {
  Rng rng(GetParam());
  QueryService service{ServiceConfig{}};
  auto session = service.OpenSession();
  // JSON-flavoured soup: heavy on structure characters so a fair share of
  // lines get past the JSON parser into request validation.
  constexpr std::string_view kCharset =
      "{}[]\":,. \\abxyq0123456789idopngrhstuvePQ-/*";
  for (int i = 0; i < 300; ++i) {
    Handle(session.get(), RandomBytes(&rng, 120, kCharset));
  }
  EXPECT_TRUE(IsOk(Handle(session.get(), "{\"id\":\"end\",\"op\":\"ping\"}")));
}

TEST_P(ServiceProtocolFuzz, MutatedValidRequestsNeverCrashTheSession) {
  Rng rng(GetParam() + 1000);
  QueryService service{ServiceConfig{}};
  auto session = service.OpenSession();
  const std::vector<std::string> kTemplates = {
      "{\"id\":\"$\",\"op\":\"ping\"}",
      "{\"id\":\"$\",\"op\":\"stats\"}",
      "{\"id\":\"$\",\"op\":\"add_vertex\",\"count\":3}",
      "{\"id\":\"$\",\"op\":\"add_edge\",\"from\":1,\"symbol\":\"a\","
      "\"to\":2}",
      "{\"id\":\"$\",\"op\":\"query\",\"query\":\"q(x) := x -[/ab*/]-> y\","
      "\"max_answers\":4}",
      "{\"id\":\"$\",\"op\":\"create_graph\",\"graph\":\"g$\","
      "\"alphabet\":\"ab\"}",
  };
  for (int i = 0; i < 300; ++i) {
    std::string line = kTemplates[rng.Below(kTemplates.size())];
    // Unique ids so the valid survivors are not all duplicate-id errors.
    const std::string tag = std::to_string(i);
    for (size_t pos = line.find('$'); pos != std::string::npos;
         pos = line.find('$')) {
      line.replace(pos, 1, tag);
    }
    // Corrupt 0-3 random bytes.
    const int flips = static_cast<int>(rng.Below(4));
    for (int f = 0; f < flips; ++f) {
      line[rng.Below(line.size())] =
          static_cast<char>(32 + rng.Below(95));
    }
    Handle(session.get(), line);
  }
  EXPECT_TRUE(IsOk(Handle(session.get(), "{\"id\":\"end\",\"op\":\"ping\"}")));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceProtocolFuzz,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace ecrpq
