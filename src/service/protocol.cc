#include "service/protocol.h"

#include <cmath>
#include <cstdio>
#include <set>

#include "common/json.h"
#include "eval/planner.h"

namespace ecrpq {
namespace {

// Per-op field whitelists (id/op are always allowed). Strictness contract:
// anything not listed for the request's op is an error.
// "trace_id" is in every whitelist: trace context may ride on any op.
const std::set<std::string>& AllowedFields(RequestOp op) {
  static const std::set<std::string> kQueryFields = {
      "id",          "op",        "graph",     "query",
      "engine",      "max_answers", "budget_states", "budget_mem",
      "budget_ms",   "no_cache",  "stats",     "trace_id"};
  static const std::set<std::string> kCreateFields = {
      "id", "op", "graph", "text", "alphabet", "trace_id"};
  static const std::set<std::string> kAddEdgeFields = {
      "id", "op", "graph", "from", "symbol", "to", "trace_id"};
  static const std::set<std::string> kAddVertexFields = {
      "id", "op", "graph", "count", "trace_id"};
  static const std::set<std::string> kStatsFields = {"id", "op", "format",
                                                     "trace_id"};
  static const std::set<std::string> kTraceFields = {"id", "op", "trace_id"};
  static const std::set<std::string> kBareFields = {"id", "op", "trace_id"};
  switch (op) {
    case RequestOp::kQuery:
      return kQueryFields;
    case RequestOp::kCreateGraph:
      return kCreateFields;
    case RequestOp::kAddEdge:
      return kAddEdgeFields;
    case RequestOp::kAddVertex:
      return kAddVertexFields;
    case RequestOp::kStats:
      return kStatsFields;
    case RequestOp::kTrace:
      return kTraceFields;
    case RequestOp::kPing:
    case RequestOp::kShutdown:
      return kBareFields;
  }
  return kBareFields;
}

// Strict unsigned extraction: present -> must be a non-negative integral
// number within `max`. Absent -> leaves *out alone and returns OK.
Status GetUintField(const json::Value& obj, const std::string& key,
                    uint64_t max, uint64_t* out) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_number()) {
    return Status::Invalid("field '" + key + "' must be a number");
  }
  const double d = v->AsNumber();
  if (d < 0 || d != std::floor(d) || d > static_cast<double>(max)) {
    return Status::Invalid("field '" + key +
                           "' must be a non-negative integer");
  }
  *out = static_cast<uint64_t>(d);
  return Status::OK();
}

Status GetStringField(const json::Value& obj, const std::string& key,
                      std::string* out) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_string()) {
    return Status::Invalid("field '" + key + "' must be a string");
  }
  *out = v->AsString();
  return Status::OK();
}

Status GetBoolField(const json::Value& obj, const std::string& key,
                    bool* out) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_bool()) {
    return Status::Invalid("field '" + key + "' must be a boolean");
  }
  *out = v->AsBool();
  return Status::OK();
}

}  // namespace

bool IsValidTraceId(std::string_view id) {
  if (id.empty() || id.size() > kMaxTraceIdBytes) return false;
  // Visible ASCII only: the id is echoed verbatim into JSON responses,
  // trace exports and log lines; banning control bytes and non-ASCII here
  // keeps every downstream serialization trivially safe.
  for (const char c : id) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x21 || u > 0x7e || c == '"' || c == '\\') return false;
  }
  return true;
}

Result<ServiceRequest> ParseRequestLine(std::string_view line) {
  ECRPQ_ASSIGN_OR_RAISE(json::Value doc, json::Parse(std::string(line)));
  if (!doc.is_object()) {
    return Status::Invalid("request must be a JSON object");
  }
  const json::Object& members = doc.AsObject();
  {
    std::set<std::string> seen;
    for (const auto& [key, value] : members) {
      if (!seen.insert(key).second) {
        return Status::Invalid("duplicate field '" + key + "'");
      }
    }
  }

  ServiceRequest req;
  ECRPQ_RETURN_NOT_OK(GetStringField(doc, "id", &req.id));
  if (req.id.empty()) {
    return Status::Invalid("field 'id' (non-empty string) is required");
  }

  std::string op_name;
  ECRPQ_RETURN_NOT_OK(GetStringField(doc, "op", &op_name));
  if (op_name == "query") {
    req.op = RequestOp::kQuery;
  } else if (op_name == "create_graph") {
    req.op = RequestOp::kCreateGraph;
  } else if (op_name == "add_edge") {
    req.op = RequestOp::kAddEdge;
  } else if (op_name == "add_vertex") {
    req.op = RequestOp::kAddVertex;
  } else if (op_name == "ping") {
    req.op = RequestOp::kPing;
  } else if (op_name == "stats") {
    req.op = RequestOp::kStats;
  } else if (op_name == "trace") {
    req.op = RequestOp::kTrace;
  } else if (op_name == "shutdown") {
    req.op = RequestOp::kShutdown;
  } else {
    return Status::Invalid(op_name.empty() ? "field 'op' is required"
                                           : "unknown op '" + op_name + "'");
  }

  const std::set<std::string>& allowed = AllowedFields(req.op);
  for (const auto& [key, value] : members) {
    if (allowed.find(key) == allowed.end()) {
      return Status::Invalid("unknown field '" + key + "' for op '" +
                             op_name + "'");
    }
  }

  ECRPQ_RETURN_NOT_OK(GetStringField(doc, "trace_id", &req.trace_id));
  if (doc.Find("trace_id") != nullptr) {
    if (req.trace_id.empty()) {
      return Status::Invalid("field 'trace_id' must be non-empty");
    }
    if (req.trace_id.size() > kMaxTraceIdBytes) {
      return Status::Invalid("oversized trace_id (max " +
                             std::to_string(kMaxTraceIdBytes) + " bytes)");
    }
    if (!IsValidTraceId(req.trace_id)) {
      return Status::Invalid(
          "field 'trace_id' must be visible ASCII without '\"' or '\\'");
    }
  }

  ECRPQ_RETURN_NOT_OK(GetStringField(doc, "graph", &req.graph));
  if (req.graph.empty()) {
    return Status::Invalid("field 'graph' must be non-empty");
  }

  switch (req.op) {
    case RequestOp::kQuery: {
      ECRPQ_RETURN_NOT_OK(GetStringField(doc, "query", &req.query));
      if (req.query.empty()) {
        return Status::Invalid("op 'query' requires a 'query' string");
      }
      ECRPQ_RETURN_NOT_OK(GetStringField(doc, "engine", &req.engine));
      ECRPQ_RETURN_NOT_OK(EngineRouteByName(req.engine).status());
      ECRPQ_RETURN_NOT_OK(
          GetUintField(doc, "max_answers", ~uint64_t{0} >> 1,
                       &req.max_answers));
      ECRPQ_RETURN_NOT_OK(GetUintField(doc, "budget_states", ~uint64_t{0} >> 1,
                                       &req.budget.max_product_states));
      ECRPQ_RETURN_NOT_OK(GetUintField(doc, "budget_mem", ~uint64_t{0} >> 1,
                                       &req.budget.max_memory_bytes));
      uint64_t ms = 0;
      ECRPQ_RETURN_NOT_OK(GetUintField(doc, "budget_ms", uint64_t{1} << 40,
                                       &ms));
      req.budget.timeout_millis = static_cast<int64_t>(ms);
      ECRPQ_RETURN_NOT_OK(GetBoolField(doc, "no_cache", &req.no_cache));
      ECRPQ_RETURN_NOT_OK(GetBoolField(doc, "stats", &req.want_stats));
      break;
    }
    case RequestOp::kCreateGraph: {
      ECRPQ_RETURN_NOT_OK(GetStringField(doc, "text", &req.graph_text));
      ECRPQ_RETURN_NOT_OK(GetStringField(doc, "alphabet", &req.alphabet));
      if (doc.Find("text") != nullptr && doc.Find("alphabet") != nullptr) {
        return Status::Invalid(
            "op 'create_graph' takes 'text' or 'alphabet', not both");
      }
      if (req.alphabet.empty()) {
        return Status::Invalid("field 'alphabet' must be non-empty");
      }
      break;
    }
    case RequestOp::kAddEdge: {
      uint64_t from = ~uint64_t{0};
      uint64_t to = ~uint64_t{0};
      ECRPQ_RETURN_NOT_OK(GetUintField(doc, "from", 0xffffffffu, &from));
      ECRPQ_RETURN_NOT_OK(GetUintField(doc, "to", 0xffffffffu, &to));
      ECRPQ_RETURN_NOT_OK(GetStringField(doc, "symbol", &req.symbol));
      if (from > 0xffffffffu || to > 0xffffffffu || req.symbol.empty()) {
        return Status::Invalid(
            "op 'add_edge' requires 'from', 'symbol' and 'to'");
      }
      req.from = static_cast<uint32_t>(from);
      req.to = static_cast<uint32_t>(to);
      break;
    }
    case RequestOp::kAddVertex: {
      req.count = 1;
      ECRPQ_RETURN_NOT_OK(GetUintField(doc, "count", 1u << 24, &req.count));
      if (req.count == 0) {
        return Status::Invalid("field 'count' must be positive");
      }
      break;
    }
    case RequestOp::kStats: {
      ECRPQ_RETURN_NOT_OK(GetStringField(doc, "format", &req.stats_format));
      if (!req.stats_format.empty() && req.stats_format != "counters" &&
          req.stats_format != "prometheus") {
        return Status::Invalid("unknown stats format '" + req.stats_format +
                               "'");
      }
      break;
    }
    case RequestOp::kTrace: {
      // The trace op LOOKS UP a retained trace, so here trace_id is the
      // operand, not just context.
      if (req.trace_id.empty()) {
        return Status::Invalid("op 'trace' requires a 'trace_id' string");
      }
      break;
    }
    case RequestOp::kPing:
    case RequestOp::kShutdown:
      break;
  }
  return req;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* WireCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kNotImplemented:
      return "not_implemented";
    case StatusCode::kParseError:
      return "parse_error";
    case StatusCode::kCapacityExceeded:
      return "capacity_exceeded";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
  }
  return "internal";
}

std::string ErrorResponseLine(const std::string* id, StatusCode code,
                              std::string_view message) {
  return ErrorResponseLine(id, code, message, /*trace_id=*/{});
}

std::string ErrorResponseLine(const std::string* id, StatusCode code,
                              std::string_view message,
                              std::string_view trace_id) {
  std::string out = "{\"id\":";
  if (id == nullptr) {
    out += "null";
  } else {
    out += "\"" + JsonEscape(*id) + "\"";
  }
  out += ",\"status\":\"error\",\"code\":\"";
  out += WireCodeName(code);
  out += "\",\"message\":\"" + JsonEscape(message) + "\"";
  if (!trace_id.empty()) {
    out += ",\"trace_id\":\"" + JsonEscape(trace_id) + "\"";
  }
  out += "}";
  return out;
}

ResponseBuilder::ResponseBuilder(const std::string& id) {
  out_ = "{\"id\":\"" + JsonEscape(id) + "\",\"status\":\"ok\"";
}

void ResponseBuilder::AddBool(std::string_view key, bool v) {
  out_ += ",\"";
  out_ += JsonEscape(key);
  out_ += v ? "\":true" : "\":false";
}

void ResponseBuilder::AddUint(std::string_view key, uint64_t v) {
  out_ += ",\"";
  out_ += JsonEscape(key);
  out_ += "\":" + std::to_string(v);
}

void ResponseBuilder::AddString(std::string_view key, std::string_view v) {
  out_ += ",\"";
  out_ += JsonEscape(key);
  out_ += "\":\"";
  out_ += JsonEscape(v);
  out_ += "\"";
}

void ResponseBuilder::AddRaw(std::string_view key, std::string_view json) {
  out_ += ",\"";
  out_ += JsonEscape(key);
  out_ += "\":";
  out_ += json;
}

std::string ResponseBuilder::Finish() {
  out_ += "}";
  return std::move(out_);
}

}  // namespace ecrpq
