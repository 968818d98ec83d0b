#include "common/json.h"

#include <charconv>

#include "common/check.h"

namespace ecrpq {

void JsonEscape(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      *out += "\\n";
    } else if (c == '\r') {
      *out += "\\r";
    } else if (c == '\t') {
      *out += "\\t";
    } else if (u < 0x20) {
      *out += "\\u00";
      out->push_back(kHex[u >> 4]);
      out->push_back(kHex[u & 0xf]);
    } else {
      out->push_back(c);
    }
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  JsonEscape(s, &out);
  return out;
}

namespace json {

bool Value::AsBool() const {
  ECRPQ_CHECK(is_bool()) << "json::Value is not a bool";
  return bool_;
}

double Value::AsNumber() const {
  ECRPQ_CHECK(is_number()) << "json::Value is not a number";
  return number_;
}

uint64_t Value::AsUint64() const {
  const double d = AsNumber();
  if (!(d >= 0) || d >= 18446744073709551616.0) return 0;
  return static_cast<uint64_t>(d);
}

const std::string& Value::AsString() const {
  ECRPQ_CHECK(is_string()) << "json::Value is not a string";
  return string_;
}

const Array& Value::AsArray() const {
  ECRPQ_CHECK(is_array()) << "json::Value is not an array";
  return *array_;
}

const Object& Value::AsObject() const {
  ECRPQ_CHECK(is_object()) << "json::Value is not an object";
  return *object_;
}

const Value* Value::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : *object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Value::GetNumber(const std::string& key, double* out) const {
  const Value* v = Find(key);
  if (v == nullptr || !v->is_number()) return false;
  *out = v->AsNumber();
  return true;
}

bool Value::GetUint64(const std::string& key, uint64_t* out) const {
  const Value* v = Find(key);
  if (v == nullptr || !v->is_number()) return false;
  *out = v->AsUint64();
  return true;
}

bool Value::GetString(const std::string& key, std::string* out) const {
  const Value* v = Find(key);
  if (v == nullptr || !v->is_string()) return false;
  *out = v->AsString();
  return true;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Document() {
    SkipWs();
    ECRPQ_ASSIGN_OR_RAISE(Value v, ParseValue(0));
    SkipWs();
    if (pos_ != text_.size()) return Error("trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::ParseError("JSON: " + what + " at byte " +
                              std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    size_t p = pos_;
    for (const char* c = lit; *c != '\0'; ++c, ++p) {
      if (p >= text_.size() || text_[p] != *c) return false;
    }
    pos_ = p;
    return true;
  }

  Result<Value> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case 'n':
        if (Literal("null")) return Value();
        return Error("bad literal");
      case 't':
        if (Literal("true")) return Value(true);
        return Error("bad literal");
      case 'f':
        if (Literal("false")) return Value(false);
        return Error("bad literal");
      case '"':
        return ParseString();
      case '[':
        return ParseArray(depth);
      case '{':
        return ParseObject(depth);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
        return Error("unexpected character");
    }
  }

  // Consumes `c` when it is next.
  bool Skip(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  // Consumes one or more digits; false when there is none.
  bool Digits() {
    const size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > begin;
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Result<Value> ParseNumber() {
    const size_t begin = pos_;
    Skip('-');
    if (!Skip('0') && !Digits()) return Error("bad number");
    if (Skip('.') && !Digits()) return Error("bad number");
    if (Skip('e') || Skip('E')) {
      if (!Skip('+')) Skip('-');
      if (!Digits()) return Error("bad number");
    }
    double d = 0;
    const auto [end, ec] =
        std::from_chars(text_.data() + begin, text_.data() + pos_, d);
    if (ec != std::errc() || end != text_.data() + pos_) {
      return Error("number out of range");
    }
    return Value(d);
  }

  Result<Value> ParseString() {
    ++pos_;  // Opening quote.
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Value(std::move(out));
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return Error("control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad \\u escape");
          }
          // UTF-8 encode (BMP only; the repo's writers never emit
          // surrogate pairs).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Result<Value> ParseArray(int depth) {
    ++pos_;  // '['
    Array items;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    while (true) {
      SkipWs();
      ECRPQ_ASSIGN_OR_RAISE(Value v, ParseValue(depth + 1));
      items.push_back(std::move(v));
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return Value(std::move(items));
      if (c != ',') return Error("expected ',' or ']'");
    }
  }

  Result<Value> ParseObject(int depth) {
    ++pos_;  // '{'
    Object members;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected member name");
      }
      ECRPQ_ASSIGN_OR_RAISE(Value key, ParseString());
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_++] != ':') {
        return Error("expected ':'");
      }
      SkipWs();
      ECRPQ_ASSIGN_OR_RAISE(Value v, ParseValue(depth + 1));
      members.emplace_back(key.AsString(), std::move(v));
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return Value(std::move(members));
      if (c != ',') return Error("expected ',' or '}'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text) {
  return Parser(text).Document();
}

}  // namespace json
}  // namespace ecrpq
