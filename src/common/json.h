// The repo's one JSON layer. Parse() is the wire parser: it reads service
// request lines, BENCH_*.json, StatsReport::ToJson and trace exports, and
// follows the RFC 8259 grammar (numbers as -?int[.frac][e[+-]exp] without
// hex, leading zeros or bare dots; no raw control characters inside
// strings). Numbers are converted with std::from_chars, which does not
// depend on the locale. Not a general-purpose library: no \uXXXX surrogate
// pairs beyond the BMP, a fixed nesting limit.
//
// JsonEscape() is the one JSON string escaper: wire responses, event-log
// records, trace and postmortem exports and bench JSON all escape the
// strings they did not choose themselves (ids, messages, names) with it.
//
// Values are immutable after Parse(). Object member order is preserved
// (stored as a vector of pairs), which keeps round-trip tests byte-exact
// for the repo's deterministic writers.
#ifndef ECRPQ_COMMON_JSON_H_
#define ECRPQ_COMMON_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ecrpq {

// Escapes `s` for use inside a JSON string literal (the quotes are the
// caller's): '"' and '\\' are backslash-escaped, \n \r \t get their short
// forms and every other byte below 0x20 becomes \u00XX. Bytes >= 0x20 pass
// through unchanged.
std::string JsonEscape(std::string_view s);
// The same, appended to *out.
void JsonEscape(std::string_view s, std::string* out);

namespace json {

class Value;
using Array = std::vector<Value>;
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double d) : type_(Type::kNumber), number_(d) {}
  explicit Value(std::string s)
      : type_(Type::kString), string_(std::move(s)) {}
  explicit Value(Array a)
      : type_(Type::kArray), array_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : type_(Type::kObject),
        object_(std::make_shared<Object>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Accessors ECRPQ_CHECK on type mismatch — callers test the type first
  // (or use Find/Get below which fold the test in).
  bool AsBool() const;
  double AsNumber() const;
  // AsNumber checked + cast; values outside uint64 range are clamped to 0.
  uint64_t AsUint64() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  const Object& AsObject() const;

  // Object member lookup (first match); nullptr when absent or not an
  // object.
  const Value* Find(const std::string& key) const;
  // Typed lookups: false / untouched `out` when the member is absent or has
  // the wrong type.
  bool GetNumber(const std::string& key, double* out) const;
  bool GetUint64(const std::string& key, uint64_t* out) const;
  bool GetString(const std::string& key, std::string* out) const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  // shared_ptr keeps Value copyable and cheap to pass around; parsed
  // documents are read-only so sharing is safe.
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

// Parses one JSON document (trailing whitespace allowed, trailing garbage is
// an error). Errors carry a byte offset.
Result<Value> Parse(std::string_view text);

}  // namespace json
}  // namespace ecrpq

#endif  // ECRPQ_COMMON_JSON_H_
