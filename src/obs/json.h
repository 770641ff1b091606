// JSON support shared by every machine-read output of the repo.
//
//   * JsonWriter / format_number() — the one streaming writer and the one
//     number spelling behind the serve wire, the JSON files and the JSONL
//     lines: compact layout, shortest round-trip doubles, exact integers,
//     null for NaN/Inf (JSON has neither). write_json_file() is the one
//     open/write/check path for JSON files.
//   * JsonValue / parse_json() — a small recursive-descent parser used by
//     the `swsim stats` pretty-printer, the `swsim trace-check` validator,
//     and the tests that round-trip our own dumps. It is a consumer for
//     the formats this repo writes, not a general-purpose library: numbers
//     are doubles, no \uXXXX surrogate-pair pedantry beyond what our own
//     escaper emits, inputs are trusted files produced by swsim itself.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace swsim::obs {

// The shortest spelling that parses back to exactly `v` (plain
// std::to_chars: "55", "0.05", "1e-05", "-0"), or "null" when `v` is NaN
// or infinite.
std::string format_number(double v);

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  double number() const { return number_; }
  bool boolean() const { return bool_; }
  const std::string& str() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::map<std::string, JsonValue>& object() const { return object_; }

  // Object member access; returns nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  static JsonValue make_null() { return JsonValue{}; }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> a);
  static JsonValue make_object(std::map<std::string, JsonValue> o);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Streaming writer for compact JSON: values inside an object or array are
// comma-separated automatically, each object value follows key(), and the
// caller keeps begin/end balanced. Strings are escaped (", \ and control
// characters < 0x20 as \n, \t, ... or \u00XX).
//   JsonWriter().begin_object().field("id", 7).end_object().str()
//       == R"({"id":7})"
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return raw(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  // A parsed document; objects come out in key order.
  JsonWriter& value(const JsonValue& v);
  JsonWriter& null() { return raw("null"); }
  // A pre-rendered JSON value, inserted verbatim.
  JsonWriter& raw(std::string_view json);

  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void separate();
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);

  std::string out_;
  bool need_comma_ = false;
};

// Writes `json` plus a trailing newline to `path`, replacing the file.
// Returns false with *error set when the file cannot be opened or written.
bool write_json_file(const std::string& path, const std::string& json,
                     std::string* error);

// Parses one JSON document. Throws std::runtime_error with a byte offset
// ("json parse error at byte N: ...") on malformed input — the positioned
// style the CSV/OVF readers use.
JsonValue parse_json(const std::string& text);

}  // namespace swsim::obs
