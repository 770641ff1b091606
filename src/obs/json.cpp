#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace swsim::obs {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  // Copies runs of plain bytes in one append; only ", \ and control
  // characters are rewritten.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        static const char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
      }
    }
  }
  out.append(s, run, s.size() - run);
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

}  // namespace

std::string format_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

void JsonWriter::separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

JsonWriter& JsonWriter::open(char bracket) {
  separate();
  out_ += bracket;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  value(name);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  out_ += '"';
  append_escaped(out_, s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  append_number(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      return null();
    case JsonValue::Kind::kBool:
      return value(v.boolean());
    case JsonValue::Kind::kNumber:
      return value(v.number());
    case JsonValue::Kind::kString:
      return value(v.str());
    case JsonValue::Kind::kArray:
      begin_array();
      for (const JsonValue& e : v.array()) value(e);
      return end_array();
    case JsonValue::Kind::kObject:
      begin_object();
      for (const auto& [k, e] : v.object()) key(k).value(e);
      return end_object();
  }
  return null();
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_ += json;
  return *this;
}

bool write_json_file(const std::string& path, const std::string& json,
                     std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  out << json << '\n';
  out.flush();
  if (!out) {
    if (error) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> a) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(a);
  return v;
}

JsonValue JsonValue::make_object(std::map<std::string, JsonValue> o) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(o);
  return v;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return JsonValue::make_string(string());
    if (consume_literal("true")) return JsonValue::make_bool(true);
    if (consume_literal("false")) return JsonValue::make_bool(false);
    if (consume_literal("null")) return JsonValue::make_null();
    return number();
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // Our own escaper only emits \u00XX for control characters;
          // encode anything beyond Latin-1 as UTF-8 for completeness.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    char* end = nullptr;
    const std::string tok = text_.substr(start, pos_ - start);
    const double d = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0' || !std::isfinite(d)) {
      pos_ = start;
      fail("malformed number '" + tok + "'");
    }
    return JsonValue::make_number(d);
  }

  JsonValue array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return JsonValue::make_array(std::move(items));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  JsonValue object() {
    expect('{');
    std::map<std::string, JsonValue> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      members[std::move(key)] = value();
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return JsonValue::make_object(std::move(members));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) { return Parser(text).parse(); }

}  // namespace swsim::obs
