#include "io/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

namespace maps::io {

namespace {

[[noreturn]] void type_error(const char* want, JsonType got) {
  static const char* names[] = {"null", "bool", "number", "string", "array",
                                "object"};
  throw MapsError(std::string("json: expected ") + want + ", have " +
                  names[static_cast<int>(got)]);
}

/// The alternative T of a JsonValue's variant, or a type error naming `want`.
template <class T, class Variant>
auto& get_as(Variant& v, const char* want) {
  if (auto* p = std::get_if<T>(&v)) return *p;
  type_error(want, static_cast<JsonType>(v.index()));
}

}  // namespace

bool JsonValue::as_bool() const { return get_as<bool>(v_, "bool"); }
double JsonValue::as_number() const { return get_as<double>(v_, "number"); }

long long JsonValue::as_int() const {
  const double n = as_number();
  const double r = std::nearbyint(n);
  if (std::abs(n - r) > 1e-9 || std::abs(n) > 9.007199254740992e15) {
    throw MapsError("json: number is not an exact integer: " + std::to_string(n));
  }
  return static_cast<long long>(r);
}

const std::string& JsonValue::as_string() const {
  return get_as<std::string>(v_, "string");
}
const JsonArray& JsonValue::as_array() const { return get_as<JsonArray>(v_, "array"); }
const JsonObject& JsonValue::as_object() const {
  return get_as<JsonObject>(v_, "object");
}
JsonArray& JsonValue::as_array() { return get_as<JsonArray>(v_, "array"); }
JsonObject& JsonValue::as_object() { return get_as<JsonObject>(v_, "object"); }

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (!v) throw MapsError("json: missing key '" + key + "'");
  return *v;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  const auto* obj = std::get_if<JsonObject>(&v_);
  if (obj == nullptr) return nullptr;
  const auto it = obj->find(key);
  return it == obj->end() ? nullptr : &it->second;
}

JsonValue& JsonValue::operator[](const std::string& key) {
  if (is_null()) v_ = JsonObject{};
  return as_object()[key];
}

const JsonValue& JsonValue::at(std::size_t i) const {
  const auto& a = as_array();
  if (i >= a.size()) {
    throw MapsError("json: array index " + std::to_string(i) + " out of range " +
                    std::to_string(a.size()));
  }
  return a[i];
}

std::size_t JsonValue::size() const {
  if (const auto* a = std::get_if<JsonArray>(&v_)) return a->size();
  if (const auto* o = std::get_if<JsonObject>(&v_)) return o->size();
  type_error("array or object", type());
}

// ------------------------------------------------------------- serialization

namespace {

void dump_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double n) {
  if (!std::isfinite(n)) {
    out += "null";
    return;
  }
  // Integral values keep their integer spelling (100000, not the shorter
  // 1e+05); -0 takes the shortest-round-trip path, which keeps its sign.
  char buf[32];
  const bool integral = n == std::nearbyint(n) && std::abs(n) < 1e15 &&
                        !(n == 0.0 && std::signbit(n));
  const auto r = integral ? std::to_chars(buf, std::end(buf), static_cast<long long>(n))
                          : std::to_chars(buf, std::end(buf), n);
  out.append(buf, r.ptr);
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  switch (type()) {
    case JsonType::Null: out += "null"; break;
    case JsonType::Bool: out += std::get<bool>(v_) ? "true" : "false"; break;
    case JsonType::Number: dump_number(out, std::get<double>(v_)); break;
    case JsonType::String: dump_string(out, std::get<std::string>(v_)); break;
    case JsonType::Array: {
      const auto& arr = std::get<JsonArray>(v_);
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      bool first = true;
      for (const auto& v : arr) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case JsonType::Object: {
      const auto& obj = std::get<JsonObject>(v_);
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        dump_string(out, k);
        out += indent > 0 ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// -------------------------------------------------------- streaming writer

void JsonWriter::comma() {
  // A value directly after its key is never comma-separated; siblings within
  // one object/array are.
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (first_.back()) {
      first_.back() = false;
    } else {
      *out_ += ',';
    }
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  *out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  first_.pop_back();
  *out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  *out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  first_.pop_back();
  *out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  dump_string(*out_, k);
  *out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double n) {
  comma();
  dump_number(*out_, n);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  *out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  dump_string(*out_, s);
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  *out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::value(const JsonValue& v) {
  comma();
  v.dump_to(*out_, /*indent=*/0, /*depth=*/0);
  return *this;
}

// ------------------------------------------------------------------- parsing

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  /// Containers nest by recursion, so an unbounded `[[[...` body would
  /// overflow the stack; past kMaxJsonDepth the document is rejected.
  struct DepthGuard {
    explicit DepthGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > kMaxJsonDepth) {
        parser.fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                    " levels");
      }
    }
    ~DepthGuard() { --parser.depth_; }
    Parser& parser;
  };

  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1, col = 1;
    for (std::size_t k = 0; k < pos_ && k < text_.size(); ++k) {
      if (text_[k] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw MapsError("json parse error at " + std::to_string(line) + ":" +
                    std::to_string(col) + ": " + msg);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char take() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  }
  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        parse_literal("true");
        return JsonValue(true);
      case 'f':
        parse_literal("false");
        return JsonValue(false);
      case 'n':
        parse_literal("null");
        return JsonValue(nullptr);
      default: return parse_number();
    }
  }

  void parse_literal(const char* lit) {
    for (const char* p = lit; *p; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("invalid literal");
      ++pos_;
    }
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!is_digit(peek())) fail("invalid number");
    if (peek() == '0' && pos_ + 1 < text_.size() && is_digit(text_[pos_ + 1])) {
      fail("leading zeros are not valid JSON");
    }
    while (is_digit(peek())) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (!is_digit(peek())) fail("digit after '.'");
      while (is_digit(peek())) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!is_digit(peek())) fail("exponent digit");
      while (is_digit(peek())) ++pos_;
    }
    const std::string_view num(text_.data() + start, pos_ - start);
    double n = 0.0;
    if (std::from_chars(num.data(), num.data() + num.size(), n).ec != std::errc()) {
      // Out of range: an overflow has no finite value to keep, an underflow
      // reads as a signed zero.
      if (!below_one(num)) fail("number out of range");
      n = num[0] == '-' ? -0.0 : 0.0;
    }
    return JsonValue(n);
  }

  /// Whether a scanned number is below 1 in magnitude. An out-of-range
  /// number is above ~1.8e308 or below ~2.5e-324, so this tells its overflow
  /// from its underflow.
  static bool below_one(std::string_view s) {
    if (s[0] == '-') s.remove_prefix(1);
    const std::size_t e = std::min(s.find_first_of("eE"), s.size());
    const std::size_t dot = std::min(s.find('.'), e);
    const std::size_t lead = s.find_first_not_of("0.");  // first significant digit
    long long exp = 0;
    if (e < s.size() && std::from_chars(s.data() + e + 1 + (s[e + 1] == '+'),
                                        s.data() + s.size(), exp).ec != std::errc()) {
      exp = s[e + 1] == '-' ? -(1LL << 62) : 1LL << 62;  // beyond a long long
    }
    // Decimal order of the leading significant digit, plus the exponent.
    const long long order = static_cast<long long>(dot) - static_cast<long long>(lead);
    return order - (lead < dot) + exp < 0;
  }

  std::string parse_string() {
    expect('"');
    std::string s;
    for (;;) {
      const char c = take();
      if (c == '"') return s;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control char in string");
      if (c != '\\') {
        s += c;
        continue;
      }
      const char e = take();
      switch (e) {
        case '"': s += '"'; break;
        case '\\': s += '\\'; break;
        case '/': s += '/'; break;
        case 'n': s += '\n'; break;
        case 't': s += '\t'; break;
        case 'r': s += '\r'; break;
        case 'b': s += '\b'; break;
        case 'f': s += '\f'; break;
        case 'u': {
          unsigned cp = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = take();
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // Encode the BMP code point as UTF-8 (surrogate pairs out of scope
          // for config files; rejected explicitly).
          if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate pairs unsupported");
          if (cp < 0x80) {
            s += static_cast<char>(cp);
          } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  JsonValue parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    JsonArray a;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(a));
    }
    for (;;) {
      skip_ws();
      a.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') return JsonValue(std::move(a));
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
    }
  }

  JsonValue parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    JsonObject o;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(o));
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      if (o.count(key)) fail("duplicate key '" + key + "'");
      o.emplace(std::move(key), parse_value());
      skip_ws();
      const char c = take();
      if (c == '}') return JsonValue(std::move(o));
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue json_parse(const std::string& text) { return Parser(text).parse_document(); }

JsonValue json_load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw MapsError("json_load: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return json_parse(ss.str());
}

void json_save(const JsonValue& v, const std::string& path, int indent) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw MapsError("json_save: cannot open " + path);
  out << v.dump(indent) << '\n';
  out.close();  // flushes the last buffer: check after it, not before
  if (!out) throw MapsError("json_save: write failed for " + path);
}

}  // namespace maps::io
