// Minimal JSON document model + parser/serializer for MAPS configuration
// files, experiment manifests and the serve wire format.
//
// Scope: full JSON syntax (objects, arrays, strings with escapes incl.
// \uXXXX basic-plane code points, numbers, bools, null). Parse errors throw
// MapsError with line/column.
//
// Numbers are doubles, written by one formatter (dump() and JsonWriter) and
// read by one parser. A finite integral value below 1e15 in magnitude keeps
// its integer spelling (42, 100000); every other finite value is the
// shortest text that parses back to the same bits, so doubles round-trip
// bit-exactly, -0 included. NaN and +-inf have no JSON spelling and are
// written as null. On input, a number beyond the double range (1e400) is a
// parse error; one below the smallest subnormal (1e-400) reads as a zero of
// its sign.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "math/types.hpp"

namespace maps::io {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// std::map keeps keys sorted — serialization is deterministic, which keeps
/// experiment manifests diffable.
using JsonObject = std::map<std::string, JsonValue>;

enum class JsonType { Null, Bool, Number, String, Array, Object };

class JsonValue {
 public:
  JsonValue() = default;
  JsonValue(std::nullptr_t) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(double n) : v_(n) {}
  JsonValue(int n) : v_(static_cast<double>(n)) {}
  JsonValue(index_t n) : v_(static_cast<double>(n)) {}
  JsonValue(const char* s) : v_(std::string(s)) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(JsonArray a) : v_(std::move(a)) {}
  JsonValue(JsonObject o) : v_(std::move(o)) {}

  JsonType type() const { return static_cast<JsonType>(v_.index()); }
  bool is_null() const { return type() == JsonType::Null; }
  bool is_bool() const { return type() == JsonType::Bool; }
  bool is_number() const { return type() == JsonType::Number; }
  bool is_string() const { return type() == JsonType::String; }
  bool is_array() const { return type() == JsonType::Array; }
  bool is_object() const { return type() == JsonType::Object; }

  /// Typed accessors; throw MapsError on type mismatch.
  bool as_bool() const;
  double as_number() const;
  /// as_number, checked to be integral and in range.
  long long as_int() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& as_array();
  JsonObject& as_object();

  /// Object field access; `at` throws on missing key, `find` returns
  /// nullptr. `has` tests presence.
  const JsonValue& at(const std::string& key) const;
  const JsonValue* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }
  /// Mutable object insertion (creates an object from a Null value).
  JsonValue& operator[](const std::string& key);

  /// Array element access (bounds-checked).
  const JsonValue& at(std::size_t i) const;
  std::size_t size() const;

  /// Serialize; indent > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// Same type and equal payload; numbers compare as doubles (NaN != NaN,
  /// -0 == 0).
  bool operator==(const JsonValue& o) const { return v_ == o.v_; }

 private:
  friend class JsonWriter;
  void dump_to(std::string& out, int indent, int depth) const;

  // One alternative per JsonType, in JsonType order: type() is the index.
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> v_;
};

/// Streaming serializer: appends compact JSON — byte-identical to what
/// JsonValue::dump(0) would produce for the same document — directly onto a
/// caller-owned string. Hot reply paths (the serve wire layer emitting
/// nx*ny-element field arrays per prediction) use it to skip building a
/// JsonValue tree per reply; string escaping and number formatting are the
/// same single implementations dump() uses, so wire escaping lives in one
/// place. The writer tracks nesting only to place commas — callers are
/// trusted to emit a well-formed sequence (keys only inside objects, every
/// key followed by exactly one value).
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(&out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Object member key (escaped), followed by ':'.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(double n);
  JsonWriter& value(int n) { return value(static_cast<double>(n)); }
  JsonWriter& value(index_t n) { return value(static_cast<double>(n)); }
  JsonWriter& value(bool b);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  /// Exact-match overload: without it a std::string argument is ambiguous
  /// between string_view and the implicit JsonValue constructor.
  JsonWriter& value(const std::string& s) { return value(std::string_view(s)); }
  JsonWriter& null();
  /// Splice an already-built document subtree (e.g. an echoed request id).
  JsonWriter& value(const JsonValue& v);

 private:
  void comma();

  std::string* out_;
  std::vector<bool> first_;  // per nesting level: no element emitted yet
  bool pending_key_ = false;
};

/// Deepest array/object nesting json_parse accepts.
inline constexpr int kMaxJsonDepth = 64;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage and nesting past kMaxJsonDepth rejected). Throws MapsError with
/// line:column context.
JsonValue json_parse(const std::string& text);

/// File convenience wrappers.
JsonValue json_load(const std::string& path);
void json_save(const JsonValue& v, const std::string& path, int indent = 2);

}  // namespace maps::io
