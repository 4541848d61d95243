// Dependency-free JSON document model: an ordered value tree, a writer
// emitting deterministic round-trippable text, and a small strict parser.
//
// This backs the machine-readable BENCH_<scenario>.json files the
// experiment runner emits and the bench_compare regression gate consumes.
// Scope is deliberately small: UTF-8 pass-through (no surrogate handling
// beyond \uXXXX escapes for control characters), doubles via shortest
// round-trip formatting, objects keep insertion order so emitted files
// diff cleanly.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace coyote::util::json {

class Value;
using Array = std::vector<Value>;
using Member = std::pair<std::string, Value>;
using Object = std::vector<Member>;  // insertion-ordered

/// Thrown by the parser on malformed input and by typed accessors on
/// type mismatches.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}  // NOLINT(google-explicit-constructor)
  Value(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Value(double d) : type_(Type::kNumber), num_(d) {}  // NOLINT
  Value(int i) : type_(Type::kNumber), num_(i) {}  // NOLINT
  Value(long i) : type_(Type::kNumber), num_(static_cast<double>(i)) {}  // NOLINT
  Value(unsigned i) : type_(Type::kNumber), num_(i) {}  // NOLINT
  Value(const char* s) : type_(Type::kString), str_(s) {}  // NOLINT
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Value(Array a) : type_(Type::kArray), arr_(std::move(a)) {}  // NOLINT
  Value(Object o) : type_(Type::kObject), obj_(std::move(o)) {}  // NOLINT

  static Value array() { return Value(Array{}); }
  static Value object() { return Value(Object{}); }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool isNull() const { return type_ == Type::kNull; }
  [[nodiscard]] bool isBool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool isNumber() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool isString() const { return type_ == Type::kString; }
  [[nodiscard]] bool isArray() const { return type_ == Type::kArray; }
  [[nodiscard]] bool isObject() const { return type_ == Type::kObject; }

  [[nodiscard]] bool asBool() const {
    requireType(Type::kBool, "bool");
    return bool_;
  }
  [[nodiscard]] double asNumber() const {
    requireType(Type::kNumber, "number");
    return num_;
  }
  [[nodiscard]] const std::string& asString() const {
    requireType(Type::kString, "string");
    return str_;
  }
  [[nodiscard]] const Array& asArray() const {
    requireType(Type::kArray, "array");
    return arr_;
  }
  [[nodiscard]] const Object& asObject() const {
    requireType(Type::kObject, "object");
    return obj_;
  }

  /// Object member access; inserts a null member when absent (like a map).
  Value& operator[](const std::string& key);

  /// Pointer to the member value, or nullptr when absent / not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;

  /// Member value or `fallback` when absent (object access only).
  [[nodiscard]] double numberOr(const std::string& key, double fallback) const;
  [[nodiscard]] std::string stringOr(const std::string& key,
                                     const std::string& fallback) const;

  /// Appends to an array value (the value must be an array).
  void push_back(Value v);

  /// Serializes the tree. indent > 0 pretty-prints with that many spaces
  /// per level; indent == 0 emits compact single-line JSON.
  [[nodiscard]] std::string dump(int indent = 2) const;

  friend bool operator==(const Value& a, const Value& b);

 private:
  void requireType(Type t, const char* what) const {
    if (type_ != t) throw Error(std::string("json: value is not a ") + what);
  }
  void writeTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Serializes a double exactly as the writer does (shortest round-trip
/// form; integral values without exponent or trailing ".0"). Non-finite
/// values return their tag ("inf", "-inf", "nan"); the writer emits the
/// tag as a JSON *string*, since JSON has no non-finite number tokens.
[[nodiscard]] std::string formatNumber(double d);

/// The tagged-string encoding of non-finite doubles ("inf", "-inf",
/// "nan"), or nullptr for finite values. The failure sweeps legitimately
/// produce +inf ratios (a loaded link with zero surviving capacity), so
/// the writer encodes them losslessly instead of emitting null or an
/// invalid bare token; a parsed document holds them as strings.
[[nodiscard]] const char* nonFiniteTag(double d);

/// Decodes a value written by the number writer: true for real numbers
/// and for the tagged non-finite strings (writing the decoded double to
/// *out), false for everything else. This is the read side of the
/// round-trip: number -> dump -> parse -> decodeNumber recovers the
/// value, infinities included.
[[nodiscard]] bool decodeNumber(const Value& v, double* out);

/// Escapes `s` as the contents of a JSON string literal (no quotes).
[[nodiscard]] std::string escapeString(const std::string& s);

/// Deepest nesting of arrays and objects parse() accepts. The parser
/// recurses once per level, so an unbounded depth lets one line of '['
/// overflow the stack; BENCH documents and serve requests nest fewer
/// than 10 levels.
inline constexpr int kMaxDepth = 256;

/// Strict parser for the subset this writer emits (standard JSON minus
/// \u surrogate pairs, which pass through as-is). Throws Error with a
/// byte offset on malformed input, including nesting deeper than
/// kMaxDepth. Trailing garbage is an error.
[[nodiscard]] Value parse(const std::string& text);

}  // namespace coyote::util::json
