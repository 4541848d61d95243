#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace coyote::util::json {

namespace {

void appendIndent(std::string& out, int indent, int depth) {
  if (indent > 0) {
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
  }
}

}  // namespace

Value& Value::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  requireType(Type::kObject, "object");
  for (Member& m : obj_) {
    if (m.first == key) return m.second;
  }
  obj_.emplace_back(key, Value());
  return obj_.back().second;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& m : obj_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

double Value::numberOr(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->isNumber() ? v->asNumber() : fallback;
}

std::string Value::stringOr(const std::string& key,
                            const std::string& fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->isString() ? v->asString() : fallback;
}

void Value::push_back(Value v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  requireType(Type::kArray, "array");
  arr_.push_back(std::move(v));
}

bool operator==(const Value& a, const Value& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Value::Type::kNull:
      return true;
    case Value::Type::kBool:
      return a.bool_ == b.bool_;
    case Value::Type::kNumber:
      return a.num_ == b.num_;
    case Value::Type::kString:
      return a.str_ == b.str_;
    case Value::Type::kArray:
      return a.arr_ == b.arr_;
    case Value::Type::kObject:
      return a.obj_ == b.obj_;
  }
  return false;
}

std::string formatNumber(double d) {
  if (const char* tag = nonFiniteTag(d)) return tag;
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  if (ec != std::errc()) return "0";
  return std::string(buf, ptr);
}

const char* nonFiniteTag(double d) {
  if (std::isfinite(d)) return nullptr;
  if (std::isnan(d)) return "nan";
  return d > 0.0 ? "inf" : "-inf";
}

bool decodeNumber(const Value& v, double* out) {
  if (v.isNumber()) {
    *out = v.asNumber();
    return true;
  }
  if (v.isString()) {
    const std::string& s = v.asString();
    if (s == "inf") {
      *out = std::numeric_limits<double>::infinity();
      return true;
    }
    if (s == "-inf") {
      *out = -std::numeric_limits<double>::infinity();
      return true;
    }
    if (s == "nan") {
      *out = std::numeric_limits<double>::quiet_NaN();
      return true;
    }
  }
  return false;
}

std::string escapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
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
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void Value::writeTo(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      // Non-finite numbers become tagged strings: JSON has no Inf/NaN
      // tokens, and dropping them to null would lose the one thing a
      // +inf failure ratio means (decodeNumber() reads them back).
      if (const char* tag = nonFiniteTag(num_)) {
        out.push_back('"');
        out += tag;
        out.push_back('"');
        return;
      }
      out += formatNumber(num_);
      return;
    case Type::kString:
      out.push_back('"');
      out += escapeString(str_);
      out.push_back('"');
      return;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out.push_back(',');
        appendIndent(out, indent, depth + 1);
        arr_[i].writeTo(out, indent, depth + 1);
      }
      appendIndent(out, indent, depth);
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out.push_back(',');
        appendIndent(out, indent, depth + 1);
        out.push_back('"');
        out += escapeString(obj_[i].first);
        out += indent > 0 ? "\": " : "\":";
        obj_[i].second.writeTo(out, indent, depth + 1);
      }
      appendIndent(out, indent, depth);
      out.push_back('}');
      return;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  writeTo(out, indent, 0);
  if (indent > 0) out.push_back('\n');
  return out;
}

// ------------------------------------------------------------- parser ---

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parseDocument() {
    Value v = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json parse error at byte " + std::to_string(pos_) + ": " +
                what);
  }

  void skipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
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

  bool consumeLiteral(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parseValue() {
    skipWhitespace();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // A throw abandons the whole parse, so depth_ needs no unwinding.
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth));
        }
        Value v = c == '{' ? parseObject() : parseArray();
        --depth_;
        return v;
      }
      case '"':
        return Value(parseString());
      case 't':
        if (!consumeLiteral("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consumeLiteral("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (consumeLiteral("null")) return Value(nullptr);
        failIfNonFinite();
        fail("bad literal");
      case 'i':
      case 'I':
      case 'N':
        failIfNonFinite();
        fail("bad literal");
      default:
        return parseNumber();
    }
  }

  /// Bare Inf/NaN tokens are what tolerant writers emit for non-finite
  /// doubles; they are not JSON. Reject them by name so the error says
  /// what went wrong instead of a generic "expected a value" -- this
  /// writer encodes non-finite numbers as the tagged strings "inf",
  /// "-inf" and "nan" (see nonFiniteTag).
  void failIfNonFinite() {
    for (const char* lit : {"Infinity", "infinity", "inf", "NaN", "nan"}) {
      std::size_t n = 0;
      while (lit[n] != '\0') ++n;
      if (text_.compare(pos_, n, lit) == 0) {
        fail(std::string("non-finite number token '") + lit +
             "' is not valid JSON (this writer encodes non-finite doubles "
             "as tagged strings: \"inf\", \"-inf\", \"nan\")");
      }
    }
  }

  Value parseObject() {
    expect('{');
    Value out = Value::object();
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skipWhitespace();
      std::string key = parseString();
      skipWhitespace();
      expect(':');
      out[key] = parseValue();
      skipWhitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return out;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parseArray() {
    expect('[');
    Value out = Value::array();
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push_back(parseValue());
      skipWhitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return out;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // Encode the code point as UTF-8 (no surrogate-pair merging;
          // the writer only emits \u for control characters).
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
          fail("unknown escape character");
      }
    }
  }

  Value parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
      failIfNonFinite();  // "-Infinity" / "-inf" / "-nan"
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    double d = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, d);
    if (ec != std::errc() || ptr != last) {
      pos_ = start;
      fail("malformed number");
    }
    return Value(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open at pos_
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parseDocument(); }

}  // namespace coyote::util::json
