#include "io/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dmfb::json {
namespace {

/// Recursive-descent parser over a string_view; `pos_` is the next unread
/// byte and doubles as the offset reported in errors.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      throw JsonError(pos_, "trailing characters after JSON value");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonError(pos_, message);
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (at_end() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value parse_value() {
    skip_whitespace();
    if (at_end()) fail("unexpected end of input");
    switch (peek()) {
      case '{':
      case '[': {
        // One recursion level per open array/object, bounded so a deep
        // line cannot overflow the stack.
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        ++depth_;
        Value value = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return value;
      }
      case '"':
        return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value();
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value::Object members;
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    while (true) {
      skip_whitespace();
      if (at_end() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      if (at_end()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(members));
    }
  }

  Value parse_array() {
    expect('[');
    Value::Array items;
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_whitespace();
      if (at_end()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(items));
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (at_end()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) fail("truncated escape sequence");
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
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (!consume_literal("\\u")) fail("lone high surrogate");
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          --pos_;
          fail("invalid escape sequence");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || peek() < '0' || peek() > '9') fail("invalid number");
    while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    const bool integer_literal =
        text_[start] != '-' &&
        (at_end() || (peek() != '.' && peek() != 'e' && peek() != 'E'));
    if (integer_literal) {
      std::uint64_t exact = 0;
      const char* first = text_.data() + start;
      const char* last = text_.data() + pos_;
      if (std::from_chars(first, last, exact).ec == std::errc()) {
        return Value(exact);
      }
      // Out of uint64 range: fall through to the double reading.
    }
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') fail("invalid number");
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') fail("invalid number");
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    // The slice above is a valid strtod prefix by construction.
    const std::string slice(text_.substr(start, pos_ - start));
    return Value(std::strtod(slice.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects currently open
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    const unsigned char byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", byte);
          out += buffer;
        } else {
          out.push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out.push_back('"');
}

void dump_integer(std::uint64_t value, std::string& out) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

void dump_number(double value, std::string& out) {
  if (!std::isfinite(value)) {
    out += "null";  // JSON has no Inf/NaN; null is the conventional stand-in
    return;
  }
  // Integers (the common protocol case: ids, counts) print without a
  // fraction; everything else uses round-trip precision.
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    out += buffer;
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  // Shorten when a lower precision already round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[32];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    if (std::strtod(shorter, nullptr) == value) {
      out += shorter;
      return;
    }
  }
  out += buffer;
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) throw JsonError(0, "expected bool");
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::kNumber) throw JsonError(0, "expected number");
  return number_;
}

std::uint64_t Value::as_u64() const {
  if (exact_integer_) return integer_;
  // 2^64 is exactly representable, so `< 2^64` admits every whole double
  // the cast below can hold.
  if (kind_ != Kind::kNumber || !(number_ >= 0.0 && number_ < 0x1p64) ||
      number_ != std::trunc(number_)) {
    throw JsonError(0, "expected an unsigned 64-bit integer, got " + dump());
  }
  return static_cast<std::uint64_t>(number_);
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) throw JsonError(0, "expected string");
  return string_;
}

const Value::Array& Value::as_array() const {
  if (kind_ != Kind::kArray) throw JsonError(0, "expected array");
  return array_;
}

const Value::Object& Value::as_object() const {
  if (kind_ != Kind::kObject) throw JsonError(0, "expected object");
  return object_;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

void Value::set(std::string key, Value value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) throw JsonError(0, "set() on non-object");
  object_.emplace_back(std::move(key), std::move(value));
}

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::string Value::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void Value::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      if (exact_integer_) {
        dump_integer(integer_, out);
      } else {
        dump_number(number_, out);
      }
      break;
    case Kind::kString:
      dump_string(string_, out);
      break;
    case Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Value& item : array_) {
        if (!first) out.push_back(',');
        first = false;
        item.dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out.push_back(',');
        first = false;
        dump_string(key, out);
        out.push_back(':');
        value.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace dmfb::json
