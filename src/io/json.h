// json.h — a minimal JSON value, parser and writer for the synthesis
// service's line protocol (service/server.h).
//
// Scope is deliberately small: one self-contained value type, a strict
// recursive-descent parser (throws JsonError with a byte offset), and a
// compact writer whose output round-trips. Numbers are doubles, except
// that a non-negative integer literal below 2^64 also keeps its exact
// value, so 64-bit seeds cross the wire digit for digit (as_u64, and the
// std::uint64_t constructor on the way out). Object member order is
// preserved, and strings handle the standard escapes plus \uXXXX
// (encoded to UTF-8, surrogate pairs included). No streaming, no
// comments, no trailing commas — requests are one JSON object per line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dmfb::json {

/// Thrown on malformed JSON, with the 0-based byte offset in what().
class JsonError : public std::runtime_error {
 public:
  JsonError(std::size_t offset, const std::string& message)
      : std::runtime_error("json offset " + std::to_string(offset) + ": " +
                           message),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// Deepest array/object nesting Value::parse accepts. The parser recurses
/// once per level, so an unbounded line of '[' would overflow the stack of
/// whatever process reads it; no message of the repo's protocols comes
/// near this depth.
inline constexpr int kMaxDepth = 256;

/// One JSON value. Intentionally a plain tagged struct, not a template
/// playground: the protocol needs parse, dump, and typed reads.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Value>;
  /// Members in document order (duplicate keys keep the first on reads).
  using Object = std::vector<std::pair<std::string, Value>>;

  Value() = default;  // null
  Value(bool value) : kind_(Kind::kBool), bool_(value) {}
  Value(double value) : kind_(Kind::kNumber), number_(value) {}
  Value(int value) : Value(static_cast<double>(value)) {}
  Value(long long value) : Value(static_cast<double>(value)) {}
  /// An exact unsigned integer: dumps digit for digit, reads back through
  /// as_u64 unrounded.
  Value(std::uint64_t value)
      : kind_(Kind::kNumber),
        number_(static_cast<double>(value)),
        integer_(value),
        exact_integer_(true) {}
  Value(const char* value) : kind_(Kind::kString), string_(value) {}
  Value(std::string value) : kind_(Kind::kString), string_(std::move(value)) {}
  Value(Array value) : kind_(Kind::kArray), array_(std::move(value)) {}
  Value(Object value) : kind_(Kind::kObject), object_(std::move(value)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw JsonError(0) on a kind mismatch so protocol
  /// handlers get one error type for "malformed request".
  bool as_bool() const;
  double as_number() const;
  /// Checked unsigned read: an exact integer's value, or a whole number
  /// in [0, 2^64) held as a double. Throws JsonError for anything else
  /// (negative, fractional, too large, not a number).
  std::uint64_t as_u64() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// First member named `key`, or nullptr (also for non-objects).
  const Value* find(std::string_view key) const;

  /// Object append (makes this value an object if it was null).
  void set(std::string key, Value value);

  /// Parses exactly one JSON value (surrounding whitespace allowed;
  /// trailing non-space input is an error). Throws JsonError, also for
  /// arrays/objects nested deeper than kMaxDepth.
  static Value parse(std::string_view text);

  /// Compact serialization (no whitespace); parse(dump()) round-trips.
  std::string dump() const;
  void dump_to(std::string& out) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::uint64_t integer_ = 0;   ///< the exact value iff exact_integer_
  bool exact_integer_ = false;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace dmfb::json
