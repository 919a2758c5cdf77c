#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.h"

namespace gks::json {

/// Minimal JSON support for the job service's journal lines and the
/// tools' machine-readable output. Deliberately tiny: UTF-8 pass-
/// through, no streaming reads, no comments — exactly the subset the
/// repo emits. Large integers (u128 identifiers) are carried as
/// decimal *strings*, never as JSON numbers, so nothing is lost to
/// double rounding.

/// Escapes a string for embedding between quotes in a JSON document.
std::string escape(std::string_view s);

/// Streaming writer with automatic comma/nesting management:
///
///   Writer w;
///   w.begin_object().key("state").value("done").key("n").value(3)
///    .end_object();
///   w.str();  // {"state":"done","n":3}
class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Object member key; must be followed by a value or begin_*.
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b);
  Writer& value(std::int64_t n);
  Writer& value(std::uint64_t n);
  Writer& value(int n) { return value(static_cast<std::int64_t>(n)); }
  Writer& value(double d);
  Writer& null();

  /// The document so far; valid JSON once every scope is closed.
  const std::string& str() const { return out_; }

 private:
  void comma();

  std::string out_;
  std::vector<bool> first_;  ///< per open scope: no member emitted yet
  bool after_key_ = false;
};

/// A parsed JSON value (object members keep insertion order).
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;
  const std::vector<std::pair<std::string, Value>>& members() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;
  /// Object member lookup; throws InvalidArgument when absent.
  const Value& at(std::string_view key) const;

  /// Convenience typed lookups with defaults for optional members.
  std::string string_or(std::string_view key, std::string fallback) const;
  double number_or(std::string_view key, double fallback) const;

 private:
  friend Value parse(std::string_view);
  friend class Parser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Deepest array/object nesting parse() accepts. The repo's documents
/// nest a few levels; the cap keeps a hostile peer's frame from
/// recursing the parser off the stack.
inline constexpr std::size_t kMaxDepth = 256;

/// Parses one JSON document; throws InvalidArgument on malformed input,
/// trailing garbage or nesting deeper than kMaxDepth.
Value parse(std::string_view text);

}  // namespace gks::json
