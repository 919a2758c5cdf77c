#include "support/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace gks::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through unchanged
        }
    }
  }
  return out;
}

void Writer::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

Writer& Writer::begin_object() {
  comma();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

Writer& Writer::end_object() {
  GKS_REQUIRE(!first_.empty(), "end_object with no open scope");
  out_ += '}';
  first_.pop_back();
  return *this;
}

Writer& Writer::begin_array() {
  comma();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

Writer& Writer::end_array() {
  GKS_REQUIRE(!first_.empty(), "end_array with no open scope");
  out_ += ']';
  first_.pop_back();
  return *this;
}

Writer& Writer::key(std::string_view k) {
  comma();
  out_ += '"';
  out_ += escape(k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  comma();
  out_ += '"';
  out_ += escape(s);
  out_ += '"';
  return *this;
}

Writer& Writer::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  return *this;
}

Writer& Writer::value(std::int64_t n) {
  comma();
  out_ += std::to_string(n);
  return *this;
}

Writer& Writer::value(std::uint64_t n) {
  comma();
  out_ += std::to_string(n);
  return *this;
}

Writer& Writer::value(double d) {
  comma();
  GKS_REQUIRE(std::isfinite(d), "JSON numbers must be finite");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out_ += buf;
  return *this;
}

Writer& Writer::null() {
  comma();
  out_ += "null";
  return *this;
}

bool Value::as_bool() const {
  GKS_REQUIRE(type_ == Type::kBool, "JSON value is not a bool");
  return bool_;
}

double Value::as_number() const {
  GKS_REQUIRE(type_ == Type::kNumber, "JSON value is not a number");
  return number_;
}

const std::string& Value::as_string() const {
  GKS_REQUIRE(type_ == Type::kString, "JSON value is not a string");
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  GKS_REQUIRE(type_ == Type::kArray, "JSON value is not an array");
  return array_;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  GKS_REQUIRE(type_ == Type::kObject, "JSON value is not an object");
  return members_;
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  GKS_REQUIRE(v != nullptr, "missing JSON member: " + std::string(key));
  return *v;
}

std::string Value::string_or(std::string_view key,
                             std::string fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->is_string() ? v->string_ : std::move(fallback);
}

double Value::number_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->type_ == Type::kNumber ? v->number_ : fallback;
}

// Named (not anonymous-namespace) so the friend declaration in Value
// applies; only parse() below reaches it.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    GKS_REQUIRE(pos_ == text_.size(), "trailing characters after JSON value");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    GKS_REQUIRE(pos_ < text_.size(), "unexpected end of JSON input");
    return text_[pos_];
  }

  void expect(char c) {
    GKS_REQUIRE(pos_ < text_.size() && text_[pos_] == c,
                std::string("expected '") + c + "' in JSON");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Value v;
        v.type_ = Value::Type::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't': {
        GKS_REQUIRE(consume_literal("true"), "malformed JSON literal");
        Value v;
        v.type_ = Value::Type::kBool;
        v.bool_ = true;
        return v;
      }
      case 'f': {
        GKS_REQUIRE(consume_literal("false"), "malformed JSON literal");
        Value v;
        v.type_ = Value::Type::kBool;
        v.bool_ = false;
        return v;
      }
      case 'n': {
        GKS_REQUIRE(consume_literal("null"), "malformed JSON literal");
        return Value();
      }
      default: return parse_number();
    }
  }

  /// Counts one open array/object for its lifetime; past kMaxDepth the
  /// parse fails instead of recursing on — hostile input such as 100k
  /// nested '[' would otherwise exhaust the stack.
  class DepthGuard {
   public:
    explicit DepthGuard(std::size_t& depth) : depth_(depth) {
      GKS_REQUIRE(++depth_ <= kMaxDepth, "JSON nesting too deep");
    }
    ~DepthGuard() { --depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    std::size_t& depth_;
  };

  Value parse_object() {
    const DepthGuard guard(depth_);
    expect('{');
    Value v;
    v.type_ = Value::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    const DepthGuard guard(depth_);
    expect('[');
    Value v;
    v.type_ = Value::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      GKS_REQUIRE(pos_ < text_.size(), "unterminated JSON string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      GKS_REQUIRE(pos_ < text_.size(), "unterminated JSON escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          GKS_REQUIRE(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              GKS_REQUIRE(false, "bad hex digit in \\u escape");
            }
          }
          // The journal only ever escapes control characters; encode
          // the code point as UTF-8 (basic multilingual plane only).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: GKS_REQUIRE(false, "unknown JSON escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    GKS_REQUIRE(pos_ > start, "malformed JSON number");
    double d = 0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, d);
    GKS_REQUIRE(ec == std::errc() && ptr == text_.data() + pos_,
                "malformed JSON number");
    Value v;
    v.type_ = Value::Type::kNumber;
    v.number_ = d;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays/objects currently open
};

Value parse(std::string_view text) { return Parser(text).run(); }

}  // namespace gks::json
