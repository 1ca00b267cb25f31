#include "json_lite.h"

#include <charconv>
#include <cstdint>

namespace e2ebench::json {

const Value* Value::get(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool document(Value& out) {
    if (!value(out, 0)) return false;
    skip_space();
    return pos_ == s_.size();
  }

 private:
  void skip_space() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(Value& out, int depth) {
    if (depth > kMaxDepth) return false;
    skip_space();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(out, depth);
      case '[': return array(out, depth);
      case '"':
        out.kind = Value::Kind::kString;
        return string(out.text);
      case 't':
        out.kind = Value::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = Value::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = Value::Kind::kNull;
        return literal("null");
      default:
        return number(out);
    }
  }

  bool object(Value& out, int depth) {
    out.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    skip_space();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_space();
      if (pos_ >= s_.size() || s_[pos_] != '"') return false;
      std::string key;
      if (!string(key)) return false;
      skip_space();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      out.members.emplace_back(std::move(key), Value{});
      if (!value(out.members.back().second, depth + 1)) return false;
      skip_space();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] != '}') return false;
      ++pos_;
      return true;
    }
  }

  bool array(Value& out, int depth) {
    out.kind = Value::Kind::kArray;
    ++pos_;  // '['
    skip_space();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      out.items.emplace_back();
      if (!value(out.items.back(), depth + 1)) return false;
      skip_space();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] != ']') return false;
      ++pos_;
      return true;
    }
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
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
          if (pos_ + 4 > s_.size()) return false;
          std::uint32_t cp = 0;
          const auto* first = s_.data() + pos_;
          const auto [end, ec] = std::from_chars(first, first + 4, cp, 16);
          if (ec != std::errc{} || end != first + 4) return false;
          pos_ += 4;
          append_utf8(out, cp);
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool number(Value& out) {
    out.kind = Value::Kind::kNumber;
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9') return false;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    const auto* first = s_.data() + start;
    const auto* last = s_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, out.number);
    return ec == std::errc{} && end == last;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text) {
  Value root;
  Parser parser(text);
  if (!parser.document(root)) return std::nullopt;
  return root;
}

}  // namespace e2ebench::json
