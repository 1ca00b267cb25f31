// A small JSON reader for checking the program's JSONL output. The
// library only writes JSON (common/json.h); the benchmark reads what was
// written back with a parser of its own, so a fault in the writer cannot
// hide behind a matching fault in the reader.
#ifndef E2EBENCH_JSON_LITE_H
#define E2EBENCH_JSON_LITE_H

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2ebench::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;

  [[nodiscard]] bool is(Kind k) const noexcept { return kind == k; }
  /// Member `key` of an object; nullptr when absent or not an object.
  [[nodiscard]] const Value* get(std::string_view key) const;
};

/// Parse one complete JSON document. nullopt on a syntax error, on
/// nesting deeper than 64 levels, or on bytes after the document.
[[nodiscard]] std::optional<Value> parse(std::string_view text);

}  // namespace e2ebench::json

#endif  // E2EBENCH_JSON_LITE_H
