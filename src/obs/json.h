// Minimal JSON support for the observability layer: an escaping helper for
// the writers (trace exporter, manifest, metric snapshots) and a small DOM
// parser used to validate what they emit (tests, run_checks manifest checks).
//
// The parser accepts strict RFC 8259 JSON — objects, arrays, strings with the
// standard escapes, numbers, true/false/null — with a nesting-depth cap so
// corrupt input cannot overflow the stack. It is a validation tool, not a
// performance path.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace storsubsim::obs {

/// Escapes `text` for inclusion inside a JSON string literal (quotes not
/// included): ", \, and control characters become their escape sequences.
std::string json_escape(std::string_view text);

struct JsonValue {
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const noexcept { return type == Type::kObject; }
  bool is_string() const noexcept { return type == Type::kString; }
  bool is_number() const noexcept { return type == Type::kNumber; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const noexcept;
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). On failure returns nullopt and, if `error` is given,
/// a message with the byte offset.
std::optional<JsonValue> parse_json(std::string_view text, std::string* error = nullptr);

}  // namespace storsubsim::obs
