#include "obs/manifest.h"

#include <cstdio>

#include "obs/json.h"
#include "obs/registry.h"

namespace storsubsim::obs {

namespace {

void append_number(std::string& out, double value) {
  char buf[40];
  // Shortest round-trip-safe decimal; manifests are diffed byte-for-byte in
  // run_checks, so the formatting must be deterministic.
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

void append_string_field(std::string& out, std::string_view key,
                         std::string_view value, bool trailing_comma) {
  out += "  \"";
  out += json_escape(key);
  out += "\": \"";
  out += json_escape(value);
  out += '"';
  if (trailing_comma) out += ',';
  out += '\n';
}

}  // namespace

std::string_view git_describe() noexcept {
#ifdef STORSUBSIM_GIT_DESCRIBE
  return STORSUBSIM_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

std::string manifest_json(const RunManifest& manifest) {
  std::string out = "{\n";
  out += "  \"storsubsim_manifest\": 1,\n";
  append_string_field(out, "tool", manifest.tool, true);
  append_string_field(out, "git_describe", git_describe(), true);
  out += "  \"seed\": " + std::to_string(manifest.seed) + ",\n";
  out += "  \"scale\": ";
  append_number(out, manifest.scale);
  out += ",\n  \"threads\": " + std::to_string(manifest.threads) + ",\n";

  out += "  \"info\": {";
  for (std::size_t i = 0; i < manifest.info.size(); ++i) {
    if (i != 0) out += ',';
    out += "\n    \"" + json_escape(manifest.info[i].first) + "\": \"" +
           json_escape(manifest.info[i].second) + '"';
  }
  out += manifest.info.empty() ? "},\n" : "\n  },\n";

  out += "  \"numbers\": {";
  for (std::size_t i = 0; i < manifest.numbers.size(); ++i) {
    if (i != 0) out += ',';
    out += "\n    \"" + json_escape(manifest.numbers[i].first) + "\": ";
    append_number(out, manifest.numbers[i].second);
  }
  out += manifest.numbers.empty() ? "}" : "\n  }";

  if (manifest.include_metrics) {
    out += ",\n  \"metrics\": ";
    out += registry().snapshot().to_json();
  }
  out += "\n}\n";
  return out;
}

}  // namespace storsubsim::obs
