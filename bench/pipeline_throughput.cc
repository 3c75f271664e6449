// Emit+parse throughput: zero-allocation hot path vs the legacy path.
//
// Measures the text-log round-trip (emit -> parse -> classify) two ways over
// the same simulated failure set, single-threaded:
//
//   * legacy — the pre-optimization implementation, kept verbatim in
//     `namespace legacy` below: `std::ostringstream` line rendering, chained
//     `std::string operator+` message building, and getline-based parsing
//     into owning records (one-plus heap allocation per line on each side);
//   * fast   — the shipped hot path: `log::LineWriter` buffered emission and
//     `log::parse_text` view-based parsing over the retained buffer.
//
// Both paths must produce byte-identical log text and an identical classified
// failure list (the program exits nonzero otherwise), so the speedup is
// apples-to-apples. Results go to BENCH_pipeline.json.
//
//   pipeline_throughput [--scale=<f>] [--seed=<n>] [--repeat=<n>] [--out=<path>]
//                       [--metrics] [--trace=<path>]
//
// --repeat keeps the fastest of n runs per stage (min-of-N). --metrics and
// --trace turn the full observability stack on; tools/run_checks.sh runs the
// harness with and without them and gates the overhead at <2%.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "log/classifier.h"
#include "obs/obs.h"
#include "log/emitter.h"
#include "log/line_writer.h"
#include "log/parser.h"
#include "model/fleet.h"
#include "model/fleet_config.h"
#include "sim/log_bridge.h"
#include "sim/simulator.h"
#include "util/file.h"
#include "util/flags.h"
#include "util/parallel.h"

namespace {

using namespace storsubsim;

// --------------------------------------------------------------------------
// The pre-optimization implementation, verbatim. Do not modernize: this IS
// the baseline being measured.
namespace legacy {

using model::FailureType;

log::LogRecord make(double t, std::string code, log::Severity sev,
                    const log::EmittableFailure& f, std::string message) {
  log::LogRecord r;
  r.time = t;
  r.code = std::move(code);
  r.severity = sev;
  r.disk = f.disk;
  r.system = f.system;
  r.message = std::move(message);
  return r;
}

std::vector<log::LogRecord> propagation_chain(const log::EmittableFailure& f) {
  std::vector<log::LogRecord> chain;
  const double t = f.detect_time;
  const std::string& dev = f.device_address;
  const std::string adapter = dev.substr(0, dev.find('.'));

  switch (f.type) {
    case FailureType::kPhysicalInterconnect:
      chain.push_back(make(t - 166.0, "fci.device.timeout", log::Severity::kError, f,
                           "Adapter " + adapter + " encountered a device timeout on device " +
                               dev));
      chain.push_back(make(t - 152.0, "fci.adapter.reset", log::Severity::kInfo, f,
                           "Resetting Fibre Channel adapter " + adapter + "."));
      chain.push_back(make(t - 152.0, "scsi.cmd.abortedByHost", log::Severity::kError, f,
                           "Device " + dev + ": Command aborted by host adapter"));
      chain.push_back(make(t - 130.0, "scsi.cmd.selectionTimeout", log::Severity::kError, f,
                           "Device " + dev +
                               ": Adapter/target error: Targeted device did not respond to "
                               "requested I/O. I/O will be retried."));
      chain.push_back(make(t - 120.0, "scsi.cmd.noMorePaths", log::Severity::kError, f,
                           "Device " + dev + ": No more paths to device. All retries have "
                                             "failed."));
      chain.push_back(make(t, "raid.config.filesystem.disk.missing", log::Severity::kInfo, f,
                           "File system Disk " + dev + " S/N [" + f.serial + "] is missing."));
      break;

    case FailureType::kDisk:
      chain.push_back(make(t - 240.0, "disk.ioMediumError", log::Severity::kError, f,
                           "Device " + dev + ": medium error during read, sector remap "
                                             "attempted."));
      chain.push_back(make(t - 90.0, "scsi.cmd.checkCondition", log::Severity::kError, f,
                           "Device " + dev + ": check condition: hardware error, internal "
                                             "target failure."));
      chain.push_back(make(t, "raid.config.disk.failed", log::Severity::kError, f,
                           "Disk " + dev + " S/N [" + f.serial +
                               "] failed; marked for reconstruction."));
      break;

    case FailureType::kProtocol:
      chain.push_back(make(t - 75.0, "scsi.cmd.protocolViolation", log::Severity::kError, f,
                           "Device " + dev + ": unexpected response for tagged command; "
                                             "protocol violation suspected."));
      chain.push_back(make(t - 30.0, "scsi.cmd.retryExhausted", log::Severity::kError, f,
                           "Device " + dev + ": command retries exhausted; responses remain "
                                             "inconsistent."));
      chain.push_back(make(t, "raid.disk.protocol.error", log::Severity::kError, f,
                           "Disk " + dev + " S/N [" + f.serial +
                               "] visible but I/O requests are not correctly responded."));
      break;

    case FailureType::kPerformance:
      chain.push_back(make(t - 420.0, "scsi.cmd.slowResponse", log::Severity::kWarning, f,
                           "Device " + dev + ": request latency exceeds service threshold."));
      chain.push_back(make(t - 200.0, "scsi.cmd.slowResponse", log::Severity::kWarning, f,
                           "Device " + dev + ": request latency exceeds service threshold."));
      chain.push_back(make(t, "raid.disk.timeout.slow", log::Severity::kWarning, f,
                           "Disk " + dev + " S/N [" + f.serial +
                               "] cannot serve I/O requests in a timely manner."));
      break;
  }
  return chain;
}

std::string render_timestamp(double sim_seconds) {
  const double clamped = std::max(0.0, sim_seconds);
  const long total = std::lround(std::floor(clamped));
  const long days = total / 86400;
  const long hours = (total % 86400) / 3600;
  const long mins = (total % 3600) / 60;
  const long secs = total % 60;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "D%04ld %02ld:%02ld:%02ld", days, hours, mins, secs);
  return buf;
}

std::string render_line(const log::LogRecord& r) {
  std::ostringstream os;
  os << render_timestamp(r.time) << " t=" << std::fixed;
  os.precision(3);
  os << r.time << " [" << r.code << ":" << log::to_string(r.severity) << "]";
  os << " [sys=" << (r.system.valid() ? std::to_string(r.system.value()) : std::string("-"))
     << " disk=" << (r.disk.valid() ? std::to_string(r.disk.value()) : std::string("-"))
     << "]: " << r.message;
  return os.str();
}

std::string device_address(const model::Fleet& fleet, model::DiskId disk) {
  const auto& record = fleet.disk(disk);
  const auto& shelf = fleet.shelf(record.shelf);
  return std::to_string(shelf.index_in_system + 1) + "." + std::to_string(record.slot + 16);
}

std::size_t write_failure_logs(std::ostream& out, const model::Fleet& fleet,
                               std::span<const sim::SimFailure> failures) {
  std::size_t lines = 0;
  for (const auto& f : failures) {
    log::EmittableFailure e;
    e.detect_time = f.detect_time;
    e.type = f.type;
    e.disk = f.disk;
    e.system = f.system;
    e.device_address = device_address(fleet, f.disk);
    e.serial = model::serial_for(f.disk);
    // Qualified: ADL would otherwise also find the shipped overloads.
    for (const auto& record : legacy::propagation_chain(e)) {
      out << legacy::render_line(record) << '\n';
      ++lines;
    }
  }
  return lines;
}

std::optional<std::uint32_t> parse_id_attr(std::string_view text, std::string_view name) {
  const auto pos = text.find(name);
  if (pos == std::string_view::npos) return std::nullopt;
  std::string_view rest = text.substr(pos + name.size());
  if (rest.starts_with("-")) return model::Id<model::DiskTag>::kInvalid;
  std::uint32_t value = 0;
  const auto [ptr, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), value);
  if (ec != std::errc{} || ptr == rest.data()) return std::nullopt;
  return value;
}

std::optional<log::LogRecord> parse_line(std::string_view line) {
  const auto t_pos = line.find(" t=");
  if (t_pos == std::string_view::npos) return std::nullopt;

  log::LogRecord record;
  {
    std::string_view rest = line.substr(t_pos + 3);
    double t = 0.0;
    const auto [ptr, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), t);
    if (ec != std::errc{}) return std::nullopt;
    record.time = t;
    line = std::string_view(ptr, static_cast<std::size_t>(rest.data() + rest.size() - ptr));
  }

  const auto code_open = line.find('[');
  const auto code_close = line.find(']');
  if (code_open == std::string_view::npos || code_close == std::string_view::npos ||
      code_close <= code_open) {
    return std::nullopt;
  }
  {
    std::string_view code_sev = line.substr(code_open + 1, code_close - code_open - 1);
    const auto colon = code_sev.rfind(':');
    if (colon == std::string_view::npos) return std::nullopt;
    record.code = std::string(code_sev.substr(0, colon));
    const auto sev = log::parse_severity(code_sev.substr(colon + 1));
    if (!sev) return std::nullopt;
    record.severity = *sev;
  }

  std::string_view after = line.substr(code_close + 1);
  const auto attr_open = after.find('[');
  const auto attr_close = after.find(']');
  if (attr_open == std::string_view::npos || attr_close == std::string_view::npos ||
      attr_close <= attr_open) {
    return std::nullopt;
  }
  {
    std::string_view attrs = after.substr(attr_open + 1, attr_close - attr_open - 1);
    const auto sys = parse_id_attr(attrs, "sys=");
    const auto disk = parse_id_attr(attrs, "disk=");
    if (!sys || !disk) return std::nullopt;
    record.system = model::SystemId(*sys);
    record.disk = model::DiskId(*disk);
  }

  std::string_view message = after.substr(attr_close + 1);
  if (message.starts_with(": ")) message.remove_prefix(2);
  record.message = std::string(message);
  return record;
}

log::ParseStats parse_stream(std::istream& in, std::vector<log::LogRecord>& out) {
  log::ParseStats stats;
  std::string line;
  while (std::getline(in, line)) {
    ++stats.lines_total;
    if (line.empty() || line[0] == '#') {
      ++stats.lines_skipped;
      continue;
    }
    if (auto record = parse_line(line)) {
      out.push_back(std::move(*record));
      ++stats.lines_parsed;
    } else if (line.find(" t=") != std::string::npos) {
      ++stats.lines_malformed;
    } else {
      ++stats.lines_skipped;
    }
  }
  return stats;
}

/// The library classifies views only: classify views of the owning records
/// (the same code-id switch the shipped classifier runs).
std::vector<log::ClassifiedFailure> classify(const std::vector<log::LogRecord>& records) {
  std::vector<log::LogView> views;
  views.reserve(records.size());
  for (const auto& r : records) {
    views.push_back(log::LogView{r.time, log::code_id(r.code), r.severity, r.disk, r.system,
                                 r.code, r.message});
  }
  return log::classify(views);
}

}  // namespace legacy
// --------------------------------------------------------------------------

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PathTiming {
  double emit_seconds = 0.0;
  double parse_seconds = 0.0;
  double classify_seconds = 0.0;
};

void keep_min(PathTiming& best, const PathTiming& run, bool first) {
  if (first || run.emit_seconds < best.emit_seconds) best.emit_seconds = run.emit_seconds;
  if (first || run.parse_seconds < best.parse_seconds) best.parse_seconds = run.parse_seconds;
  if (first || run.classify_seconds < best.classify_seconds) {
    best.classify_seconds = run.classify_seconds;
  }
}

bool same_classification(const std::vector<log::ClassifiedFailure>& a,
                         const std::vector<log::ClassifiedFailure>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].disk != b[i].disk || a[i].system != b[i].system ||
        a[i].type != b[i].type) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  std::uint64_t seed = 20080226;
  int repeat = 3;
  std::string out_path = "BENCH_pipeline.json";
  bool metrics = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--scale=")) {
      scale = util::flag_double("scale", arg.substr(8));
    } else if (arg.starts_with("--seed=")) {
      seed = util::flag_count("seed", arg.substr(7));
    } else if (arg.starts_with("--repeat=")) {
      repeat = static_cast<int>(
          util::flag_count("repeat", arg.substr(9), std::numeric_limits<int>::max()));
    } else if (arg.starts_with("--out=")) {
      out_path = std::string(arg.substr(6));
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg.starts_with("--trace=")) {
      trace_path = std::string(arg.substr(8));
    }
  }
  if (repeat < 1) repeat = 1;
  if (!trace_path.empty()) obs::set_tracing_enabled(true);

  util::set_thread_count(1);  // apples-to-apples single-threaded comparison
  const auto config = model::standard_fleet_config(scale, seed);
  const auto simulation = sim::simulate_fleet(config);
  const auto& fleet = simulation.fleet;
  const auto& failures = simulation.result.failures;
  std::cout << "scale " << scale << ": " << failures.size() << " failures simulated\n";

  PathTiming legacy_best;
  PathTiming fast_best;
  std::string legacy_text;
  std::string fast_text;
  std::vector<log::ClassifiedFailure> legacy_classified;
  std::vector<log::ClassifiedFailure> fast_classified;
  std::size_t lines = 0;

  for (int r = 0; r < repeat; ++r) {
    PathTiming run;

    // Legacy: emit into a stringstream, getline-parse owning records out of
    // it — exactly how the pipeline consumed logs before the rewrite.
    {
      double t0 = now_seconds();
      std::stringstream stream;
      lines = legacy::write_failure_logs(stream, fleet, failures);
      run.emit_seconds = now_seconds() - t0;

      std::vector<log::LogRecord> records;
      t0 = now_seconds();
      legacy::parse_stream(stream, records);
      run.parse_seconds = now_seconds() - t0;

      t0 = now_seconds();
      auto classified = legacy::classify(records);
      run.classify_seconds = now_seconds() - t0;
      if (r == 0) {
        legacy_text = stream.str();
        legacy_classified = std::move(classified);
      }
    }
    keep_min(legacy_best, run, r == 0);

    // Fast: buffered emission into a LineWriter, view-based parse over the
    // retained buffer, classification on interned ids.
    {
      double t0 = now_seconds();
      log::LineWriter writer(failures.size() * 768);
      const std::size_t fast_lines = sim::write_failure_logs(writer, fleet, failures);
      run.emit_seconds = now_seconds() - t0;
      if (fast_lines != lines) {
        std::cerr << "FAIL: line count mismatch (legacy " << lines << ", fast " << fast_lines
                  << ")\n";
        return 1;
      }

      std::vector<log::LogView> views;
      t0 = now_seconds();
      log::parse_text(writer.view(), views);
      run.parse_seconds = now_seconds() - t0;

      t0 = now_seconds();
      auto classified =
          log::classify(std::span<const log::LogView>(views), log::ClassifierOptions{});
      run.classify_seconds = now_seconds() - t0;
      if (r == 0) {
        fast_text = writer.take();
        fast_classified = std::move(classified);
      }
    }
    keep_min(fast_best, run, r == 0);
  }
  util::set_thread_count(0);

  const bool bytes_identical = legacy_text == fast_text;
  const bool classification_identical = same_classification(legacy_classified, fast_classified);
  const double legacy_ep = legacy_best.emit_seconds + legacy_best.parse_seconds;
  const double fast_ep = fast_best.emit_seconds + fast_best.parse_seconds;
  const double speedup = legacy_ep / fast_ep;

  std::cout << "log lines: " << lines << " (" << fast_text.size() << " bytes)\n"
            << "legacy: emit " << legacy_best.emit_seconds << " s, parse "
            << legacy_best.parse_seconds << " s, classify " << legacy_best.classify_seconds
            << " s  (" << static_cast<double>(lines) / legacy_ep << " lines/s emit+parse)\n"
            << "fast:   emit " << fast_best.emit_seconds << " s, parse "
            << fast_best.parse_seconds << " s, classify " << fast_best.classify_seconds
            << " s  (" << static_cast<double>(lines) / fast_ep << " lines/s emit+parse)\n"
            << "emit+parse speedup: " << speedup << "x\n"
            << "log text " << (bytes_identical ? "byte-identical" : "MISMATCH")
            << ", classification "
            << (classification_identical ? "identical" : "MISMATCH") << "\n";

  std::ostringstream out;
  out << "{\n  \"benchmark\": \"log_pipeline_throughput\",\n"
      << "  \"scale\": " << scale << ",\n  \"seed\": " << seed
      << ",\n  \"repeat\": " << repeat << ",\n  \"threads\": 1,\n"
      << "  \"failures\": " << failures.size() << ",\n  \"log_lines\": " << lines
      << ",\n  \"log_bytes\": " << fast_text.size() << ",\n"
      << "  \"legacy\": {\"emit_seconds\": " << legacy_best.emit_seconds
      << ", \"parse_seconds\": " << legacy_best.parse_seconds
      << ", \"classify_seconds\": " << legacy_best.classify_seconds
      << ", \"emit_parse_lines_per_second\": " << static_cast<double>(lines) / legacy_ep
      << "},\n"
      << "  \"fast\": {\"emit_seconds\": " << fast_best.emit_seconds
      << ", \"parse_seconds\": " << fast_best.parse_seconds
      << ", \"classify_seconds\": " << fast_best.classify_seconds
      << ", \"emit_parse_lines_per_second\": " << static_cast<double>(lines) / fast_ep
      << "},\n"
      << "  \"emit_parse_speedup\": " << speedup << ",\n"
      << "  \"bytes_identical\": " << (bytes_identical ? "true" : "false") << ",\n"
      << "  \"classification_identical\": " << (classification_identical ? "true" : "false")
      << "\n}\n";
  if (util::publish_file(out_path, out.str()) != 0) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";

  // Provenance manifest next to the result file (BENCH_pipeline.manifest.json).
  obs::RunManifest manifest;
  manifest.tool = "bench/pipeline_throughput";
  manifest.seed = seed;
  manifest.scale = scale;
  manifest.threads = 1;
  manifest.info.emplace_back("out", out_path);
  manifest.numbers.emplace_back("log_lines", static_cast<double>(lines));
  manifest.numbers.emplace_back("legacy_emit_parse_seconds", legacy_ep);
  manifest.numbers.emplace_back("fast_emit_parse_seconds", fast_ep);
  manifest.numbers.emplace_back("emit_parse_speedup", speedup);
  std::string manifest_path = out_path;
  if (manifest_path.ends_with(".json")) {
    manifest_path.resize(manifest_path.size() - 5);
  }
  manifest_path += ".manifest.json";
  if (util::publish_file(manifest_path, obs::manifest_json(manifest)) != 0) {
    std::cerr << "cannot write manifest " << manifest_path << "\n";
    return 1;
  }
  if (!trace_path.empty() && util::publish_file(trace_path, obs::trace_json()) != 0) {
    std::cerr << "cannot write trace " << trace_path << "\n";
    return 1;
  }
  if (metrics) std::cerr << obs::registry().snapshot().to_text();

  return (bytes_identical && classification_identical) ? 0 : 1;
}
