// Emitter/parser round-trips, the Figure 3 propagation chain shape, and
// failure injection (corrupt, truncated, foreign, reordered lines).
#include <algorithm>
#include <cstddef>
#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "log/codes.h"
#include "log/emitter.h"
#include "log/line_writer.h"
#include "log/parser.h"
#include "per_line_parse.h"

namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;

namespace {

log_ns::EmittableFailure sample_failure(model::FailureType type, double t = 50000.0) {
  log_ns::EmittableFailure f;
  f.detect_time = t;
  f.type = type;
  f.disk = model::DiskId(123);
  f.system = model::SystemId(7);
  f.device_address = "8.24";
  f.serial = "SN3EL03PAV00";
  return f;
}

/// True when `line` parses as a log record.
bool parses(std::string_view line) {
  log_ns::LogView view;
  return log_ns::parse_line_view(line, view);
}

}  // namespace

TEST(PropagationChain, MatchesFigure3ForInterconnect) {
  const auto chain =
      log_ns::propagation_chain(sample_failure(model::FailureType::kPhysicalInterconnect));
  ASSERT_EQ(chain.size(), 6u);
  // Exactly the event sequence of the paper's Figure 3.
  EXPECT_EQ(chain[0].code, "fci.device.timeout");
  EXPECT_EQ(chain[1].code, "fci.adapter.reset");
  EXPECT_EQ(chain[2].code, "scsi.cmd.abortedByHost");
  EXPECT_EQ(chain[3].code, "scsi.cmd.selectionTimeout");
  EXPECT_EQ(chain[4].code, "scsi.cmd.noMorePaths");
  EXPECT_EQ(chain[5].code, "raid.config.filesystem.disk.missing");
  // Lower layers report before the RAID layer; timestamps ascend.
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LE(chain[i - 1].time, chain[i].time);
  }
  EXPECT_DOUBLE_EQ(chain.back().time, 50000.0);
  // The terminal line carries the serial like the paper's example.
  EXPECT_NE(chain.back().message.find("S/N [SN3EL03PAV00]"), std::string::npos);
  EXPECT_NE(chain.back().message.find("is missing"), std::string::npos);
}

TEST(PropagationChain, EveryTypeEndsAtRaidLayer) {
  for (const auto type : model::kAllFailureTypes) {
    const auto chain = log_ns::propagation_chain(sample_failure(type));
    ASSERT_GE(chain.size(), 2u) << model::to_string(type);
    EXPECT_TRUE(chain.back().code.starts_with("raid.")) << chain.back().code;
    const auto terminal_type = log_ns::failure_type_of(log_ns::code_id(chain.back().code));
    ASSERT_TRUE(terminal_type.has_value());
    EXPECT_EQ(*terminal_type, type);
    // Precursors are below the RAID layer.
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      EXPECT_FALSE(chain[i].code.starts_with("raid.")) << chain[i].code;
    }
  }
}

TEST(RenderParse, RoundTripsAllFields) {
  for (const auto type : model::kAllFailureTypes) {
    for (const auto& record : log_ns::propagation_chain(sample_failure(type, 123456.789))) {
      const auto line = log_ns::render_line(record);
      log_ns::LogView parsed;
      ASSERT_TRUE(log_ns::parse_line_view(line, parsed)) << line;
      EXPECT_NEAR(parsed.time, record.time, 1e-3);
      EXPECT_EQ(parsed.code, record.code);
      EXPECT_EQ(parsed.severity, record.severity);
      EXPECT_EQ(parsed.disk, record.disk);
      EXPECT_EQ(parsed.system, record.system);
      EXPECT_EQ(parsed.message, record.message);
    }
  }
}

TEST(RenderParse, InvalidIdsRenderAsDash) {
  log_ns::LogRecord record;
  record.time = 10.0;
  record.code = "raid.config.disk.failed";
  record.severity = log_ns::Severity::kError;
  record.message = "orphan event";
  const auto line = log_ns::render_line(record);
  EXPECT_NE(line.find("sys=- disk=-"), std::string::npos);
  log_ns::LogView parsed;
  ASSERT_TRUE(log_ns::parse_line_view(line, parsed));
  EXPECT_FALSE(parsed.disk.valid());
  EXPECT_FALSE(parsed.system.valid());
}

TEST(ParseLine, RejectsMalformedLines) {
  EXPECT_FALSE(parses(""));
  EXPECT_FALSE(parses("console: power button pressed"));
  EXPECT_FALSE(parses("D0000 00:00:01 t=abc [x:error] [sys=1 disk=2]: m"));
  EXPECT_FALSE(parses("D0000 00:00:01 t=5.0 [no-severity] [sys=1 disk=2]: m"));
  EXPECT_FALSE(parses("D0000 00:00:01 t=5.0 [c:error] sys=1 disk=2: m"));
  EXPECT_FALSE(parses("D0000 00:00:01 t=5.0 [c:fatal] [sys=1 disk=2]: m"));
}

TEST(ParseStream, CountsForeignAndMalformed) {
  std::stringstream text;
  log_ns::LogEmitter emitter(text);
  emitter.emit(sample_failure(model::FailureType::kDisk));
  text << "# a comment line\n";
  text << "console: operator logged in\n";                        // foreign
  text << "D0000 00:00:01 t=5.0 [c:fatal] [sys=1 disk=2]: bad\n"; // malformed
  text << "\n";

  std::vector<log_ns::LogView> records;
  const auto stats = log_ns::parse_text(text.str(), records);
  EXPECT_EQ(records.size(), 3u);  // disk chain has 3 records
  EXPECT_EQ(stats.lines_parsed, 3u);
  EXPECT_EQ(stats.lines_malformed, 1u);
  EXPECT_EQ(stats.lines_skipped, 3u);  // comment + foreign + blank
  EXPECT_EQ(stats.lines_total, 7u);
}

TEST(ParseStream, SurvivesTruncatedLine) {
  std::stringstream text;
  log_ns::LogEmitter emitter(text);
  emitter.emit(sample_failure(model::FailureType::kProtocol));
  std::string all = text.str();
  // Chop the last line mid-way (simulates a crash during log write).
  all.resize(all.size() - 25);
  std::vector<log_ns::LogView> records;
  const auto stats = log_ns::parse_text(all, records);
  EXPECT_GE(records.size(), 2u);
  EXPECT_EQ(stats.lines_parsed + stats.lines_malformed + stats.lines_skipped,
            stats.lines_total);
}

TEST(LogEmitter, CountsLines) {
  std::stringstream text;
  log_ns::LogEmitter emitter(text);
  const auto lines = [&] {
    const std::string out = text.str();
    return std::count(out.begin(), out.end(), '\n');
  };
  emitter.emit(sample_failure(model::FailureType::kPhysicalInterconnect));
  EXPECT_EQ(lines(), 6);
  emitter.emit(sample_failure(model::FailureType::kPerformance));
  EXPECT_EQ(lines(), 9);
}

// --- golden format -----------------------------------------------------------
// The on-wire line format is a compatibility contract (docs/FORMAT.md): these
// lines were captured from the emitter before the zero-allocation rewrite and
// pin the rendered bytes exactly. If one of these fails, parsers of existing
// logs break — do not update the expectations without a format version bump.

namespace {

log_ns::EmittableFailure golden_failure(model::FailureType type) {
  log_ns::EmittableFailure f;
  f.detect_time = 123456.789;
  f.type = type;
  f.disk = model::DiskId(1873);
  f.system = model::SystemId(41);
  f.device_address = "8.24";
  f.serial = "SN3EL03PAV00";
  return f;
}

struct GoldenChain {
  model::FailureType type;
  std::vector<const char*> lines;
};

const std::vector<GoldenChain>& golden_chains() {
  static const std::vector<GoldenChain> kChains = {
      {model::FailureType::kDisk,
       {"D0001 10:13:36 t=123216.789 [disk.ioMediumError:error] [sys=41 disk=1873]: "
        "Device 8.24: medium error during read, sector remap attempted.",
        "D0001 10:16:06 t=123366.789 [scsi.cmd.checkCondition:error] [sys=41 disk=1873]: "
        "Device 8.24: check condition: hardware error, internal target failure.",
        "D0001 10:17:36 t=123456.789 [raid.config.disk.failed:error] [sys=41 disk=1873]: "
        "Disk 8.24 S/N [SN3EL03PAV00] failed; marked for reconstruction."}},
      {model::FailureType::kPhysicalInterconnect,
       {"D0001 10:14:50 t=123290.789 [fci.device.timeout:error] [sys=41 disk=1873]: "
        "Adapter 8 encountered a device timeout on device 8.24",
        "D0001 10:15:04 t=123304.789 [fci.adapter.reset:info] [sys=41 disk=1873]: "
        "Resetting Fibre Channel adapter 8.",
        "D0001 10:15:04 t=123304.789 [scsi.cmd.abortedByHost:error] [sys=41 disk=1873]: "
        "Device 8.24: Command aborted by host adapter",
        "D0001 10:15:26 t=123326.789 [scsi.cmd.selectionTimeout:error] [sys=41 disk=1873]: "
        "Device 8.24: Adapter/target error: Targeted device did not respond to requested "
        "I/O. I/O will be retried.",
        "D0001 10:15:36 t=123336.789 [scsi.cmd.noMorePaths:error] [sys=41 disk=1873]: "
        "Device 8.24: No more paths to device. All retries have failed.",
        "D0001 10:17:36 t=123456.789 [raid.config.filesystem.disk.missing:info] "
        "[sys=41 disk=1873]: File system Disk 8.24 S/N [SN3EL03PAV00] is missing."}},
      {model::FailureType::kProtocol,
       {"D0001 10:16:21 t=123381.789 [scsi.cmd.protocolViolation:error] [sys=41 disk=1873]: "
        "Device 8.24: unexpected response for tagged command; protocol violation suspected.",
        "D0001 10:17:06 t=123426.789 [scsi.cmd.retryExhausted:error] [sys=41 disk=1873]: "
        "Device 8.24: command retries exhausted; responses remain inconsistent.",
        "D0001 10:17:36 t=123456.789 [raid.disk.protocol.error:error] [sys=41 disk=1873]: "
        "Disk 8.24 S/N [SN3EL03PAV00] visible but I/O requests are not correctly "
        "responded."}},
      {model::FailureType::kPerformance,
       {"D0001 10:10:36 t=123036.789 [scsi.cmd.slowResponse:warning] [sys=41 disk=1873]: "
        "Device 8.24: request latency exceeds service threshold.",
        "D0001 10:14:16 t=123256.789 [scsi.cmd.slowResponse:warning] [sys=41 disk=1873]: "
        "Device 8.24: request latency exceeds service threshold.",
        "D0001 10:17:36 t=123456.789 [raid.disk.timeout.slow:warning] [sys=41 disk=1873]: "
        "Disk 8.24 S/N [SN3EL03PAV00] cannot serve I/O requests in a timely manner."}},
  };
  return kChains;
}

}  // namespace

TEST(GoldenFormat, RecordPathRendersExactBytes) {
  for (const auto& golden : golden_chains()) {
    const auto chain = log_ns::propagation_chain(golden_failure(golden.type));
    ASSERT_EQ(chain.size(), golden.lines.size()) << model::to_string(golden.type);
    for (std::size_t i = 0; i < chain.size(); ++i) {
      EXPECT_EQ(log_ns::render_line(chain[i]), golden.lines[i])
          << model::to_string(golden.type) << " line " << i;
    }
  }
}

TEST(GoldenFormat, BufferPathRendersExactBytes) {
  log_ns::LineWriter out;  // reused across chains, like the pipeline does
  for (const auto& golden : golden_chains()) {
    const auto f = golden_failure(golden.type);
    out.clear();
    const auto lines = log_ns::emit_chain(
        out, log_ns::FailureLineInput{f.detect_time, f.type, f.disk, f.system,
                                      f.device_address, f.serial});
    EXPECT_EQ(lines, golden.lines.size());
    std::string expected;
    for (const char* line : golden.lines) {
      expected += line;
      expected += '\n';
    }
    EXPECT_EQ(out.view(), expected) << model::to_string(golden.type);
  }
}

// --- attribute keys anchor at token boundaries -------------------------------

TEST(ParseLine, AttributeKeysDoNotMatchInsideLongerKeys) {
  // "sys=" must not match the tail of "subsys=", nor "disk=" the tail of
  // "mydisk=" (regression: the parser used to take the first substring hit).
  log_ns::LogView parsed;
  ASSERT_TRUE(log_ns::parse_line_view(
      "D0000 00:00:05 t=5.0 [c:error] [subsys=9 sys=1 mydisk=7 disk=2]: m", parsed));
  EXPECT_EQ(parsed.system, model::SystemId(1));
  EXPECT_EQ(parsed.disk, model::DiskId(2));
}

TEST(ParseLine, SuffixOnlyAttributeKeysAreMissingAttributes) {
  // With only "subsys="/"mydisk=" present, the record has no sys/disk
  // attributes at all and must be rejected, not silently misread.
  EXPECT_FALSE(parses("D0000 00:00:05 t=5.0 [c:error] [subsys=9 mydisk=7]: m"));
}

TEST(ParseLine, MalformedAttributeValuesAreRejected) {
  EXPECT_FALSE(parses("D0000 00:00:05 t=5.0 [c:error] [sys= disk=2]: m"));
  EXPECT_FALSE(parses("D0000 00:00:05 t=5.0 [c:error] [sys=x disk=2]: m"));
}

// --- view-based fast path ----------------------------------------------------

TEST(ParseText, MatchesPerLineParseExactly) {
  std::stringstream stream_text;
  log_ns::LogEmitter emitter(stream_text);
  for (const auto type : model::kAllFailureTypes) emitter.emit(sample_failure(type));
  std::string text = stream_text.str();
  text += "# comment\nconsole: noise\nD0000 00:00:01 t=5.0 [c:fatal] [sys=1 disk=2]: bad\n";

  std::vector<log_ns::LogView> views;
  const auto view_stats = log_ns::parse_text(text, views);
  std::deque<std::string> kept;
  std::vector<log_ns::LogView> lines;
  const auto line_stats = log_ns::testing::parse_line_by_line(text, kept, lines);

  EXPECT_EQ(view_stats.lines_total, line_stats.lines_total);
  EXPECT_EQ(view_stats.lines_parsed, line_stats.lines_parsed);
  EXPECT_EQ(view_stats.lines_skipped, line_stats.lines_skipped);
  EXPECT_EQ(view_stats.lines_malformed, line_stats.lines_malformed);
  ASSERT_EQ(views.size(), lines.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i].time, lines[i].time);
    EXPECT_EQ(views[i].code, lines[i].code);
    EXPECT_EQ(views[i].severity, lines[i].severity);
    EXPECT_EQ(views[i].disk, lines[i].disk);
    EXPECT_EQ(views[i].system, lines[i].system);
    EXPECT_EQ(views[i].message, lines[i].message);
    // The interned id round-trips to the same code spelling.
    EXPECT_EQ(log_ns::code_name(views[i].code_id), views[i].code);
  }
}

TEST(ParseText, ViewsAliasTheSourceBuffer) {
  const std::string text =
      "D0000 00:00:05 t=5.0 [raid.config.disk.failed:error] [sys=1 disk=2]: gone\n";
  std::vector<log_ns::LogView> views;
  log_ns::parse_text(text, views);
  ASSERT_EQ(views.size(), 1u);
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  EXPECT_TRUE(views[0].code.data() >= begin && views[0].code.data() < end);
  EXPECT_TRUE(views[0].message.data() >= begin && views[0].message.data() < end);
  EXPECT_EQ(views[0].code_id, log_ns::EventCode::kRaidDiskFailed);
}

TEST(ParseText, LineSplittingMatchesGetlineSemantics) {
  std::vector<log_ns::LogView> views;
  EXPECT_EQ(log_ns::parse_text("", views).lines_total, 0u);
  EXPECT_EQ(log_ns::parse_text("\n", views).lines_total, 1u);    // one empty line
  EXPECT_EQ(log_ns::parse_text("# c", views).lines_total, 1u);   // no trailing \n
  EXPECT_EQ(log_ns::parse_text("# c\n", views).lines_total, 1u); // trailing \n adds none
  const auto stats = log_ns::parse_text("# a\n\n# b", views);
  EXPECT_EQ(stats.lines_total, 3u);
  EXPECT_EQ(stats.lines_skipped, 3u);
}

TEST(RenderTimestamp, DayAndTimeOfDay) {
  EXPECT_EQ(log_ns::render_timestamp(0.0), "D0000 00:00:00");
  EXPECT_EQ(log_ns::render_timestamp(86400.0 + 3661.0), "D0001 01:01:01");
  // Negative (precursor before study start) clamps rather than underflows.
  EXPECT_EQ(log_ns::render_timestamp(-5.0), "D0000 00:00:00");
}
