#include "sim/log_bridge.h"

#include <charconv>
#include <string>

#include "log/codes.h"
#include "log/emitter.h"
#include "obs/obs.h"

namespace storsubsim::sim {

namespace {

/// Formats "adapter.target" into a caller-provided stack buffer and returns
/// the written view (two u32s and a dot always fit in 24 bytes).
std::string_view format_device_address(const model::Fleet& fleet, model::DiskId disk,
                                       std::span<char> buf) {
  const auto& record = fleet.disk(disk);
  const auto& shelf = fleet.shelf(record.shelf);
  // FC loop addressing flavor: adapter number from the shelf's position in
  // the system, target offset by 16 as in the paper's "8.24" example.
  char* p = buf.data();
  char* const end = buf.data() + buf.size();
  p = std::to_chars(p, end, shelf.index_in_system + 1).ptr;
  *p++ = '.';
  p = std::to_chars(p, end, record.slot + 16).ptr;
  return std::string_view(buf.data(), static_cast<std::size_t>(p - buf.data()));
}

}  // namespace

std::string device_address(const model::Fleet& fleet, model::DiskId disk) {
  char buf[24];
  return std::string(format_device_address(fleet, disk, buf));
}

std::size_t write_failure_logs(log::LineWriter& out, const model::Fleet& fleet,
                               std::span<const SimFailure> failures) {
  std::size_t lines = 0;
  char dev_buf[24];
  for (const auto& f : failures) {
    storsubsim::log::FailureLineInput input;
    input.detect_time = f.detect_time;
    input.type = f.type;
    input.disk = f.disk;
    input.system = f.system;
    input.device_address = format_device_address(fleet, f.disk, dev_buf);
    const auto serial = model::serial_chars(f.disk);
    input.serial = std::string_view(serial.data(), serial.size());
    lines += storsubsim::log::emit_chain(out, input);
  }
  STORSIM_OBS_COUNTER(c_chains, "log.emit.chains",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_chains, failures.size());
  STORSIM_OBS_COUNTER(c_lines, "log.emit.lines",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_lines, lines);
  return lines;
}

std::string_view code_for(PrecursorKind kind) {
  switch (kind) {
    case PrecursorKind::kMediumError:
      return storsubsim::log::code_name(storsubsim::log::EventCode::kDiskIoMediumError);
    case PrecursorKind::kLinkReset:
      return storsubsim::log::code_name(storsubsim::log::EventCode::kFciLinkReset);
    case PrecursorKind::kCmdTimeout:
      return storsubsim::log::code_name(storsubsim::log::EventCode::kScsiSlowCompletion);
  }
  return "unknown";
}

std::optional<PrecursorKind> precursor_kind_of_code(std::string_view code) {
  for (const auto kind : {PrecursorKind::kMediumError, PrecursorKind::kLinkReset,
                          PrecursorKind::kCmdTimeout}) {
    if (code == code_for(kind)) return kind;
  }
  return std::nullopt;
}

std::size_t write_precursor_logs(log::LineWriter& out, const model::Fleet& fleet,
                                 std::span<const PrecursorEvent> events) {
  for (const auto& e : events) {
    storsubsim::log::LogRecord record;
    record.time = e.time;
    record.code = std::string(code_for(e.kind));
    record.severity = e.kind == PrecursorKind::kCmdTimeout
                          ? storsubsim::log::Severity::kWarning
                          : storsubsim::log::Severity::kError;
    record.disk = e.disk;
    record.system = e.system;
    const std::string dev = device_address(fleet, e.disk);
    switch (e.kind) {
      case PrecursorKind::kMediumError:
        record.message = "Device " + dev + ": medium error, sector remapped.";
        break;
      case PrecursorKind::kLinkReset:
        record.message = "Device " + dev + ": Fibre Channel link reset.";
        break;
      case PrecursorKind::kCmdTimeout:
        record.message = "Device " + dev + ": command completion exceeded threshold.";
        break;
    }
    storsubsim::log::render_line_to(out, record);
    out.newline();
  }
  return events.size();
}

std::vector<PrecursorEvent> extract_precursors(std::span<const log::LogView> records) {
  std::vector<PrecursorEvent> out;
  for (const auto& r : records) {
    const auto kind = precursor_kind_of_code(r.code);
    if (!kind || !r.disk.valid()) continue;
    out.push_back(PrecursorEvent{r.time, r.disk, r.system, *kind});
  }
  return out;
}

}  // namespace storsubsim::sim
