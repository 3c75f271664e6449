#include "log/emitter.h"

#include <array>
#include <charconv>
#include <ostream>
#include <span>

#include "log/codes.h"

namespace storsubsim::log {

namespace {

using model::FailureType;

// --- static chain table -----------------------------------------------------
// One table drives both emission paths. A message is a sequence of pieces;
// each piece appends a literal and then (optionally) one of the per-failure
// substitution slots, so formatting is pure appends — no temporaries.

enum class Slot : std::uint8_t { kNone, kDev, kAdapter, kSerial };

struct MsgPiece {
  std::string_view text;
  Slot slot = Slot::kNone;
};

struct ChainStep {
  double dt;  ///< seconds before the RAID-layer detection time
  EventCode code;
  Severity severity;
  std::span<const MsgPiece> message;
};

constexpr MsgPiece kMsgDeviceTimeout[] = {
    {"Adapter ", Slot::kAdapter},
    {" encountered a device timeout on device ", Slot::kDev}};
constexpr MsgPiece kMsgAdapterReset[] = {{"Resetting Fibre Channel adapter ", Slot::kAdapter},
                                         {"."}};
constexpr MsgPiece kMsgAbortedByHost[] = {{"Device ", Slot::kDev},
                                          {": Command aborted by host adapter"}};
constexpr MsgPiece kMsgSelectionTimeout[] = {
    {"Device ", Slot::kDev},
    {": Adapter/target error: Targeted device did not respond to requested I/O. I/O will "
     "be retried."}};
constexpr MsgPiece kMsgNoMorePaths[] = {
    {"Device ", Slot::kDev}, {": No more paths to device. All retries have failed."}};
constexpr MsgPiece kMsgDiskMissing[] = {{"File system Disk ", Slot::kDev},
                                        {" S/N [", Slot::kSerial},
                                        {"] is missing."}};

constexpr MsgPiece kMsgMediumError[] = {
    {"Device ", Slot::kDev}, {": medium error during read, sector remap attempted."}};
constexpr MsgPiece kMsgCheckCondition[] = {
    {"Device ", Slot::kDev},
    {": check condition: hardware error, internal target failure."}};
constexpr MsgPiece kMsgDiskFailed[] = {{"Disk ", Slot::kDev},
                                       {" S/N [", Slot::kSerial},
                                       {"] failed; marked for reconstruction."}};

constexpr MsgPiece kMsgProtocolViolation[] = {
    {"Device ", Slot::kDev},
    {": unexpected response for tagged command; protocol violation suspected."}};
constexpr MsgPiece kMsgRetryExhausted[] = {
    {"Device ", Slot::kDev},
    {": command retries exhausted; responses remain inconsistent."}};
constexpr MsgPiece kMsgProtocolError[] = {
    {"Disk ", Slot::kDev},
    {" S/N [", Slot::kSerial},
    {"] visible but I/O requests are not correctly responded."}};

constexpr MsgPiece kMsgSlowResponse[] = {
    {"Device ", Slot::kDev}, {": request latency exceeds service threshold."}};
constexpr MsgPiece kMsgTimeoutSlow[] = {
    {"Disk ", Slot::kDev},
    {" S/N [", Slot::kSerial},
    {"] cannot serve I/O requests in a timely manner."}};

// The exact event sequence of the paper's Figure 3.
constexpr ChainStep kInterconnectChain[] = {
    {166.0, EventCode::kFciDeviceTimeout, Severity::kError, kMsgDeviceTimeout},
    {152.0, EventCode::kFciAdapterReset, Severity::kInfo, kMsgAdapterReset},
    {152.0, EventCode::kScsiAbortedByHost, Severity::kError, kMsgAbortedByHost},
    {130.0, EventCode::kScsiSelectionTimeout, Severity::kError, kMsgSelectionTimeout},
    {120.0, EventCode::kScsiNoMorePaths, Severity::kError, kMsgNoMorePaths},
    {0.0, EventCode::kRaidDiskMissing, Severity::kInfo, kMsgDiskMissing},
};

constexpr ChainStep kDiskChain[] = {
    {240.0, EventCode::kDiskIoMediumError, Severity::kError, kMsgMediumError},
    {90.0, EventCode::kScsiCheckCondition, Severity::kError, kMsgCheckCondition},
    {0.0, EventCode::kRaidDiskFailed, Severity::kError, kMsgDiskFailed},
};

constexpr ChainStep kProtocolChain[] = {
    {75.0, EventCode::kScsiProtocolViolation, Severity::kError, kMsgProtocolViolation},
    {30.0, EventCode::kScsiRetryExhausted, Severity::kError, kMsgRetryExhausted},
    {0.0, EventCode::kRaidProtocolError, Severity::kError, kMsgProtocolError},
};

constexpr ChainStep kPerformanceChain[] = {
    {420.0, EventCode::kScsiSlowResponse, Severity::kWarning, kMsgSlowResponse},
    {200.0, EventCode::kScsiSlowResponse, Severity::kWarning, kMsgSlowResponse},
    {0.0, EventCode::kRaidTimeoutSlow, Severity::kWarning, kMsgTimeoutSlow},
};

std::span<const ChainStep> chain_for(FailureType type) {
  switch (type) {
    case FailureType::kDisk: return kDiskChain;
    case FailureType::kPhysicalInterconnect: return kInterconnectChain;
    case FailureType::kProtocol: return kProtocolChain;
    case FailureType::kPerformance: return kPerformanceChain;
  }
  return {};
}

/// Per-step " [<code>:<severity>]" fragments, prerendered once at first use
/// from the same code/severity tables the record path reads, so the hot loop
/// appends one view instead of five pieces per line.
template <std::size_t N>
std::array<std::string, N> build_code_sev_fragments(const ChainStep (&steps)[N]) {
  std::array<std::string, N> out;
  for (std::size_t i = 0; i < N; ++i) {
    LineWriter frag;
    frag.text(" [").text(code_name(steps[i].code)).ch(':');
    frag.text(to_string(steps[i].severity)).ch(']');
    out[i] = frag.take();
  }
  return out;
}

std::span<const std::string> code_sev_fragments_for(FailureType type) {
  static const auto interconnect = build_code_sev_fragments(kInterconnectChain);
  static const auto disk = build_code_sev_fragments(kDiskChain);
  static const auto protocol = build_code_sev_fragments(kProtocolChain);
  static const auto performance = build_code_sev_fragments(kPerformanceChain);
  switch (type) {
    case FailureType::kDisk: return disk;
    case FailureType::kPhysicalInterconnect: return interconnect;
    case FailureType::kProtocol: return protocol;
    case FailureType::kPerformance: return performance;
  }
  return {};
}

/// Renders " [sys=N disk=N]: " into `buf` (invalid ids as '-'); the block is
/// constant across a failure's whole chain, so callers format it once.
std::string_view format_id_block(std::span<char> buf, model::SystemId system,
                                 model::DiskId disk) {
  constexpr std::string_view kSysPrefix = " [sys=";
  constexpr std::string_view kDiskPrefix = " disk=";
  constexpr std::string_view kSuffix = "]: ";
  char* p = buf.data();
  for (const char c : kSysPrefix) *p++ = c;
  if (system.valid()) {
    p = std::to_chars(p, buf.data() + buf.size(), system.value()).ptr;
  } else {
    *p++ = '-';
  }
  for (const char c : kDiskPrefix) *p++ = c;
  if (disk.valid()) {
    p = std::to_chars(p, buf.data() + buf.size(), disk.value()).ptr;
  } else {
    *p++ = '-';
  }
  for (const char c : kSuffix) *p++ = c;
  return std::string_view(buf.data(), static_cast<std::size_t>(p - buf.data()));
}

void append_slot(LineWriter& out, Slot slot, const FailureLineInput& f,
                 std::string_view adapter) {
  switch (slot) {
    case Slot::kNone: break;
    case Slot::kDev: out.text(f.device_address); break;
    case Slot::kAdapter: out.text(adapter); break;
    case Slot::kSerial: out.text(f.serial); break;
  }
}

void append_message(LineWriter& out, std::span<const MsgPiece> pieces,
                    const FailureLineInput& f, std::string_view adapter) {
  for (const MsgPiece& piece : pieces) {
    out.text(piece.text);
    append_slot(out, piece.slot, f, adapter);
  }
}

/// Everything before the free-form message: timestamp, raw time, code,
/// severity, and the machine-readable id block.
void append_line_head(LineWriter& out, double time, std::string_view code, Severity severity,
                      model::SystemId system, model::DiskId disk) {
  out.timestamp(time).text(" t=").fixed3(time);
  out.text(" [").text(code).ch(':').text(to_string(severity)).ch(']');
  out.text(" [sys=");
  if (system.valid()) {
    out.u32(system.value());
  } else {
    out.ch('-');
  }
  out.text(" disk=");
  if (disk.valid()) {
    out.u32(disk.value());
  } else {
    out.ch('-');
  }
  out.text("]: ");
}

}  // namespace

std::size_t emit_chain(LineWriter& out, const FailureLineInput& f) {
  const std::string_view dev = f.device_address;
  const std::string_view adapter = dev.substr(0, dev.find('.'));
  const auto steps = chain_for(f.type);
  const auto fragments = code_sev_fragments_for(f.type);
  char id_buf[48];  // " [sys=" + 10 digits + " disk=" + 10 digits + "]: "
  const std::string_view id_block = format_id_block(id_buf, f.system, f.disk);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const ChainStep& step = steps[i];
    const double t = f.detect_time - step.dt;
    out.timestamp(t).text(" t=").fixed3(t).text(fragments[i]).text(id_block);
    append_message(out, step.message, f, adapter);
    out.newline();
  }
  return steps.size();
}

std::vector<LogRecord> propagation_chain(const EmittableFailure& f) {
  const FailureLineInput input{f.detect_time, f.type,           f.disk,
                               f.system,      f.device_address, f.serial};
  const std::string_view dev = input.device_address;
  const std::string_view adapter = dev.substr(0, dev.find('.'));

  std::vector<LogRecord> chain;
  const auto steps = chain_for(f.type);
  chain.reserve(steps.size());
  LineWriter message;
  for (const ChainStep& step : steps) {
    message.clear();
    append_message(message, step.message, input, adapter);
    LogRecord r;
    r.time = f.detect_time - step.dt;
    r.code = std::string(code_name(step.code));
    r.severity = step.severity;
    r.disk = f.disk;
    r.system = f.system;
    r.message = std::string(message.view());
    chain.push_back(std::move(r));
  }
  return chain;
}

std::string render_timestamp(double sim_seconds) {
  // Render as day/hh:mm:ss offsets from study start; analysis parses the raw
  // seconds attribute instead, so this is purely cosmetic.
  LineWriter out;
  out.timestamp(sim_seconds);
  return out.take();
}

void render_line_to(LineWriter& out, const LogRecord& r) {
  append_line_head(out, r.time, r.code, r.severity, r.system, r.disk);
  out.text(r.message);
}

std::string render_line(const LogRecord& r) {
  LineWriter out;
  render_line_to(out, r);
  return out.take();
}

void LogEmitter::emit(const LogRecord& record) {
  scratch_.clear();
  render_line_to(scratch_, record);
  scratch_.newline();
  *out_ << scratch_.view();
}

void LogEmitter::emit(const EmittableFailure& failure) {
  scratch_.clear();
  emit_chain(scratch_, FailureLineInput{failure.detect_time, failure.type, failure.disk,
                                        failure.system, failure.device_address,
                                        failure.serial});
  *out_ << scratch_.view();
}

}  // namespace storsubsim::log
