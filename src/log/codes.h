// Interned event codes — the central table of every message code the
// emitter writes and the parser understands.
//
// The log hot path used to compare heap-allocated code strings at every
// layer (emit, classify, precursor extraction). Interning collapses that:
// the emitter writes `std::string_view` constants, the parser resolves an
// incoming code to a small integer id in one lookup, and everything
// downstream (failure classification, layer attribution, precursor
// recovery) switches on the id instead of re-comparing strings.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "model/enums.h"

namespace storsubsim::log {

/// Every interned event code. Values are dense so tables can be indexed by
/// `static_cast<std::size_t>(code)`; `kUnknown` marks codes outside the
/// table (foreign subsystems, hand-edited logs) and is always last.
enum class EventCode : std::uint8_t {
  // Fibre Channel layer.
  kFciDeviceTimeout,       ///< fci.device.timeout
  kFciAdapterReset,        ///< fci.adapter.reset
  kFciLinkReset,           ///< fci.link.reset (precursor)
  // SCSI layer.
  kScsiAbortedByHost,      ///< scsi.cmd.abortedByHost
  kScsiSelectionTimeout,   ///< scsi.cmd.selectionTimeout
  kScsiNoMorePaths,        ///< scsi.cmd.noMorePaths
  kScsiCheckCondition,     ///< scsi.cmd.checkCondition
  kScsiProtocolViolation,  ///< scsi.cmd.protocolViolation
  kScsiRetryExhausted,     ///< scsi.cmd.retryExhausted
  kScsiSlowResponse,       ///< scsi.cmd.slowResponse
  kScsiSlowCompletion,     ///< scsi.cmd.slowCompletion (precursor)
  // Disk driver layer.
  kDiskIoMediumError,      ///< disk.ioMediumError (also a precursor)
  // RAID layer terminals (paper §2.5) — one per FailureType.
  kRaidDiskFailed,         ///< raid.config.disk.failed
  kRaidDiskMissing,        ///< raid.config.filesystem.disk.missing
  kRaidProtocolError,      ///< raid.disk.protocol.error
  kRaidTimeoutSlow,        ///< raid.disk.timeout.slow
  kUnknown,
};

inline constexpr std::size_t kEventCodeCount =
    static_cast<std::size_t>(EventCode::kUnknown);

/// The interned spelling of a code; "?" for kUnknown.
std::string_view code_name(EventCode code) noexcept;

/// Resolves a code spelling to its id; kUnknown when not in the table.
EventCode code_id(std::string_view name) noexcept;

/// Failure type of a RAID-layer terminal code; nullopt for every other id.
std::optional<model::FailureType> failure_type_of(EventCode code) noexcept;

/// The RAID-layer terminal code for a failure type. The RAID layer sits
/// directly above the storage subsystem, so these four codes are what the
/// analysis counts (paper §2.5).
EventCode raid_terminal_for(model::FailureType type) noexcept;

}  // namespace storsubsim::log
