// Enumerations mirroring the paper's taxonomy (Section 2.2):
// system classes, disk/RAID types, failure types, path configurations.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace storsubsim::model {

/// Capability/usage tier of a storage system (paper Table 1).
enum class SystemClass : std::uint8_t { kNearLine, kLowEnd, kMidRange, kHighEnd };

inline constexpr std::array<SystemClass, 4> kAllSystemClasses = {
    SystemClass::kNearLine, SystemClass::kLowEnd, SystemClass::kMidRange,
    SystemClass::kHighEnd};

/// Disk interface technology. Near-line systems use SATA, primary systems FC.
enum class DiskType : std::uint8_t { kSata, kFc };

/// RAID resiliency level of a group.
enum class RaidType : std::uint8_t { kRaid4, kRaid6 };

/// The paper's four storage subsystem failure categories (Section 2.3).
enum class FailureType : std::uint8_t {
  kDisk,                  ///< internal disk mechanisms / proactive fail-out
  kPhysicalInterconnect,  ///< HBA, cable, shelf power/backplane, FC driver
  kProtocol,              ///< driver/firmware incompatibility, software bugs
  kPerformance,           ///< timely-service failure with no other cause found
};

inline constexpr std::array<FailureType, 4> kAllFailureTypes = {
    FailureType::kDisk, FailureType::kPhysicalInterconnect, FailureType::kProtocol,
    FailureType::kPerformance};

/// Network redundancy configuration (Section 4.3 multipathing).
enum class PathConfig : std::uint8_t { kSinglePath, kDualPath };

std::string_view to_string(SystemClass c);
std::string_view to_string(DiskType t);
std::string_view to_string(RaidType t);
std::string_view to_string(FailureType t);
std::string_view to_string(PathConfig p);

std::optional<SystemClass> parse_system_class(std::string_view s);
std::optional<RaidType> parse_raid_type(std::string_view s);
std::optional<FailureType> parse_failure_type(std::string_view s);
std::optional<PathConfig> parse_path_config(std::string_view s);

constexpr std::size_t index_of(FailureType t) { return static_cast<std::size_t>(t); }
constexpr std::size_t index_of(SystemClass c) { return static_cast<std::size_t>(c); }

}  // namespace storsubsim::model
