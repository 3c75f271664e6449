// Disk family/model registry.
//
// The paper anonymizes disk products as family letters (A..K) with a capacity
// index within the family ("Disk A-2"); families A..H are FC enterprise
// disks, I..K are SATA near-line disks, and family H is the known-problematic
// family reported in the latent-sector-error study (paper Section 4.1).
//
// Each model carries the calibrated per-component hazard parameters used by
// the simulator. Rates are expressed as annualized failure rates in percent
// per disk-year, matching the units of the paper's figures.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/enums.h"

namespace storsubsim::model {

/// Identifies a disk model as family letter + capacity index, e.g. {'A', 2}.
struct DiskModelName {
  char family = '?';
  int capacity_index = 0;

  friend bool operator==(const DiskModelName&, const DiskModelName&) = default;
  friend auto operator<=>(const DiskModelName&, const DiskModelName&) = default;
};

/// Renders "A-2" style names; parses them back.
std::string to_string(const DiskModelName& name);
std::optional<DiskModelName> parse_disk_model_name(std::string_view s);

/// Static attributes and calibrated hazard parameters of one disk model.
struct DiskModelInfo {
  DiskModelName name;
  DiskType type = DiskType::kFc;
  /// Nominal capacity in GB; within a family, capacity grows with the index.
  std::uint32_t capacity_gb = 0;
  /// Calibrated annualized disk-failure rate, percent per disk-year.
  double disk_afr_pct = 1.0;
  /// Multiplier applied to the host system's protocol-failure hazard.
  /// > 1 for problematic families whose failures tickle corner-case driver
  /// bugs (paper Finding 3 observed this coupling for family H).
  double protocol_hazard_multiplier = 1.0;
  /// Multiplier applied to the host system's performance-failure hazard.
  double performance_hazard_multiplier = 1.0;
};

/// Immutable registry of the 20 disk models used across the studied fleet.
class DiskModelRegistry {
 public:
  /// Builds the calibrated default registry matching the paper's fleet.
  static const DiskModelRegistry& standard();

  /// Builds a registry from explicit entries (for tests and what-if studies).
  explicit DiskModelRegistry(std::vector<DiskModelInfo> models);

  const DiskModelInfo* find(const DiskModelName& name) const;
  const DiskModelInfo& at(const DiskModelName& name) const;
  std::span<const DiskModelInfo> all() const { return models_; }
  std::size_t size() const { return models_.size(); }

 private:
  std::vector<DiskModelInfo> models_;
};

}  // namespace storsubsim::model
