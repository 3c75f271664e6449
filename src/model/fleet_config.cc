#include "model/fleet_config.h"

#include <cmath>
#include <stdexcept>

namespace storsubsim::model {

std::size_t FleetConfig::scaled_systems(const CohortSpec& cohort) const {
  const double n = std::max(1.0, std::round(static_cast<double>(cohort.num_systems) * scale));
  return static_cast<std::size_t>(n);
}

std::size_t FleetConfig::total_systems() const {
  std::size_t total = 0;
  for (const auto& c : cohorts) total += scaled_systems(c);
  return total;
}

void validate(const FleetConfig& config) {
  if (config.cohorts.empty()) throw std::invalid_argument("FleetConfig: no cohorts");
  if (!(config.horizon_seconds > 0.0)) {
    throw std::invalid_argument("FleetConfig: horizon must be positive");
  }
  if (!(config.scale > 0.0)) throw std::invalid_argument("FleetConfig: scale must be positive");
  if (config.deploy_window_fraction < 0.0 || config.deploy_window_fraction > 1.0) {
    throw std::invalid_argument("FleetConfig: deploy window fraction must be in [0, 1]");
  }
  if (!(config.deploy_skew > 0.0)) {
    throw std::invalid_argument("FleetConfig: deploy skew must be positive");
  }
  const auto& disks = DiskModelRegistry::standard();
  const auto& shelves = ShelfModelRegistry::standard();
  for (const auto& c : config.cohorts) {
    if (c.disk_mix.empty()) {
      throw std::invalid_argument("FleetConfig: cohort '" + c.label + "' has empty disk mix");
    }
    double weight = 0.0;
    for (const auto& entry : c.disk_mix) {
      if (disks.find(entry.model) == nullptr) {
        throw std::invalid_argument("FleetConfig: cohort '" + c.label +
                                    "' references unknown disk model " +
                                    to_string(entry.model));
      }
      if (!(entry.weight >= 0.0)) {
        throw std::invalid_argument("FleetConfig: negative disk mix weight in '" + c.label +
                                    "'");
      }
      weight += entry.weight;
    }
    if (!(weight > 0.0)) {
      throw std::invalid_argument("FleetConfig: zero total mix weight in '" + c.label + "'");
    }
    if (shelves.find(c.shelf_model) == nullptr) {
      throw std::invalid_argument("FleetConfig: cohort '" + c.label +
                                  "' references unknown shelf model " +
                                  to_string(c.shelf_model));
    }
    if (c.num_systems == 0) {
      throw std::invalid_argument("FleetConfig: cohort '" + c.label + "' has zero systems");
    }
    if (!(c.mean_shelves_per_system >= 1.0)) {
      throw std::invalid_argument("FleetConfig: cohort '" + c.label +
                                  "' needs >= 1 shelf per system");
    }
    if (!(c.mean_disks_per_shelf > 0.0) ||
        c.mean_disks_per_shelf > static_cast<double>(kShelfSlots)) {
      throw std::invalid_argument("FleetConfig: cohort '" + c.label +
                                  "' disks per shelf must be in (0, 14]");
    }
    if (c.raid_group_size < 2) {
      throw std::invalid_argument("FleetConfig: cohort '" + c.label +
                                  "' RAID groups need >= 2 disks");
    }
    if (c.raid_span_shelves == 0) {
      throw std::invalid_argument("FleetConfig: cohort '" + c.label +
                                  "' RAID span must be >= 1 shelf");
    }
    if (c.raid6_fraction < 0.0 || c.raid6_fraction > 1.0 || c.dual_path_fraction < 0.0 ||
        c.dual_path_fraction > 1.0) {
      throw std::invalid_argument("FleetConfig: cohort '" + c.label +
                                  "' fractions must be in [0, 1]");
    }
  }
}

FleetConfig standard_fleet_config(double scale, std::uint64_t seed) {
  // Populations and structure ratios from Table 1 of the paper:
  //   near-line: 4,927 systems / 33,681 shelves / 520,776 SATA disks
  //   low-end:  22,031 systems / 37,260 shelves / 264,983 FC disks
  //   mid-range: 7,154 systems / 52,621 shelves / 578,980 FC disks
  //   high-end:  5,003 systems / 33,428 shelves / 454,684 FC disks
  // Disk-model-per-cohort sets follow Figure 5(a)-(f); about 1/3 of
  // mid-range and high-end systems run dual paths (Section 4.3).
  FleetConfig config;
  config.scale = scale;
  config.seed = seed;

  CohortSpec nearline;
  nearline.label = "near-line/shelf-C";
  nearline.cls = SystemClass::kNearLine;
  nearline.shelf_model = ShelfModelName{'C'};
  nearline.disk_mix = {{{'I', 1}, 0.25}, {{'J', 1}, 0.22}, {{'J', 2}, 0.20},
                       {{'K', 1}, 0.18}, {{'I', 2}, 0.15}};
  nearline.num_systems = 4927;
  nearline.mean_shelves_per_system = 6.84;
  nearline.mean_disks_per_shelf = 14.0;  // backup shelves run fully populated
  nearline.raid_group_size = 8;
  nearline.raid6_fraction = 0.35;
  nearline.raid_span_shelves = 3;
  nearline.dual_path_fraction = 0.0;
  config.cohorts.push_back(nearline);

  CohortSpec lowend_a;
  lowend_a.label = "low-end/shelf-A";
  lowend_a.cls = SystemClass::kLowEnd;
  lowend_a.shelf_model = ShelfModelName{'A'};
  lowend_a.disk_mix = {{{'A', 2}, 0.26}, {{'A', 3}, 0.22}, {{'D', 2}, 0.22},
                       {{'D', 3}, 0.18}, {{'H', 2}, 0.12}};
  lowend_a.num_systems = 11000;
  lowend_a.mean_shelves_per_system = 1.69;
  lowend_a.mean_disks_per_shelf = 7.1;
  lowend_a.raid_group_size = 6;
  lowend_a.raid6_fraction = 0.30;
  lowend_a.raid_span_shelves = 2;
  lowend_a.dual_path_fraction = 0.0;
  config.cohorts.push_back(lowend_a);

  CohortSpec lowend_b = lowend_a;
  lowend_b.label = "low-end/shelf-B";
  lowend_b.shelf_model = ShelfModelName{'B'};
  lowend_b.num_systems = 11031;
  config.cohorts.push_back(lowend_b);

  CohortSpec mid_c;
  mid_c.label = "mid-range/shelf-C";
  mid_c.cls = SystemClass::kMidRange;
  mid_c.shelf_model = ShelfModelName{'C'};
  mid_c.disk_mix = {{{'B', 1}, 0.30}, {{'C', 1}, 0.30}, {{'G', 1}, 0.26}, {{'H', 1}, 0.14}};
  mid_c.num_systems = 2000;
  mid_c.mean_shelves_per_system = 7.36;
  mid_c.mean_disks_per_shelf = 11.0;
  mid_c.raid_group_size = 8;
  mid_c.raid6_fraction = 0.30;
  mid_c.raid_span_shelves = 3;
  mid_c.dual_path_fraction = 1.0 / 3.0;
  config.cohorts.push_back(mid_c);

  CohortSpec mid_b;
  mid_b.label = "mid-range/shelf-B";
  mid_b.cls = SystemClass::kMidRange;
  mid_b.shelf_model = ShelfModelName{'B'};
  mid_b.disk_mix = {{{'A', 1}, 0.09}, {{'A', 2}, 0.13}, {{'C', 1}, 0.10}, {{'C', 2}, 0.12},
                    {{'D', 1}, 0.08}, {{'D', 2}, 0.13}, {{'D', 3}, 0.11}, {{'E', 1}, 0.10},
                    {{'H', 1}, 0.07}, {{'H', 2}, 0.07}};
  mid_b.num_systems = 5154;
  mid_b.mean_shelves_per_system = 7.36;
  mid_b.mean_disks_per_shelf = 11.0;
  mid_b.raid_group_size = 8;
  mid_b.raid6_fraction = 0.30;
  mid_b.raid_span_shelves = 3;
  mid_b.dual_path_fraction = 1.0 / 3.0;
  config.cohorts.push_back(mid_b);

  CohortSpec high_b;
  high_b.label = "high-end/shelf-B";
  high_b.cls = SystemClass::kHighEnd;
  high_b.shelf_model = ShelfModelName{'B'};
  high_b.disk_mix = {{{'A', 2}, 0.11}, {{'A', 3}, 0.12}, {{'C', 2}, 0.11}, {{'D', 2}, 0.12},
                     {{'D', 3}, 0.11}, {{'E', 1}, 0.10}, {{'F', 1}, 0.10}, {{'F', 2}, 0.09},
                     {{'H', 1}, 0.07}, {{'H', 2}, 0.07}};
  high_b.num_systems = 5003;
  high_b.mean_shelves_per_system = 6.68;
  high_b.mean_disks_per_shelf = 13.6;
  high_b.raid_group_size = 9;
  high_b.raid6_fraction = 0.30;
  high_b.raid_span_shelves = 3;
  high_b.dual_path_fraction = 1.0 / 3.0;
  config.cohorts.push_back(high_b);

  validate(config);
  return config;
}

}  // namespace storsubsim::model
