// Fleet configuration: calibration to Table 1, validation errors, scaling.
#include "model/fleet_config.h"

#include <gtest/gtest.h>

namespace model = storsubsim::model;

TEST(StandardFleetConfig, CalibratedToTable1) {
  const auto config = model::standard_fleet_config();
  // Six cohorts: the paper's Figure 5 class x shelf-model combinations.
  EXPECT_EQ(config.cohorts.size(), 6u);

  std::size_t by_class[4] = {0, 0, 0, 0};
  for (const auto& c : config.cohorts) {
    by_class[model::index_of(c.cls)] += config.scaled_systems(c);
  }
  // Table 1 populations.
  EXPECT_EQ(by_class[model::index_of(model::SystemClass::kNearLine)], 4927u);
  EXPECT_EQ(by_class[model::index_of(model::SystemClass::kLowEnd)], 22031u);
  EXPECT_EQ(by_class[model::index_of(model::SystemClass::kMidRange)], 7154u);
  EXPECT_EQ(by_class[model::index_of(model::SystemClass::kHighEnd)], 5003u);
  EXPECT_EQ(config.total_systems(), 39115u);

  // 44-month horizon.
  EXPECT_NEAR(config.horizon_seconds, 44.0 * model::kSecondsPerMonth, 1.0);
}

TEST(StandardFleetConfig, NearLineUsesSataOthersFc) {
  const auto config = model::standard_fleet_config();
  const auto& disks = model::DiskModelRegistry::standard();
  for (const auto& cohort : config.cohorts) {
    for (const auto& entry : cohort.disk_mix) {
      const auto& info = disks.at(entry.model);
      if (cohort.cls == model::SystemClass::kNearLine) {
        EXPECT_EQ(info.type, model::DiskType::kSata) << cohort.label;
      } else {
        EXPECT_EQ(info.type, model::DiskType::kFc) << cohort.label;
      }
    }
  }
}

TEST(StandardFleetConfig, MultipathOnlyOnMidAndHighEnd) {
  const auto config = model::standard_fleet_config();
  for (const auto& cohort : config.cohorts) {
    if (cohort.cls == model::SystemClass::kMidRange ||
        cohort.cls == model::SystemClass::kHighEnd) {
      EXPECT_NEAR(cohort.dual_path_fraction, 1.0 / 3.0, 1e-9) << cohort.label;
    } else {
      EXPECT_DOUBLE_EQ(cohort.dual_path_fraction, 0.0) << cohort.label;
    }
  }
}

TEST(StandardFleetConfig, ScaleAppliesToSystems) {
  const auto full = model::standard_fleet_config(1.0);
  const auto tenth = model::standard_fleet_config(0.1);
  EXPECT_NEAR(static_cast<double>(tenth.total_systems()),
              0.1 * static_cast<double>(full.total_systems()),
              static_cast<double>(full.cohorts.size()));
}

TEST(Validate, RejectsBrokenConfigs) {
  auto base = model::standard_fleet_config(0.01);

  auto broken = base;
  broken.cohorts.clear();
  EXPECT_THROW(model::validate(broken), std::invalid_argument);

  broken = base;
  broken.cohorts[0].disk_mix.clear();
  EXPECT_THROW(model::validate(broken), std::invalid_argument);

  broken = base;
  broken.cohorts[0].disk_mix[0].model = {'Z', 9};  // unknown model
  EXPECT_THROW(model::validate(broken), std::invalid_argument);

  broken = base;
  broken.cohorts[0].shelf_model = {'Q'};  // unknown shelf
  EXPECT_THROW(model::validate(broken), std::invalid_argument);

  broken = base;
  broken.cohorts[0].mean_disks_per_shelf = 15.0;  // > 14 slots
  EXPECT_THROW(model::validate(broken), std::invalid_argument);

  broken = base;
  broken.cohorts[0].raid_group_size = 1;
  EXPECT_THROW(model::validate(broken), std::invalid_argument);

  broken = base;
  broken.cohorts[0].dual_path_fraction = 1.5;
  EXPECT_THROW(model::validate(broken), std::invalid_argument);

  broken = base;
  broken.scale = 0.0;
  EXPECT_THROW(model::validate(broken), std::invalid_argument);

  broken = base;
  broken.horizon_seconds = -1.0;
  EXPECT_THROW(model::validate(broken), std::invalid_argument);

  broken = base;
  broken.deploy_window_fraction = 1.5;
  EXPECT_THROW(model::validate(broken), std::invalid_argument);

  broken = base;
  broken.deploy_skew = 0.0;
  EXPECT_THROW(model::validate(broken), std::invalid_argument);
}

TEST(SingleCohortConfig, Valid) {
  model::CohortSpec cohort;
  cohort.label = "test";
  cohort.disk_mix = {{{'A', 2}, 1.0}};
  cohort.num_systems = 10;
  model::FleetConfig config;
  config.cohorts = {cohort};
  config.horizon_seconds = model::from_years(1.0);
  config.seed = 7;
  EXPECT_NO_THROW(model::validate(config));
}
