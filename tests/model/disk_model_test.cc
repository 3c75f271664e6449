// Disk model registry: naming, lookup, and the calibration invariants the
// paper's findings rely on.
#include "model/disk_model.h"

#include <gtest/gtest.h>

namespace model = storsubsim::model;

TEST(DiskModelName, Rendering) {
  EXPECT_EQ(model::to_string(model::DiskModelName{'A', 2}), "A-2");
  EXPECT_EQ(model::to_string(model::DiskModelName{'K', 1}), "K-1");
}

TEST(DiskModelName, Parsing) {
  const auto parsed = model::parse_disk_model_name("H-2");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->family, 'H');
  EXPECT_EQ(parsed->capacity_index, 2);

  EXPECT_FALSE(model::parse_disk_model_name("").has_value());
  EXPECT_FALSE(model::parse_disk_model_name("A2").has_value());
  EXPECT_FALSE(model::parse_disk_model_name("a-2").has_value());
  EXPECT_FALSE(model::parse_disk_model_name("A-0").has_value());
  EXPECT_FALSE(model::parse_disk_model_name("A--1").has_value());
  EXPECT_FALSE(model::parse_disk_model_name("A-2x").has_value());
}

TEST(DiskModelRegistry, StandardHasTwentyModels) {
  const auto& reg = model::DiskModelRegistry::standard();
  EXPECT_EQ(reg.size(), 20u);
}

TEST(DiskModelRegistry, LookupAndMissing) {
  const auto& reg = model::DiskModelRegistry::standard();
  const auto* a2 = reg.find({'A', 2});
  ASSERT_NE(a2, nullptr);
  EXPECT_EQ(a2->type, model::DiskType::kFc);
  EXPECT_EQ(reg.find({'Z', 1}), nullptr);
  EXPECT_THROW(reg.at({'Z', 1}), std::out_of_range);
}

TEST(DiskModelRegistry, SataFamiliesAreNearLine) {
  const auto& reg = model::DiskModelRegistry::standard();
  std::size_t sata = 0, fc = 0;
  for (const auto& info : reg.all()) {
    if (info.type == model::DiskType::kFc) {
      ++fc;
      continue;
    }
    ++sata;
    EXPECT_TRUE(info.name.family == 'I' || info.name.family == 'J' || info.name.family == 'K')
        << model::to_string(info.name);
  }
  EXPECT_EQ(sata, 5u);
  EXPECT_EQ(fc, 15u);
}

TEST(DiskModelRegistry, FcBelowOnePercentSataAboveExceptH) {
  // Paper: "for FC drives, the disk failure rate is consistently below 1%";
  // SATA near-line disks sit near 1.9%; family H is the problematic outlier.
  const auto& reg = model::DiskModelRegistry::standard();
  for (const auto& info : reg.all()) {
    if (info.name.family == 'H') {
      EXPECT_GT(info.disk_afr_pct, 1.5) << model::to_string(info.name);
      EXPECT_GT(info.protocol_hazard_multiplier, 1.5);
      EXPECT_GT(info.performance_hazard_multiplier, 1.5);
    } else if (info.type == model::DiskType::kFc) {
      EXPECT_LT(info.disk_afr_pct, 1.0) << model::to_string(info.name);
    } else {
      EXPECT_GT(info.disk_afr_pct, 1.5) << model::to_string(info.name);
      EXPECT_LT(info.disk_afr_pct, 2.2) << model::to_string(info.name);
    }
  }
}

TEST(DiskModelRegistry, CapacityGrowsWithIndexButAfrDoesNot) {
  // Finding 5: AFR does not increase with disk size. Verify within families
  // that have multiple capacity points: larger capacity, not larger AFR by
  // any systematic margin (D-2 is in fact better than D-1).
  const auto& reg = model::DiskModelRegistry::standard();
  const auto& d1 = reg.at({'D', 1});
  const auto& d2 = reg.at({'D', 2});
  const auto& d3 = reg.at({'D', 3});
  EXPECT_LT(d1.capacity_gb, d2.capacity_gb);
  EXPECT_LT(d2.capacity_gb, d3.capacity_gb);
  EXPECT_LT(d2.disk_afr_pct, d1.disk_afr_pct);
  EXPECT_LT(d3.disk_afr_pct, d1.disk_afr_pct);
}

TEST(DiskModelRegistry, RejectsDuplicates) {
  std::vector<model::DiskModelInfo> dup(2);
  dup[0].name = {'X', 1};
  dup[1].name = {'X', 1};
  EXPECT_THROW(model::DiskModelRegistry{dup}, std::invalid_argument);
}

TEST(DiskModelRegistry, CustomRegistryLookup) {
  std::vector<model::DiskModelInfo> models(2);
  models[0].name = {'X', 1};
  models[0].disk_afr_pct = 0.5;
  models[1].name = {'Y', 1};
  models[1].disk_afr_pct = 1.5;
  const model::DiskModelRegistry reg{models};
  EXPECT_DOUBLE_EQ(reg.at({'Y', 1}).disk_afr_pct, 1.5);
}
