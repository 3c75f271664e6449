#include "model/disk_model.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace storsubsim::model {

std::string to_string(const DiskModelName& name) {
  return std::string(1, name.family) + "-" + std::to_string(name.capacity_index);
}

std::optional<DiskModelName> parse_disk_model_name(std::string_view s) {
  if (s.size() < 3 || s[1] != '-') return std::nullopt;
  const char family = s[0];
  if (family < 'A' || family > 'Z') return std::nullopt;
  int index = 0;
  const auto [ptr, ec] = std::from_chars(s.data() + 2, s.data() + s.size(), index);
  if (ec != std::errc{} || ptr != s.data() + s.size() || index <= 0) return std::nullopt;
  return DiskModelName{family, index};
}

DiskModelRegistry::DiskModelRegistry(std::vector<DiskModelInfo> models)
    : models_(std::move(models)) {
  std::sort(models_.begin(), models_.end(),
            [](const DiskModelInfo& a, const DiskModelInfo& b) { return a.name < b.name; });
  for (std::size_t i = 1; i < models_.size(); ++i) {
    if (models_[i].name == models_[i - 1].name) {
      throw std::invalid_argument("DiskModelRegistry: duplicate model " +
                                  to_string(models_[i].name));
    }
  }
}

const DiskModelInfo* DiskModelRegistry::find(const DiskModelName& name) const {
  const auto it = std::lower_bound(
      models_.begin(), models_.end(), name,
      [](const DiskModelInfo& info, const DiskModelName& n) { return info.name < n; });
  if (it == models_.end() || !(it->name == name)) return nullptr;
  return &*it;
}

const DiskModelInfo& DiskModelRegistry::at(const DiskModelName& name) const {
  const DiskModelInfo* info = find(name);
  if (info == nullptr) {
    throw std::out_of_range("DiskModelRegistry: unknown model " + to_string(name));
  }
  return *info;
}

const DiskModelRegistry& DiskModelRegistry::standard() {
  // Calibration notes:
  //  * FC disk AFRs sit in the 0.6-0.9% band the paper reports ("consistently
  //    below 1%, as published by manufacturers"), SATA families around 1.7-2.1%
  //    so the near-line aggregate lands at ~1.9% (Finding 2).
  //  * Family H is the problematic family: elevated disk AFR plus protocol /
  //    performance hazard coupling, driving subsystem AFR to ~2x the 2-4%
  //    norm (Finding 3, Figure 5).
  //  * Within a family, capacity index orders capacity but NOT failure rate
  //    (Finding 5: no AFR growth with disk size; D-2 is in fact better than
  //    D-1 in Figure 5(e)).
  static const DiskModelRegistry registry{std::vector<DiskModelInfo>{
      // FC enterprise families.
      {{'A', 1}, DiskType::kFc, 72, 0.92, 1.0, 1.0},
      {{'A', 2}, DiskType::kFc, 144, 0.90, 1.0, 1.0},
      {{'A', 3}, DiskType::kFc, 300, 0.88, 1.0, 1.0},
      {{'B', 1}, DiskType::kFc, 72, 0.92, 1.0, 1.0},
      {{'C', 1}, DiskType::kFc, 72, 0.85, 1.0, 1.0},
      {{'C', 2}, DiskType::kFc, 144, 0.82, 1.0, 1.0},
      {{'D', 1}, DiskType::kFc, 72, 0.95, 1.0, 1.0},
      {{'D', 2}, DiskType::kFc, 144, 0.85, 1.0, 1.0},
      {{'D', 3}, DiskType::kFc, 300, 0.88, 1.0, 1.0},
      {{'E', 1}, DiskType::kFc, 144, 0.87, 1.0, 1.0},
      {{'F', 1}, DiskType::kFc, 144, 0.83, 1.0, 1.0},
      {{'F', 2}, DiskType::kFc, 300, 0.80, 1.0, 1.0},
      {{'G', 1}, DiskType::kFc, 144, 0.90, 1.0, 1.0},
      // Problematic family H: high intrinsic failure rate and cross-coupling
      // into protocol and performance failures.
      {{'H', 1}, DiskType::kFc, 144, 1.90, 2.4, 2.8},
      {{'H', 2}, DiskType::kFc, 300, 2.30, 2.8, 3.2},
      // SATA near-line families.
      {{'I', 1}, DiskType::kSata, 250, 1.75, 1.0, 1.0},
      {{'I', 2}, DiskType::kSata, 500, 1.70, 1.0, 1.0},
      {{'J', 1}, DiskType::kSata, 250, 2.05, 1.0, 1.0},
      {{'J', 2}, DiskType::kSata, 320, 1.95, 1.0, 1.0},
      {{'K', 1}, DiskType::kSata, 400, 1.85, 1.0, 1.0},
  }};
  return registry;
}

}  // namespace storsubsim::model
