#include "core/raid_model.h"

#include <cmath>
#include <stdexcept>

namespace storsubsim::core {

namespace {

constexpr double kHoursPerYear = 8766.0;

void validate(const RaidGroupModel& model, std::size_t min_disks) {
  if (model.disks < min_disks) {
    throw std::invalid_argument("RaidGroupModel: too few disks for the RAID level");
  }
  if (!(model.disk_afr_fraction > 0.0) || !(model.disk_afr_fraction < 1.0)) {
    throw std::invalid_argument("RaidGroupModel: disk AFR must be in (0,1)");
  }
  if (!(model.repair_hours > 0.0)) {
    throw std::invalid_argument("RaidGroupModel: repair time must be positive");
  }
}

/// Per-disk failure rate in 1/hour from the annualized failure fraction.
double lambda_per_hour(const RaidGroupModel& model) {
  // AFR = 1 - exp(-lambda * 1yr)  =>  lambda = -ln(1 - AFR) / 8766h.
  return -std::log(1.0 - model.disk_afr_fraction) / kHoursPerYear;
}

double mttdl_single_parity_hours(const RaidGroupModel& model) {
  validate(model, 2);
  const double lambda = lambda_per_hour(model);
  const double mu = 1.0 / model.repair_hours;
  const double n = static_cast<double>(model.disks);
  return mu / (n * (n - 1.0) * lambda * lambda);
}

double mttdl_double_parity_hours(const RaidGroupModel& model) {
  validate(model, 3);
  const double lambda = lambda_per_hour(model);
  const double mu = 1.0 / model.repair_hours;
  const double n = static_cast<double>(model.disks);
  return mu * mu / (n * (n - 1.0) * (n - 2.0) * lambda * lambda * lambda);
}

}  // namespace

double defeat_probability_single_parity(const RaidGroupModel& model, double years) {
  return -std::expm1(-years * kHoursPerYear / mttdl_single_parity_hours(model));
}

double defeat_probability_double_parity(const RaidGroupModel& model, double years) {
  return -std::expm1(-years * kHoursPerYear / mttdl_double_parity_hours(model));
}

}  // namespace storsubsim::core
