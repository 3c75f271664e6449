#include "core/significance.h"

#include <cmath>
#include <stdexcept>

#include "stats/special_functions.h"

namespace storsubsim::core {

namespace {

stats::TTestResult rate_comparison_test(std::size_t events_a, double exposure_a_years,
                                        std::size_t events_b, double exposure_b_years) {
  if (!(exposure_a_years > 0.0) || !(exposure_b_years > 0.0)) {
    throw std::invalid_argument("rate_comparison_test: exposure must be positive");
  }
  const double ka = static_cast<double>(events_a);
  const double kb = static_cast<double>(events_b);
  const double ra = ka / exposure_a_years;
  const double rb = kb / exposure_b_years;
  stats::TTestResult r;
  r.mean_a = ra;
  r.mean_b = rb;
  r.difference = ra - rb;
  // Var(k/E) = k/E^2 under Poisson.
  const double se = std::sqrt(ka / (exposure_a_years * exposure_a_years) +
                              kb / (exposure_b_years * exposure_b_years));
  if (se == 0.0) {
    r.t_statistic = 0.0;
    r.degrees_of_freedom = ka + kb;
    r.p_value_two_sided = (ra == rb) ? 1.0 : 0.0;
    return r;
  }
  r.t_statistic = (ra - rb) / se;
  r.degrees_of_freedom = ka + kb;  // informational; normal tail is used
  r.p_value_two_sided = 2.0 * (1.0 - stats::normal_cdf(std::fabs(r.t_statistic)));
  return r;
}

}  // namespace

double CohortComparison::focus_reduction() const {
  const double afr_a = a.afr_pct(focus);
  if (afr_a <= 0.0) return 0.0;
  return (afr_a - b.afr_pct(focus)) / afr_a;
}

double CohortComparison::total_reduction() const {
  const double afr_a = a.total_afr_pct();
  if (afr_a <= 0.0) return 0.0;
  return (afr_a - b.total_afr_pct()) / afr_a;
}

CohortComparison compare_cohorts(const Source& cohort_a, std::string label_a,
                                 const Source& cohort_b, std::string label_b,
                                 model::FailureType focus, double ci_confidence) {
  CohortComparison cmp;
  cmp.a = compute_afr(cohort_a, std::move(label_a));
  cmp.b = compute_afr(cohort_b, std::move(label_b));
  cmp.focus = focus;
  cmp.focus_test =
      rate_comparison_test(cmp.a.events[model::index_of(focus)], cmp.a.disk_years,
                           cmp.b.events[model::index_of(focus)], cmp.b.disk_years);
  cmp.focus_ci_a = cmp.a.afr_ci(focus, ci_confidence);
  cmp.focus_ci_b = cmp.b.afr_ci(focus, ci_confidence);
  return cmp;
}

}  // namespace storsubsim::core
