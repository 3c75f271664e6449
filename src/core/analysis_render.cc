#include "core/analysis_render.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "core/afr.h"
#include "core/burstiness.h"
#include "core/correlation.h"
#include "core/lifetime.h"
#include "core/raid_vulnerability.h"
#include "core/report.h"
#include "model/time.h"

namespace storsubsim::core {

namespace {

std::string emit(const TextTable& table, bool csv) {
  return csv ? table.to_csv() : table.to_text();
}

void add_afr_row(TextTable& table, const AfrBreakdown& b) {
  table.add_row({b.label, fmt(b.afr_pct(model::FailureType::kDisk), 2),
                 fmt(b.afr_pct(model::FailureType::kPhysicalInterconnect), 2),
                 fmt(b.afr_pct(model::FailureType::kProtocol), 2),
                 fmt(b.afr_pct(model::FailureType::kPerformance), 2),
                 fmt(b.total_afr_pct(), 2), fmt(b.disk_years, 0)});
}

}  // namespace

std::string render_afr_total(const Source& source, bool csv) {
  TextTable table({"cohort", "disk", "interconnect", "protocol", "performance",
                   "total AFR", "disk-years"});
  add_afr_row(table, compute_afr(source, "all"));
  return emit(table, csv);
}

std::string render_afr_by_class(const Source& source, bool csv) {
  TextTable table({"class", "disk", "interconnect", "protocol", "performance",
                   "total AFR", "disk-years"});
  for (const auto& b : afr_by_class(source)) add_afr_row(table, b);
  return emit(table, csv);
}

std::string render_tbf(const Source& source, bool csv) {
  TextTable table({"scope", "series", "gaps", "within 10^3 s", "within 10^4 s",
                   "within 10^5 s"});
  for (const auto scope : {Scope::kShelf, Scope::kRaidGroup}) {
    const auto r = time_between_failures(source, scope);
    const char* scope_name = scope == Scope::kShelf ? "shelf" : "raid-group";
    for (std::size_t s = 0; s < kSeriesCount; ++s) {
      const std::string label =
          s == kOverallSeries ? "overall"
                              : std::string(model::to_string(model::kAllFailureTypes[s]));
      table.add_row({scope_name, label, std::to_string(r.gap_count(s)),
                     fmt_pct(r.fraction_within(s, 1e3), 1),
                     fmt_pct(r.fraction_within(s, 1e4), 1),
                     fmt_pct(r.fraction_within(s, 1e5), 1)});
    }
  }
  return emit(table, csv);
}

std::string render_correlation(const Source& source, bool csv) {
  TextTable table({"scope", "type", "windows", "P(1)", "P(2)", "theory P(2)", "factor"});
  for (const auto scope : {Scope::kShelf, Scope::kRaidGroup}) {
    const auto results = failure_correlation_all_types(source, scope);
    for (const auto& r : results) {
      table.add_row({scope == Scope::kShelf ? "shelf" : "raid-group",
                     std::string(model::to_string(r.type)),
                     std::to_string(r.windows_observed),
                     fmt(100.0 * r.empirical_p1(), 3) + "%",
                     fmt(100.0 * r.empirical_p2(), 3) + "%",
                     fmt(100.0 * r.theoretical_p2(), 4) + "%",
                     fmt(r.correlation_factor(), 1) + "x"});
    }
  }
  return emit(table, csv);
}

std::string render_lifetime(const Source& source, bool csv) {
  const auto report = disk_lifetime_report(source);
  TextTable summary({"disks", "disk failures", "censored", "survival 1y", "survival 2y",
                     "survival 3y", "median (days)"});
  const double median = report.survival.median();
  summary.add_row(
      {std::to_string(report.disks), std::to_string(report.failures),
       fmt_pct(report.censored_fraction, 1),
       fmt(report.survival.survival(model::from_years(1.0)), 4),
       fmt(report.survival.survival(model::from_years(2.0)), 4),
       fmt(report.survival.survival(model::from_years(3.0)), 4),
       std::isinf(median) ? std::string("beyond horizon")
                          : fmt(median / model::kSecondsPerDay, 1)});

  TextTable hazard(
      {"age band", "failures", "exposure (disk-years)", "hazard (%/disk-year)"});
  for (const auto& bin : report.hazard_by_age) {
    hazard.add_row({fmt(bin.age_lo / model::kSecondsPerDay, 0) + "-" +
                        fmt(bin.age_hi / model::kSecondsPerDay, 0) + " d",
                    std::to_string(bin.events), fmt(model::years(bin.exposure), 0),
                    fmt(100.0 * bin.rate() * model::kSecondsPerYear, 2)});
  }
  return emit(summary, csv) + emit(hazard, csv);
}

std::string render_vulnerability(const Source& source, bool csv) {
  TextTable table({"window", "mode", "double incidents", "independent model",
                   "underestimation", "RAID4 defeated", "RAID6 defeated"});
  for (const bool disk_only : {true, false}) {
    for (const double hours : {6.0, 24.0, 72.0}) {
      const auto r = raid_vulnerability(source, hours * 3600.0, disk_only);
      table.add_row({fmt(hours, 0) + "h", disk_only ? "disk-only" : "all-types",
                     std::to_string(r.double_failure_incidents),
                     fmt(r.expected_double_incidents_independent, 1),
                     fmt(r.underestimation_factor(), 1) + "x",
                     std::to_string(r.raid4_groups_defeated),
                     std::to_string(r.raid6_groups_defeated)});
    }
  }
  return emit(table, csv);
}

std::string render_events(const Source& source, bool csv) {
  std::vector<EventRow> rows;
  rows.reserve(source.event_records());
  source.for_each_event([&](const EventRow& e) { rows.push_back(e); });
  std::sort(rows.begin(), rows.end(), [](const EventRow& a, const EventRow& b) {
    return std::tie(a.time, a.disk, a.type) < std::tie(b.time, b.disk, b.type);
  });
  TextTable table({"time_s", "type", "disk", "system", "shelf", "raid_group", "disk_model",
                   "shelf_model", "class", "paths"});
  for (const EventRow& e : rows) {
    table.add_row({fmt(e.time, 3), std::string(model::to_string(e.type)),
                   std::to_string(e.disk), std::to_string(e.system), std::to_string(e.shelf),
                   e.raid_group != kNoScope ? std::to_string(e.raid_group) : "-",
                   model::to_string(e.disk_model), model::to_string(e.shelf_model),
                   std::string(model::to_string(e.cls)),
                   std::string(model::to_string(e.paths))});
  }
  return emit(table, csv);
}

std::string render_query_result(const store::QueryResult& result, bool csv) {
  TextTable table({"group", "disk", "interconnect", "protocol", "performance", "events",
                   "disk-years", "AFR %"});
  for (const auto& g : result.groups) {
    table.add_row(
        {g.label, std::to_string(g.events_by_type[0]), std::to_string(g.events_by_type[1]),
         std::to_string(g.events_by_type[2]), std::to_string(g.events_by_type[3]),
         std::to_string(g.events),
         g.disk_years > 0.0 ? fmt(g.disk_years, 0) : std::string("-"),
         g.disk_years > 0.0 ? fmt(g.afr_pct, 2) : std::string("-")});
  }
  return emit(table, csv);
}

}  // namespace storsubsim::core
