#include "store/query.h"

#include <map>

#include "obs/obs.h"
#include "store/decode.h"

namespace storsubsim::store {

namespace {

/// The header spells kWords without decode.h; pin it to the kernel layer's
/// own arithmetic.
static_assert(ScanScratch::kWords == bitmap_words(kBlockRows));

using GroupCounts = QueryGroupCounts;

/// Disk-year denominator of a (class?, family?) cohort, from the exposure
/// table. Missing combinations (no such cohort in the fleet) yield 0.
double cohort_disk_years(const ExposureTable& exposure,
                         std::optional<std::size_t> cls, std::optional<char> family) {
  if (cls.has_value() && family.has_value()) {
    const auto it = exposure.class_family_disk_years.find(
        {static_cast<std::uint8_t>(*cls), *family});
    return it == exposure.class_family_disk_years.end() ? 0.0 : it->second;
  }
  if (cls.has_value()) return exposure.class_disk_years[*cls];
  if (family.has_value()) {
    const auto it = exposure.family_disk_years.find(*family);
    return it == exposure.family_disk_years.end() ? 0.0 : it->second;
  }
  return exposure.total_disk_years;
}

QueryGroup finalize(std::string label, const GroupCounts& counts, double disk_years,
                    bool rates_defined) {
  QueryGroup g;
  g.label = std::move(label);
  g.events_by_type = counts.events_by_type;
  g.events = counts.events;
  if (rates_defined && disk_years > 0.0) {
    g.disk_years = disk_years;
    g.afr_pct = 100.0 * static_cast<double>(counts.events) / disk_years;
  }
  return g;
}

/// The block-pruned scan of one store: prune via the time-window index,
/// build the block's selection bitmap with the decode.h predicate kernels,
/// then aggregate group counts straight from bitmap popcounts — no row is
/// ever materialized.
void scan_store(const EventStore& store, const Query& query, QueryAccumulators& acc,
                QueryStats& stats, ScanScratch& scratch) {
  const bool have_begin = query.time_begin.has_value();
  const bool have_end = query.time_end.has_value();
  const double time_begin = have_begin ? *query.time_begin : 0.0;
  const double time_end = have_end ? *query.time_end : 0.0;
  const std::uint8_t type_values[kFailureTypeCount] = {0, 1, 2, 3};
  // Family group-by candidates: exposure-table families are the only groups
  // emit_groups ever reports, and every legitimately written event family
  // appears there (events reference inventory disks). A hostile family byte
  // outside the table was never emitted by the row loop either.
  const auto& family_years = store.exposure().family_disk_years;

  for (const auto cls : model::kAllSystemClasses) {
    if (query.system_class.has_value() && *query.system_class != cls) continue;
    const EventView& view = store.events(cls);
    GroupCounts& class_group = acc.by_class[model::index_of(cls)];

    for (const auto& block : store.blocks(cls)) {
      if ((have_begin && block.time_max < time_begin) ||
          (have_end && block.time_min >= time_end)) {
        ++stats.blocks_pruned;
        continue;
      }
      ++stats.blocks_scanned;
      stats.rows_scanned += block.rows;

      const std::size_t begin = static_cast<std::size_t>(block.row_begin);
      const std::size_t rows = static_cast<std::size_t>(block.rows);
      const std::size_t words = bitmap_words(rows);
      std::uint64_t* select = scratch.select.data();
      std::uint64_t* mask = scratch.mask.data();

      if (have_begin || have_end) {
        bitmap_time_window(view.time.data() + begin, rows, have_begin, time_begin,
                           have_end, time_end, select);
      } else {
        bitmap_fill(select, rows);
      }
      if (query.failure_type.has_value()) {
        bitmap_eq_u8(view.type.data() + begin, rows,
                     static_cast<std::uint8_t>(*query.failure_type), mask);
        bitmap_and(select, mask, words);
      }
      if (query.disk_family.has_value()) {
        bitmap_eq_u8(view.family.data() + begin, rows,
                     static_cast<std::uint8_t>(*query.disk_family), mask);
        bitmap_and(select, mask, words);
      }

      // One pass over the type column yields all four per-type masks; the
      // masks partition the block (open() validated type < kFailureTypeCount),
      // so the per-type popcounts sum to the block's match count.
      bitmap_eq4_u8(view.type.data() + begin, rows, type_values,
                    scratch.type_masks[0].data(), scratch.type_masks[1].data(),
                    scratch.type_masks[2].data(), scratch.type_masks[3].data());
      std::array<std::uint64_t, kFailureTypeCount> counts{};
      std::uint64_t matched = 0;
      for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
        counts[t] = popcount_and(select, scratch.type_masks[t].data(), words);
        matched += counts[t];
      }
      stats.rows_matched += matched;
      if (matched == 0) continue;

      switch (query.group_by) {
        case Query::GroupBy::kNone:
          for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
            acc.all.events_by_type[t] += counts[t];
          }
          acc.all.events += matched;
          break;
        case Query::GroupBy::kSystemClass:
          for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
            class_group.events_by_type[t] += counts[t];
          }
          class_group.events += matched;
          break;
        case Query::GroupBy::kFailureType:
          for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
            acc.by_type[t].events_by_type[t] += counts[t];
            acc.by_type[t].events += counts[t];
          }
          break;
        case Query::GroupBy::kDiskFamily:
          for (const auto& [family, years] : family_years) {
            if (query.disk_family.has_value() && *query.disk_family != family) {
              continue;
            }
            bitmap_eq_u8(view.family.data() + begin, rows,
                         static_cast<std::uint8_t>(family), mask);
            bitmap_and(mask, select, words);
            std::uint64_t family_total = 0;
            std::array<std::uint64_t, kFailureTypeCount> family_counts{};
            for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
              family_counts[t] =
                  popcount_and(mask, scratch.type_masks[t].data(), words);
              family_total += family_counts[t];
            }
            if (family_total == 0) continue;
            GroupCounts& group = acc.by_family[family];
            for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
              group.events_by_type[t] += family_counts[t];
            }
            group.events += family_total;
            (void)years;
          }
          break;
      }
    }
  }
}

void emit_query_counters(const QueryStats& stats) {
  STORSIM_OBS_COUNTER(c_rows_scanned, "store.query.rows_scanned",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_rows_scanned, stats.rows_scanned);
  STORSIM_OBS_COUNTER(c_rows_matched, "store.query.rows_matched",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_rows_matched, stats.rows_matched);
  STORSIM_OBS_COUNTER(c_blocks_scanned, "store.query.blocks_scanned",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_blocks_scanned, stats.blocks_scanned);
  STORSIM_OBS_COUNTER(c_blocks_pruned, "store.query.blocks_pruned",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_blocks_pruned, stats.blocks_pruned);
}

/// Turns accumulated counts into labeled groups using `exposure` for the
/// denominators. Group identity and order depend only on the query and the
/// exposure table, so a merged exposure table yields the same groups as
/// the monolithic one.
void emit_groups(const ExposureTable& exposure, const Query& query,
                 const QueryAccumulators& acc, QueryResult& result) {
  const bool has_window = query.time_begin.has_value() || query.time_end.has_value();
  // Rates come from stored cohort exposure; a time window has no stored
  // denominator, so windowed queries report counts only.
  const bool rates = !has_window;
  const auto filter_class =
      query.system_class.has_value()
          ? std::optional<std::size_t>(model::index_of(*query.system_class))
          : std::nullopt;
  const GroupCounts& all = acc.all;
  const auto& by_class = acc.by_class;
  const auto& by_type = acc.by_type;
  const auto& by_family = acc.by_family;

  switch (query.group_by) {
    case Query::GroupBy::kNone:
      result.groups.push_back(
          finalize("all", all,
                   cohort_disk_years(exposure, filter_class, query.disk_family), rates));
      break;
    case Query::GroupBy::kSystemClass:
      for (const auto cls : model::kAllSystemClasses) {
        const std::size_t c = model::index_of(cls);
        if (exposure.class_system_count[c] == 0) continue;  // cohort absent
        if (filter_class.has_value() && *filter_class != c) continue;
        result.groups.push_back(
            finalize(std::string(model::to_string(cls)), by_class[c],
                     cohort_disk_years(exposure, c, query.disk_family), rates));
      }
      break;
    case Query::GroupBy::kFailureType:
      for (const auto type : model::kAllFailureTypes) {
        if (query.failure_type.has_value() && *query.failure_type != type) continue;
        // Shared cohort denominator: each group's rate is that type's AFR
        // contribution, exactly as AfrBreakdown::afr_pct slices one cohort.
        result.groups.push_back(finalize(
            std::string(model::to_string(type)), by_type[model::index_of(type)],
            cohort_disk_years(exposure, filter_class, query.disk_family), rates));
      }
      break;
    case Query::GroupBy::kDiskFamily:
      for (const auto& [family, years] : exposure.family_disk_years) {
        if (query.disk_family.has_value() && *query.disk_family != family) continue;
        const auto it = by_family.find(family);
        const GroupCounts counts = it == by_family.end() ? GroupCounts{} : it->second;
        std::string label("family ");
        label.append(1, family);
        result.groups.push_back(finalize(
            std::move(label), counts,
            cohort_disk_years(exposure, filter_class, family), rates));
        (void)years;
      }
      break;
  }
}

}  // namespace

void QueryRun::scan(const EventStore& store) {
  scan_store(store, query_, acc_, stats_, *scratch_);
}

QueryResult QueryRun::finish(const ExposureTable& exposure) {
  QueryResult result;
  result.stats = stats_;
  emit_groups(exposure, query_, acc_, result);
  emit_query_counters(result.stats);
  return result;
}

QueryResult run_query(const EventStore& store, const Query& query) {
  obs::Span span("store.query");
  ScanScratch scratch;
  QueryRun run(query, &scratch);
  run.scan(store);
  return run.finish(store.exposure());
}

QueryResult run_query(const ShardStore& store, const Query& query) {
  obs::Span span("store.query");
  ScanScratch scratch;
  QueryRun run(query, &scratch);
  for (std::size_t i = 0; i < store.shard_count(); ++i) run.scan(store.shard(i));
  return run.finish(store.exposure());
}

}  // namespace storsubsim::store
