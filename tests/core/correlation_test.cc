// Correlation analysis: window counting, P(1)/P(2) arithmetic, the
// independence prediction, a synthetic independence property test, and
// bit identity with an ordered-map tally on the Dataset and store paths.
#include "core/correlation.h"

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/store_bridge.h"
#include "stats/distributions.h"
#include "stats/rng.h"
#include "stats/summary.h"
#include "store/shards.h"

namespace core = storsubsim::core;
namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;
namespace stats = storsubsim::stats;

namespace {

/// `n_shelves` single-shelf systems, one disk per shelf, all deployed at 0,
/// horizon = `years`.
std::shared_ptr<log_ns::Inventory> shelf_farm(std::size_t n_shelves, double years) {
  auto inv = std::make_shared<log_ns::Inventory>();
  inv->horizon_seconds = model::from_years(years);
  for (std::uint32_t i = 0; i < n_shelves; ++i) {
    log_ns::InventorySystem s;
    s.id = model::SystemId(i);
    s.cls = model::SystemClass::kLowEnd;
    s.disk_model = {'A', 2};
    s.shelf_model = {'A'};
    inv->systems.push_back(s);
    inv->shelves.push_back({model::ShelfId(i), model::SystemId(i), {'A'}});
    inv->raid_groups.push_back(
        {model::RaidGroupId(i), model::SystemId(i), model::RaidType::kRaid4, 1, 1});
    log_ns::InventoryDisk d;
    d.id = model::DiskId(i);
    d.model = s.disk_model;
    d.system = model::SystemId(i);
    d.shelf = model::ShelfId(i);
    d.raid_group = model::RaidGroupId(i);
    d.remove_time = std::numeric_limits<double>::infinity();
    inv->disks.push_back(d);
  }
  return inv;
}

core::FailureEvent ev(double t, std::uint32_t disk,
                      model::FailureType type = model::FailureType::kDisk) {
  return core::FailureEvent{t, model::DiskId(disk), model::SystemId(disk), type};
}

/// A store file of `ds`, opened; the file is removed when the test ends.
/// PID-unique: ctest runs tests in parallel processes.
class StoreOf {
 public:
  StoreOf(const core::Dataset& ds, const char* name)
      : path_(::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name) {
    const core::SimulationDataset run{ds, {}, {}};
    EXPECT_TRUE(core::write_store(path_, run, 1, 1.0).ok());
    EXPECT_TRUE(store_.open(path_).ok());
  }
  ~StoreOf() { std::remove(path_.c_str()); }
  const storsubsim::store::ShardStore& get() const { return store_; }

 private:
  std::string path_;
  storsubsim::store::ShardStore store_;
};

/// `systems` systems of 3 shelves each, deployed at random over the first
/// half-year of a `years`-long horizon. Each shelf holds 4 disks: slots 0-2
/// in one of the system's two RAID groups (so groups span shelves), slot 3
/// a spare outside any group.
std::shared_ptr<log_ns::Inventory> mixed_fleet(std::uint32_t systems, double years,
                                               stats::Rng& rng) {
  auto inv = std::make_shared<log_ns::Inventory>();
  inv->horizon_seconds = model::from_years(years);
  for (std::uint32_t s = 0; s < systems; ++s) {
    log_ns::InventorySystem sys;
    sys.id = model::SystemId(s);
    sys.cls = model::kAllSystemClasses[s % model::kAllSystemClasses.size()];
    sys.disk_model = {'A', 2};
    sys.shelf_model = {'A'};
    sys.deploy_time = rng.uniform(0.0, model::from_years(0.5));
    inv->systems.push_back(sys);
    for (std::uint32_t g = 0; g < 2; ++g) {
      inv->raid_groups.push_back({model::RaidGroupId(2 * s + g), model::SystemId(s),
                                  model::RaidType::kRaid4, 6, 3});
    }
    for (std::uint32_t k = 0; k < 3; ++k) {
      const auto shelf = model::ShelfId(3 * s + k);
      inv->shelves.push_back({shelf, model::SystemId(s), {'A'}});
      for (std::uint32_t slot = 0; slot < 4; ++slot) {
        log_ns::InventoryDisk d;
        d.id = model::DiskId(static_cast<std::uint32_t>(inv->disks.size()));
        d.model = sys.disk_model;
        d.system = model::SystemId(s);
        d.shelf = shelf;
        d.raid_group = slot < 3 ? model::RaidGroupId(2 * s + (slot + k) % 2)
                                : model::RaidGroupId();
        d.slot = slot;
        d.install_time = sys.deploy_time;
        inv->disks.push_back(d);
      }
    }
  }
  return inv;
}

/// Bursts of failures of every type on random shelves: a burst puts 1-4
/// failures on the shelf's disks within a day, a few land before the
/// system's deployment.
std::vector<core::FailureEvent> bursts(const log_ns::Inventory& inv, std::size_t count,
                                       stats::Rng& rng) {
  std::vector<core::FailureEvent> events;
  for (std::size_t b = 0; b < count; ++b) {
    const auto shelf = static_cast<std::uint32_t>(rng.uniform(0.0, 1.0) *
                                                  static_cast<double>(inv.shelves.size()));
    const auto type = model::kAllFailureTypes[static_cast<std::size_t>(rng.uniform(0.0, 4.0))];
    const double t = rng.uniform(0.0, inv.horizon_seconds - model::kSecondsPerDay);
    const auto n = 1 + static_cast<int>(rng.uniform(0.0, 4.0));
    for (int k = 0; k < n; ++k) {
      const std::uint32_t disk = 4 * shelf + static_cast<std::uint32_t>(rng.uniform(0.0, 4.0));
      events.push_back(core::FailureEvent{t + rng.uniform(0.0, model::kSecondsPerDay),
                                          model::DiskId(disk), inv.disks[disk].system, type});
    }
  }
  return events;
}

/// The ordered-map tally the analysis must reproduce: failures per
/// (scope, window) cell, keyed on the pair itself.
struct MapTally {
  std::size_t windows_observed = 0;
  std::map<std::pair<std::uint32_t, std::size_t>, std::size_t> counts;

  std::size_t with(std::size_t n) const {
    std::size_t windows = 0;
    for (const auto& [_, c] : counts) windows += c == n ? 1 : 0;
    return windows;
  }
  double dispersion() const {
    if (windows_observed == 0) return 0.0;
    stats::Accumulator acc;
    for (const auto& [_, c] : counts) acc.add(static_cast<double>(c));
    for (std::size_t i = counts.size(); i < windows_observed; ++i) acc.add(0.0);
    const double mean = acc.mean();
    return mean > 0.0 ? acc.variance() / mean : 0.0;
  }
};

MapTally map_tally(const core::Dataset& ds, const core::Filter& cohort, core::Scope scope,
                   model::FailureType type, double window) {
  const auto& inv = *ds.parts()[0].inventory;
  const auto selected = [&](model::SystemId sys) {
    return cohort.selects(inv.systems[sys.value()]);
  };
  auto windows_of = [&](model::SystemId sys) -> std::size_t {
    const double observed = inv.horizon_seconds - inv.systems[sys.value()].deploy_time;
    return observed >= window ? static_cast<std::size_t>(std::floor(observed / window)) : 0;
  };
  MapTally tally;
  std::vector<std::size_t> scope_windows;
  if (scope == core::Scope::kShelf) {
    for (const auto& sh : inv.shelves) {
      scope_windows.push_back(selected(sh.system) ? windows_of(sh.system) : 0);
    }
  } else {
    for (const auto& g : inv.raid_groups) {
      scope_windows.push_back(selected(g.system) ? windows_of(g.system) : 0);
    }
  }
  for (const auto w : scope_windows) tally.windows_observed += w;
  for (const auto& e : ds.parts()[0].events) {
    if (e.type != type) continue;
    const auto& disk = inv.disks[e.disk.value()];
    if (!selected(disk.system)) continue;
    if (scope == core::Scope::kRaidGroup && !disk.raid_group.valid()) continue;
    const std::uint32_t id =
        scope == core::Scope::kShelf ? disk.shelf.value() : disk.raid_group.value();
    const double offset = e.time - inv.systems[disk.system.value()].deploy_time;
    if (offset < 0.0) continue;
    const auto w = static_cast<std::size_t>(std::floor(offset / window));
    if (w < scope_windows[id]) ++tally.counts[{id, w}];
  }
  return tally;
}

}  // namespace

TEST(Correlation, WindowCountingArithmetic) {
  // 10 shelves observed 2 years each = 20 shelf-year windows. Shelf 0 has
  // exactly 1 failure in its first year; shelf 1 has 2 in its second year.
  const auto inv = shelf_farm(10, 2.0);
  const double year = model::kSecondsPerYear;
  const core::Dataset ds(inv, {ev(0.3 * year, 0), ev(1.2 * year, 1), ev(1.4 * year, 1)});
  const auto r = core::failure_correlation(ds, core::Scope::kShelf,
                                           model::FailureType::kDisk);
  EXPECT_EQ(r.windows_observed, 20u);
  EXPECT_EQ(r.windows_with_one, 1u);
  EXPECT_EQ(r.windows_with_two, 1u);
  EXPECT_NEAR(r.empirical_p1(), 0.05, 1e-12);
  EXPECT_NEAR(r.empirical_p2(), 0.05, 1e-12);
  EXPECT_NEAR(r.theoretical_p2(), 0.5 * 0.05 * 0.05, 1e-12);
  EXPECT_NEAR(r.correlation_factor(), 0.05 / (0.5 * 0.05 * 0.05), 1e-9);
}

TEST(Correlation, ShortLivedScopesExcluded) {
  // Horizon 0.5 years: no complete 1-year windows -> nothing observed.
  const auto inv = shelf_farm(5, 0.5);
  const core::Dataset ds(inv, {ev(100.0, 0)});
  const auto r = core::failure_correlation(ds, core::Scope::kShelf,
                                           model::FailureType::kDisk);
  EXPECT_EQ(r.windows_observed, 0u);
  EXPECT_DOUBLE_EQ(r.correlation_factor(), 0.0);
}

TEST(Correlation, EventsInPartialTrailingWindowIgnored) {
  // 1.5-year horizon: one complete window per shelf; an event at t=1.2y
  // falls in the incomplete second window and must not count.
  const auto inv = shelf_farm(4, 1.5);
  const double year = model::kSecondsPerYear;
  const core::Dataset ds(inv, {ev(1.2 * year, 0)});
  const auto r = core::failure_correlation(ds, core::Scope::kShelf,
                                           model::FailureType::kDisk);
  EXPECT_EQ(r.windows_observed, 4u);
  EXPECT_EQ(r.windows_with_one, 0u);
}

TEST(Correlation, TypeSelective) {
  const auto inv = shelf_farm(4, 1.0);
  const core::Dataset ds(inv, {ev(100.0, 0, model::FailureType::kProtocol)});
  EXPECT_EQ(core::failure_correlation(ds, core::Scope::kShelf, model::FailureType::kDisk)
                .windows_with_one,
            0u);
  EXPECT_EQ(
      core::failure_correlation(ds, core::Scope::kShelf, model::FailureType::kProtocol)
          .windows_with_one,
      1u);
}

TEST(Correlation, CustomWindowLength) {
  // Quarter windows: 1 year horizon -> 4 windows per shelf.
  const auto inv = shelf_farm(2, 1.0);
  const core::Dataset ds(inv, {});
  const auto r = core::failure_correlation(ds, core::Scope::kShelf,
                                           model::FailureType::kDisk,
                                           0.25 * model::kSecondsPerYear);
  EXPECT_EQ(r.windows_observed, 8u);
}

TEST(Correlation, IndependentFailuresGiveFactorNearOne) {
  // Property: Poisson-seeded independent failures across many shelf-years
  // must satisfy P(2) ~ P(1)^2/2 (factor ~ 1). The identity is exact only
  // for rare events (the exact Poisson ratio is e^lambda), so use a small
  // per-window rate.
  const std::size_t shelves = 50000;
  const auto inv = shelf_farm(shelves, 2.0);
  stats::Rng rng(404);
  std::vector<core::FailureEvent> events;
  const double year = model::kSecondsPerYear;
  for (std::uint32_t s = 0; s < shelves; ++s) {
    const auto n = stats::Poisson(0.08).sample(rng);  // per 2-year life
    for (std::uint64_t k = 0; k < n; ++k) {
      events.push_back(ev(rng.uniform(0.0, 2.0 * year), s));
    }
  }
  const core::Dataset ds(inv, std::move(events));
  const auto r = core::failure_correlation(ds, core::Scope::kShelf,
                                           model::FailureType::kDisk);
  EXPECT_NEAR(r.correlation_factor(), 1.0, 0.25);
  EXPECT_FALSE(r.independence_test().significant_at(0.995));
}

TEST(Correlation, ClusteredFailuresDetected) {
  // Failures arriving in pairs: P(2) far above the independence prediction.
  const std::size_t shelves = 5000;
  const auto inv = shelf_farm(shelves, 1.0);
  stats::Rng rng(405);
  std::vector<core::FailureEvent> events;
  const double year = model::kSecondsPerYear;
  for (std::uint32_t s = 0; s < shelves; ++s) {
    if (rng.bernoulli(0.03)) {  // 3% of shelves get a pair
      const double t = rng.uniform(0.0, 0.9 * year);
      events.push_back(ev(t, s));
      events.push_back(ev(t + 3600.0, s));
    } else if (rng.bernoulli(0.05)) {  // some singletons so P(1) is defined
      events.push_back(ev(rng.uniform(0.0, year), s));
    }
  }
  const core::Dataset ds(inv, std::move(events));
  const auto r = core::failure_correlation(ds, core::Scope::kShelf,
                                           model::FailureType::kDisk);
  EXPECT_GT(r.correlation_factor(), 5.0);
  EXPECT_TRUE(r.independence_test().significant_at(0.995));
  const auto ci = r.empirical_p2_ci(0.995);
  EXPECT_GT(ci.lower, r.theoretical_p2());
}

TEST(Correlation, AllTypesHelper) {
  const auto inv = shelf_farm(4, 1.0);
  const core::Dataset ds(inv, {});
  const auto all = core::failure_correlation_all_types(ds, core::Scope::kRaidGroup);
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].type, model::kAllFailureTypes[i]);
    EXPECT_EQ(all[i].scope, core::Scope::kRaidGroup);
    EXPECT_EQ(all[i].windows_observed, 4u);
  }
}

TEST(DispersionIndex, PoissonIsOne) {
  const std::size_t shelves = 30000;
  const auto inv = shelf_farm(shelves, 1.0);
  stats::Rng rng(406);
  std::vector<core::FailureEvent> events;
  const double year = model::kSecondsPerYear;
  for (std::uint32_t s = 0; s < shelves; ++s) {
    const auto n = stats::Poisson(0.3).sample(rng);
    for (std::uint64_t k = 0; k < n; ++k) events.push_back(ev(rng.uniform(0.0, year), s));
  }
  const core::Dataset ds(inv, std::move(events));
  EXPECT_NEAR(core::dispersion_index(ds, core::Scope::kShelf, model::FailureType::kDisk),
              1.0, 0.05);
}

TEST(DispersionIndex, ClusteringInflatesIt) {
  const std::size_t shelves = 5000;
  const auto inv = shelf_farm(shelves, 1.0);
  stats::Rng rng(407);
  std::vector<core::FailureEvent> events;
  const double year = model::kSecondsPerYear;
  for (std::uint32_t s = 0; s < shelves; ++s) {
    if (!rng.bernoulli(0.05)) continue;
    const double t = rng.uniform(0.0, 0.9 * year);
    for (int k = 0; k < 5; ++k) events.push_back(ev(t + 60.0 * k, s));
  }
  const core::Dataset ds(inv, std::move(events));
  EXPECT_GT(core::dispersion_index(ds, core::Scope::kShelf, model::FailureType::kDisk), 3.0);
}

TEST(CrossType, TriggeredResponsesShowLift) {
  const std::size_t shelves = 4000;
  const auto inv = shelf_farm(shelves, 1.0);
  stats::Rng rng(408);
  std::vector<core::FailureEvent> events;
  const double year = model::kSecondsPerYear;
  // 10% of shelves: an interconnect failure followed 2 h later by a
  // performance failure; plus unrelated background performance failures.
  for (std::uint32_t s = 0; s < shelves; ++s) {
    if (rng.bernoulli(0.10)) {
      const double t = rng.uniform(0.0, 0.9 * year);
      events.push_back(ev(t, s, model::FailureType::kPhysicalInterconnect));
      events.push_back(ev(t + 7200.0, s, model::FailureType::kPerformance));
    }
    if (rng.bernoulli(0.02)) {
      events.push_back(ev(rng.uniform(0.0, year), s, model::FailureType::kPerformance));
    }
  }
  const core::Dataset ds(inv, std::move(events));
  const auto r = core::cross_type_correlation(ds, core::Scope::kShelf,
                                              model::FailureType::kPhysicalInterconnect,
                                              model::FailureType::kPerformance, 86400.0);
  EXPECT_GT(r.triggers, 300u);
  EXPECT_GT(r.conditional_probability(), 0.9);
  EXPECT_GT(r.lift(), 50.0);
}

TEST(CrossType, IndependentStreamsLiftNearOne) {
  const std::size_t shelves = 30000;
  const auto inv = shelf_farm(shelves, 1.0);
  stats::Rng rng(409);
  std::vector<core::FailureEvent> events;
  const double year = model::kSecondsPerYear;
  for (std::uint32_t s = 0; s < shelves; ++s) {
    // Fairly dense independent streams so conditional probabilities are
    // measurable.
    auto n1 = stats::Poisson(1.0).sample(rng);
    for (std::uint64_t k = 0; k < n1; ++k) {
      events.push_back(ev(rng.uniform(0.0, year), s, model::FailureType::kDisk));
    }
    auto n2 = stats::Poisson(1.0).sample(rng);
    for (std::uint64_t k = 0; k < n2; ++k) {
      events.push_back(ev(rng.uniform(0.0, year), s, model::FailureType::kProtocol));
    }
  }
  const core::Dataset ds(inv, std::move(events));
  const auto r = core::cross_type_correlation(ds, core::Scope::kShelf,
                                              model::FailureType::kDisk,
                                              model::FailureType::kProtocol,
                                              10.0 * 86400.0);
  EXPECT_NEAR(r.lift(), 1.0, 0.15);
}

TEST(CrossType, NoTriggersNoLift) {
  const auto inv = shelf_farm(5, 1.0);
  const core::Dataset ds(inv, {});
  const auto r = core::cross_type_correlation(ds, core::Scope::kShelf,
                                              model::FailureType::kDisk,
                                              model::FailureType::kProtocol, 86400.0);
  EXPECT_EQ(r.triggers, 0u);
  EXPECT_DOUBLE_EQ(r.conditional_probability(), 0.0);
}

TEST(Multiplicity, GeneralizedFactorialLaw) {
  // P(N) = P(1)^N / N! (paper equation 4): check the theoretical column.
  const auto inv = shelf_farm(100, 1.0);
  std::vector<core::FailureEvent> events;
  // 10 shelves with one failure -> P(1) = 0.1.
  for (std::uint32_t s = 0; s < 10; ++s) events.push_back(ev(1000.0 + s, s));
  const core::Dataset ds(inv, std::move(events));
  const auto rows = core::failure_multiplicity(ds, core::Scope::kShelf,
                                               model::FailureType::kDisk, 4);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_NEAR(rows[0].theoretical, 0.1, 1e-12);
  EXPECT_NEAR(rows[1].theoretical, 0.1 * 0.1 / 2.0, 1e-12);
  EXPECT_NEAR(rows[2].theoretical, 0.1 * 0.1 * 0.1 / 6.0, 1e-12);
  EXPECT_NEAR(rows[3].theoretical, 1e-4 / 24.0, 1e-12);
  EXPECT_NEAR(rows[0].empirical, 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(rows[1].empirical, 0.0);
}

TEST(Correlation, ShortWindowsDoNotAliasAcrossScopes) {
  // 20 s windows over a year: shelf 0 spans 2^20 windows and more. Its
  // failure in window 2^20 and shelf 1's in window 0 are two cells with one
  // failure each, not one cell with two.
  const auto inv = shelf_farm(2, 1.0);
  const double window = 20.0;
  const double late = static_cast<double>(1u << 20u) * window + 5.0;
  ASSERT_LT(late, inv->horizon_seconds);
  const core::Dataset ds(inv, {ev(5.0, 1), ev(late, 0)});
  const StoreOf store(ds, "short_windows.store");
  for (const core::Source& source : {core::Source(ds), core::Source(store.get())}) {
    const auto r = core::failure_correlation(source, core::Scope::kShelf,
                                             model::FailureType::kDisk, window);
    EXPECT_EQ(r.windows_with_one, 2u);
    EXPECT_EQ(r.windows_with_two, 0u);
    EXPECT_EQ(r.windows_observed,
              2 * static_cast<std::size_t>(std::floor(inv->horizon_seconds / window)));
  }
}

TEST(Correlation, MatchesOrderedMapTally) {
  stats::Rng rng(408);
  const auto inv = mixed_fleet(400, 3.0, rng);
  const core::Dataset ds(inv, bursts(*inv, 3000, rng));
  core::Filter mid_range;
  mid_range.system_class = model::SystemClass::kMidRange;
  const core::Source cohort(ds, mid_range);
  const StoreOf store(ds, "map_tally.store");

  for (const double window :
       {model::kSecondsPerYear, 30 * model::kSecondsPerDay, model::kSecondsPerDay}) {
    for (const auto scope : {core::Scope::kShelf, core::Scope::kRaidGroup}) {
      SCOPED_TRACE(::testing::Message() << "window " << window << " scope "
                                        << static_cast<int>(scope));
      const auto all = core::failure_correlation_all_types(ds, scope, window);
      const auto all_store = core::failure_correlation_all_types(store.get(), scope, window);
      const auto all_cohort = core::failure_correlation_all_types(cohort, scope, window);
      ASSERT_EQ(all.size(), model::kAllFailureTypes.size());
      for (std::size_t t = 0; t < model::kAllFailureTypes.size(); ++t) {
        const auto type = model::kAllFailureTypes[t];
        const MapTally want = map_tally(ds, {}, scope, type, window);
        for (const auto& got : {all[t], all_store[t],
                                core::failure_correlation(ds, scope, type, window)}) {
          EXPECT_EQ(got.type, type);
          EXPECT_EQ(got.windows_observed, want.windows_observed);
          EXPECT_EQ(got.windows_with_one, want.with(1));
          EXPECT_EQ(got.windows_with_two, want.with(2));
        }
        const MapTally want_cohort = map_tally(ds, mid_range, scope, type, window);
        EXPECT_EQ(all_cohort[t].windows_observed, want_cohort.windows_observed);
        EXPECT_EQ(all_cohort[t].windows_with_one, want_cohort.with(1));
        EXPECT_EQ(all_cohort[t].windows_with_two, want_cohort.with(2));

        EXPECT_EQ(std::bit_cast<std::uint64_t>(core::dispersion_index(ds, scope, type, window)),
                  std::bit_cast<std::uint64_t>(want.dispersion()));
        const auto rows = core::failure_multiplicity(ds, scope, type, 4, window);
        ASSERT_EQ(rows.size(), want.windows_observed == 0 ? 0u : 4u);
        for (const auto& row : rows) {
          EXPECT_EQ(row.empirical, static_cast<double>(want.with(row.n)) /
                                       static_cast<double>(want.windows_observed));
        }
      }
    }
  }
}
