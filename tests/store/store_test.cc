// Columnar event store round trip: a completed pipeline run serialized with
// the writer and reopened through the mmap reader must reproduce the exact
// in-memory results — same events, same inventory, same ClassifierStats,
// same AFR table bit for bit (docs/STORE.md). Also pins the format-v1
// header/footer layout with a golden fixture.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "core/afr.h"
#include "core/burstiness.h"
#include "core/correlation.h"
#include "core/lifetime.h"
#include "core/pipeline.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/shards.h"
#include "store/writer.h"
#include "util/parallel.h"

namespace core = storsubsim::core;
namespace log = storsubsim::log;
namespace model = storsubsim::model;
namespace store = storsubsim::store;

namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// One simulated run through the full text-log pipeline, shared by the
/// round-trip tests (scale 0.05 — the in-ctest fidelity point).
class StoreRoundTrip : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    run_ = new core::SimulationDataset(core::simulate_and_analyze(
        model::standard_fleet_config(0.05, 20080226)));
    image_ = new std::string;
    store::StoreContents contents;
    contents.inventory = &run_->dataset.inventory();
    contents.events = run_->dataset.events();
    contents.meta = core::make_store_meta(run_->counters, run_->pipeline);
    contents.seed = 20080226;
    contents.scale = 0.05;
    ASSERT_TRUE(store::build_store_image(contents, image_).ok());
  }
  static void TearDownTestSuite() {
    delete run_;
    run_ = nullptr;
    delete image_;
    image_ = nullptr;
  }

  /// Opens the shared image as a one-shard ShardStore — the store backend
  /// every core analysis takes — through a PID-unique file.
  [[nodiscard]] static bool open_mapped(store::ShardStore& out) {
    const std::string path =
        temp_path("round_trip_mapped.store") + "." + std::to_string(::getpid());
    std::ofstream(path, std::ios::binary) << *image_;
    const bool ok = out.open(path).ok();
    std::remove(path.c_str());  // the mapping keeps the bytes alive
    return ok;
  }

  static core::SimulationDataset* run_;
  static std::string* image_;
};

core::SimulationDataset* StoreRoundTrip::run_ = nullptr;
std::string* StoreRoundTrip::image_ = nullptr;

}  // namespace

TEST_F(StoreRoundTrip, HeaderDescribesTheRun) {
  store::EventStore es;
  ASSERT_TRUE(es.open_image(*image_).ok());
  const auto& inv = run_->dataset.inventory();
  EXPECT_EQ(es.header().seed, 20080226u);
  EXPECT_DOUBLE_EQ(es.header().scale, 0.05);
  EXPECT_DOUBLE_EQ(es.header().horizon_seconds, inv.horizon_seconds);
  EXPECT_EQ(es.header().event_count, run_->dataset.events().size());
  EXPECT_EQ(es.header().system_count, inv.systems.size());
  EXPECT_EQ(es.header().shelf_count, inv.shelves.size());
  EXPECT_EQ(es.header().disk_count, inv.disks.size());
  EXPECT_EQ(es.header().raid_group_count, inv.raid_groups.size());
  EXPECT_EQ(es.header().file_size, image_->size());
}

TEST_F(StoreRoundTrip, MetaRoundTripsClassifierAndSimCounters) {
  const std::string path = temp_path("meta_round_trip.store");
  ASSERT_TRUE(core::write_store(path, *run_, 20080226, 0.05).ok());
  store::ShardStore es;
  ASSERT_TRUE(es.open(path).ok());
  ASSERT_TRUE(es.open_all().ok());
  const auto rerun = core::simulation_dataset_from_shards(es);
  std::remove(path.c_str());
  // The ClassifierStats / pipeline counters the original run produced must
  // come back exactly (the "simulate once" provenance).
  const auto& pipeline = rerun.pipeline;
  EXPECT_EQ(pipeline.log_lines_written, run_->pipeline.log_lines_written);
  EXPECT_EQ(pipeline.log_lines_parsed, run_->pipeline.log_lines_parsed);
  EXPECT_EQ(pipeline.raid_records, run_->pipeline.raid_records);
  EXPECT_EQ(pipeline.failures_classified, run_->pipeline.failures_classified);
  EXPECT_EQ(pipeline.duplicates_dropped, run_->pipeline.duplicates_dropped);
  EXPECT_EQ(pipeline.missing_disk_dropped, run_->pipeline.missing_disk_dropped);
  const auto& counters = rerun.counters;
  EXPECT_EQ(counters.events_by_type, run_->counters.events_by_type);
  EXPECT_EQ(counters.replacements, run_->counters.replacements);
}

TEST_F(StoreRoundTrip, EventsComeBackExactlyInCanonicalOrder) {
  store::ShardStore es;
  ASSERT_TRUE(open_mapped(es));
  const auto dataset = core::dataset_from_shards(es);
  const auto& original = run_->dataset.events();
  ASSERT_EQ(dataset.events().size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(dataset.events()[i], original[i]) << "event " << i;
  }
}

TEST_F(StoreRoundTrip, InventoryRebuildsFieldForField) {
  store::EventStore es;
  ASSERT_TRUE(es.open_image(*image_).ok());
  const auto inv = es.rebuild_inventory();
  const auto& ref = run_->dataset.inventory();
  EXPECT_DOUBLE_EQ(inv.horizon_seconds, ref.horizon_seconds);
  ASSERT_EQ(inv.systems.size(), ref.systems.size());
  for (std::size_t i = 0; i < ref.systems.size(); ++i) {
    EXPECT_EQ(inv.systems[i].id, ref.systems[i].id);
    EXPECT_EQ(inv.systems[i].cls, ref.systems[i].cls);
    EXPECT_EQ(inv.systems[i].paths, ref.systems[i].paths);
    EXPECT_EQ(inv.systems[i].disk_model.family, ref.systems[i].disk_model.family);
    EXPECT_EQ(inv.systems[i].disk_model.capacity_index,
              ref.systems[i].disk_model.capacity_index);
    EXPECT_EQ(inv.systems[i].shelf_model.letter, ref.systems[i].shelf_model.letter);
    EXPECT_EQ(inv.systems[i].deploy_time, ref.systems[i].deploy_time);
    EXPECT_EQ(inv.systems[i].cohort, ref.systems[i].cohort);
  }
  ASSERT_EQ(inv.shelves.size(), ref.shelves.size());
  for (std::size_t i = 0; i < ref.shelves.size(); ++i) {
    EXPECT_EQ(inv.shelves[i].system, ref.shelves[i].system);
    EXPECT_EQ(inv.shelves[i].model.letter, ref.shelves[i].model.letter);
  }
  ASSERT_EQ(inv.disks.size(), ref.disks.size());
  for (std::size_t i = 0; i < ref.disks.size(); ++i) {
    EXPECT_EQ(inv.disks[i].model.family, ref.disks[i].model.family);
    EXPECT_EQ(inv.disks[i].system, ref.disks[i].system);
    EXPECT_EQ(inv.disks[i].shelf, ref.disks[i].shelf);
    EXPECT_EQ(inv.disks[i].raid_group, ref.disks[i].raid_group);
    EXPECT_EQ(inv.disks[i].slot, ref.disks[i].slot);
    EXPECT_EQ(inv.disks[i].install_time, ref.disks[i].install_time);
    EXPECT_EQ(inv.disks[i].remove_time, ref.disks[i].remove_time);
  }
  ASSERT_EQ(inv.raid_groups.size(), ref.raid_groups.size());
  for (std::size_t i = 0; i < ref.raid_groups.size(); ++i) {
    EXPECT_EQ(inv.raid_groups[i].system, ref.raid_groups[i].system);
    EXPECT_EQ(inv.raid_groups[i].type, ref.raid_groups[i].type);
    EXPECT_EQ(inv.raid_groups[i].member_count, ref.raid_groups[i].member_count);
    EXPECT_EQ(inv.raid_groups[i].shelf_span, ref.raid_groups[i].shelf_span);
  }
}

TEST_F(StoreRoundTrip, AfrTableBitIdenticalToInMemoryPath) {
  store::ShardStore es;
  ASSERT_TRUE(open_mapped(es));
  const auto memory = core::afr_by_class(run_->dataset);
  const auto mapped = core::afr_by_class(es);
  ASSERT_EQ(mapped.size(), memory.size());
  for (std::size_t i = 0; i < memory.size(); ++i) {
    EXPECT_EQ(mapped[i].label, memory[i].label);
    EXPECT_EQ(mapped[i].events, memory[i].events);
    // Exact FP equality is the contract: the writer accumulated exposure in
    // the same order Dataset::disk_exposure_years does.
    EXPECT_EQ(mapped[i].disk_years, memory[i].disk_years);
  }
  const auto pooled_memory = core::compute_afr(run_->dataset);
  const auto pooled_mapped = core::compute_afr(es);
  EXPECT_EQ(pooled_mapped.events, pooled_memory.events);
  EXPECT_EQ(pooled_mapped.disk_years, pooled_memory.disk_years);
}

TEST_F(StoreRoundTrip, ExposureTableEqualsPerCohortSweeps) {
  // The writer fills every entry in one shared sweep; each must still equal
  // a sweep over its own cohort exactly, FP rounding included.
  store::EventStore es;
  ASSERT_TRUE(es.open_image(*image_).ok());
  const store::ExposureTable& table = es.exposure();
  const log::Inventory& inv = run_->dataset.inventory();
  auto sweep = [&](auto in_cohort) {
    double years = 0.0;
    for (const auto& d : inv.disks) {
      if (in_cohort(inv.systems[d.system.value()])) years += inv.disk_exposure_years(d);
    }
    return years;
  };

  EXPECT_EQ(table.total_disk_years, sweep([](const log::InventorySystem&) { return true; }));
  for (std::size_t c = 0; c < store::kClassCount; ++c) {
    EXPECT_EQ(table.class_disk_years[c], sweep([c](const log::InventorySystem& sys) {
                return model::index_of(sys.cls) == c;
              })) << "class " << c;
    std::uint64_t systems = 0;
    for (const auto& sys : inv.systems) {
      if (model::index_of(sys.cls) == c) ++systems;
    }
    EXPECT_EQ(table.class_system_count[c], systems) << "class " << c;
  }
  std::map<char, double> families;
  std::map<std::pair<std::uint8_t, char>, double> class_families;
  for (const auto& sys : inv.systems) {
    families[sys.disk_model.family] = 0.0;
    class_families[{static_cast<std::uint8_t>(model::index_of(sys.cls)),
                    sys.disk_model.family}] = 0.0;
  }
  for (auto& entry : families) {
    const char family = entry.first;
    entry.second = sweep([family](const log::InventorySystem& s) {
      return s.disk_model.family == family;
    });
  }
  for (auto& entry : class_families) {
    const auto [cls, family] = entry.first;
    entry.second = sweep([cls = cls, family = family](const log::InventorySystem& s) {
      return model::index_of(s.cls) == cls && s.disk_model.family == family;
    });
  }
  ASSERT_GT(class_families.size(), families.size());
  EXPECT_EQ(table.family_disk_years, families);
  EXPECT_EQ(table.class_family_disk_years, class_families);
}

TEST_F(StoreRoundTrip, BurstinessCorrelationAndLifetimeMatchInMemoryPath) {
  store::ShardStore es;
  ASSERT_TRUE(open_mapped(es));
  for (const auto scope : {core::Scope::kShelf, core::Scope::kRaidGroup}) {
    const auto memory = core::time_between_failures(run_->dataset, scope);
    const auto mapped = core::time_between_failures(es, scope);
    for (std::size_t s = 0; s < core::kSeriesCount; ++s) {
      ASSERT_EQ(mapped.gaps[s].size(), memory.gaps[s].size()) << "series " << s;
      for (std::size_t i = 0; i < memory.gaps[s].size(); ++i) {
        ASSERT_EQ(mapped.gaps[s][i], memory.gaps[s][i]) << "series " << s << " gap " << i;
      }
    }
    const auto mem_corr = core::failure_correlation_all_types(run_->dataset, scope);
    const auto map_corr = core::failure_correlation_all_types(es, scope);
    ASSERT_EQ(map_corr.size(), mem_corr.size());
    for (std::size_t i = 0; i < mem_corr.size(); ++i) {
      EXPECT_EQ(map_corr[i].windows_observed, mem_corr[i].windows_observed);
      EXPECT_EQ(map_corr[i].windows_with_one, mem_corr[i].windows_with_one);
      EXPECT_EQ(map_corr[i].windows_with_two, mem_corr[i].windows_with_two);
    }
  }
  const auto mem_life = core::disk_lifetime_report(run_->dataset);
  const auto map_life = core::disk_lifetime_report(es);
  EXPECT_EQ(map_life.disks, mem_life.disks);
  EXPECT_EQ(map_life.failures, mem_life.failures);
  EXPECT_EQ(map_life.censored_fraction, mem_life.censored_fraction);
}

TEST_F(StoreRoundTrip, FileRoundTripThroughMmap) {
  const std::string path = temp_path("round_trip.store");
  ASSERT_TRUE(core::write_store(path, *run_, 20080226, 0.05).ok());
  store::ShardStore es;
  ASSERT_TRUE(es.open(path).ok());
  EXPECT_EQ(es.shard(0).event_count(), run_->dataset.events().size());
  const auto memory = core::afr_by_class(run_->dataset);
  const auto mapped = core::afr_by_class(es);
  ASSERT_EQ(mapped.size(), memory.size());
  for (std::size_t i = 0; i < memory.size(); ++i) {
    EXPECT_EQ(mapped[i].disk_years, memory[i].disk_years);
    EXPECT_EQ(mapped[i].events, memory[i].events);
  }
  std::remove(path.c_str());
}

TEST_F(StoreRoundTrip, RebuildsAreByteIdentical) {
  store::StoreContents contents;
  contents.inventory = &run_->dataset.inventory();
  contents.events = run_->dataset.events();
  contents.meta = core::make_store_meta(run_->counters, run_->pipeline);
  contents.seed = 20080226;
  contents.scale = 0.05;
  std::string again;
  ASSERT_TRUE(store::build_store_image(contents, &again).ok());
  EXPECT_EQ(again, *image_);
}

TEST(StoreErrors, MissingFileReportsIo) {
  store::EventStore es;
  const auto err = es.open(temp_path("does_not_exist.store"));
  EXPECT_EQ(err.code, store::ErrorCode::kIo);
  EXPECT_FALSE(err.describe().empty());
}

TEST(StoreErrors, EventReferencingUnknownDiskIsRejected) {
  log::Inventory inv;
  inv.horizon_seconds = 100.0;
  inv.systems.push_back({model::SystemId(0), model::SystemClass::kLowEnd,
                         model::PathConfig::kSinglePath, {'A', 1}, {'B'}, 0.0, 0});
  inv.shelves.push_back({model::ShelfId(0), model::SystemId(0), {'B'}});
  inv.disks.push_back({model::DiskId(0), {'A', 1}, model::SystemId(0), model::ShelfId(0),
                       model::RaidGroupId(0), 0, 0.0,
                       std::numeric_limits<double>::infinity()});
  inv.raid_groups.push_back(
      {model::RaidGroupId(0), model::SystemId(0), model::RaidType::kRaid4, 1, 1});

  std::vector<log::ClassifiedFailure> events(1);
  events[0].time = 10.0;
  events[0].disk = model::DiskId(7);  // not in the inventory
  events[0].system = model::SystemId(0);

  store::StoreContents contents;
  contents.inventory = &inv;
  contents.events = events;
  std::string image;
  EXPECT_EQ(store::build_store_image(contents, &image).code,
            store::ErrorCode::kBadValue);
}

// ---------------------------------------------------------------------------
// Golden fixture: a tiny hand-built run pins the v1 header/footer layout.
// If this test breaks, the on-disk format changed — bump kFormatVersion and
// update docs/STORE.md rather than silently rewriting v1 (compat policy).

namespace {

// Pinned by the v1 format; regenerate with the values this test prints if —
// and only if — kFormatVersion is bumped.
inline constexpr std::size_t kGoldenImageSize = 2396;
inline constexpr std::uint32_t kGoldenImageCrc = 3226533097u;

store::StoreContents golden_contents(const log::Inventory& inv,
                                     std::span<const log::ClassifiedFailure> events) {
  store::StoreContents contents;
  contents.inventory = &inv;
  contents.events = events;
  contents.meta.failures_classified = 3;
  contents.meta.log_lines_written = 11;
  contents.meta.log_lines_parsed = 11;
  contents.seed = 7;
  contents.scale = 0.25;
  return contents;
}

log::Inventory golden_inventory() {
  log::Inventory inv;
  inv.horizon_seconds = 1000.0;
  inv.systems.push_back({model::SystemId(0), model::SystemClass::kLowEnd,
                         model::PathConfig::kSinglePath, {'A', 1}, {'B'}, 0.0, 0});
  inv.systems.push_back({model::SystemId(1), model::SystemClass::kHighEnd,
                         model::PathConfig::kDualPath, {'C', 2}, {'D'}, 50.0, 1});
  inv.shelves.push_back({model::ShelfId(0), model::SystemId(0), {'B'}});
  inv.shelves.push_back({model::ShelfId(1), model::SystemId(1), {'D'}});
  inv.disks.push_back({model::DiskId(0), {'A', 1}, model::SystemId(0), model::ShelfId(0),
                       model::RaidGroupId(0), 0, 0.0,
                       std::numeric_limits<double>::infinity()});
  inv.disks.push_back({model::DiskId(1), {'A', 1}, model::SystemId(0), model::ShelfId(0),
                       model::RaidGroupId(0), 1, 0.0, 400.0});
  inv.disks.push_back({model::DiskId(2), {'C', 2}, model::SystemId(1), model::ShelfId(1),
                       model::RaidGroupId(), 0, 50.0,
                       std::numeric_limits<double>::infinity()});
  inv.raid_groups.push_back(
      {model::RaidGroupId(0), model::SystemId(0), model::RaidType::kRaid4, 2, 1});
  return inv;
}

std::vector<log::ClassifiedFailure> golden_events() {
  std::vector<log::ClassifiedFailure> events(3);
  events[0] = {100.0, model::DiskId(0), model::SystemId(0), model::FailureType::kDisk};
  events[1] = {250.5, model::DiskId(1), model::SystemId(0),
               model::FailureType::kPhysicalInterconnect};
  events[2] = {300.0, model::DiskId(2), model::SystemId(1),
               model::FailureType::kProtocol};
  return events;
}

}  // namespace

TEST(StoreGolden, HeaderLayoutIsPinned) {
  const auto inv = golden_inventory();
  const auto events = golden_events();
  std::string image;
  ASSERT_TRUE(store::build_store_image(golden_contents(inv, events), &image).ok());
  ASSERT_GE(image.size(), store::kHeaderSize);

  // Fixed offsets of the v1 header (docs/STORE.md).
  EXPECT_EQ(image.substr(0, 8), "STORCOL1");
  EXPECT_EQ(store::read_u32(image.data() + 8), store::kEndianTag);
  EXPECT_EQ(store::read_u32(image.data() + 12), 1u);  // kFormatVersion
  EXPECT_EQ(store::read_u64(image.data() + 16), image.size());
  EXPECT_EQ(store::read_u64(image.data() + 40), 7u);  // seed
  EXPECT_DOUBLE_EQ(store::read_f64(image.data() + 48), 0.25);
  EXPECT_DOUBLE_EQ(store::read_f64(image.data() + 56), 1000.0);
  EXPECT_EQ(store::read_u64(image.data() + 64), 3u);   // events
  EXPECT_EQ(store::read_u64(image.data() + 72), 2u);   // systems
  EXPECT_EQ(store::read_u64(image.data() + 80), 2u);   // shelves
  EXPECT_EQ(store::read_u64(image.data() + 88), 3u);   // disks
  EXPECT_EQ(store::read_u64(image.data() + 96), 1u);   // raid groups
  // Header CRC at the end of the fixed block.
  EXPECT_EQ(store::read_u32(image.data() + store::kHeaderSize - 4),
            store::crc32(image.data(), store::kHeaderSize - 4));
  // Footer directory sits where the header says and ends at the file end.
  const auto footer_offset = store::read_u64(image.data() + 24);
  const auto footer_size = store::read_u64(image.data() + 32);
  EXPECT_EQ(footer_offset + footer_size, image.size());
  EXPECT_GE(footer_offset, std::uint64_t{store::kHeaderSize});

  // The fixture opens and answers queries.
  store::EventStore es;
  ASSERT_TRUE(es.open_image(std::string(image)).ok());
  EXPECT_EQ(es.events(model::SystemClass::kLowEnd).size(), 2u);
  EXPECT_EQ(es.events(model::SystemClass::kHighEnd).size(), 1u);
  EXPECT_EQ(es.events(model::SystemClass::kNearLine).size(), 0u);
}

TEST(StoreGolden, ImageBytesArePinned) {
  // Byte-exact golden: the same tiny run must serialize to the same bytes on
  // every platform and thread count. The pinned CRC changes ONLY with a
  // format revision (then bump kFormatVersion too).
  const auto inv = golden_inventory();
  const auto events = golden_events();
  std::string image;
  ASSERT_TRUE(store::build_store_image(golden_contents(inv, events), &image).ok());
  const std::uint32_t image_crc = store::crc32(image.data(), image.size());

  std::string again;
  storsubsim::util::set_thread_count(4);
  ASSERT_TRUE(store::build_store_image(golden_contents(inv, events), &again).ok());
  storsubsim::util::set_thread_count(0);
  EXPECT_EQ(again, image);

  RecordProperty("image_bytes", static_cast<int>(image.size()));
  EXPECT_EQ(image.size(), kGoldenImageSize);
  EXPECT_EQ(image_crc, kGoldenImageCrc);
}
