// Sharded store directory suite: a multi-shard build must be a perfect
// stand-in for the monolithic store file — per-shard files are valid
// STORCOL1 stores, `--shards 1` reproduces the single file byte for byte,
// and every merged answer (exposure table, meta counters, AFR, burstiness,
// correlation, lifetime, queries, rehydrated Dataset) is bit-identical to
// the single-file backend. The corruption half fuzzes the MANIFEST and the
// shard files: damage yields a typed store::Error, never UB or a crash.
//
// Scale 0.05 is the in-ctest fidelity point (same as the store round-trip
// and Source suites); the corruption fixtures use a smaller 0.01 fleet.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/afr.h"
#include "core/analysis_request.h"
#include "core/burstiness.h"
#include "core/correlation.h"
#include "core/lifetime.h"
#include "core/pipeline.h"
#include "core/sharded_build.h"
#include "core/source.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/shards.h"
#include "util/parallel.h"

namespace core = storsubsim::core;
namespace model = storsubsim::model;
namespace store = storsubsim::store;
namespace util = storsubsim::util;

namespace {

/// PID-unique: ctest runs each TEST in its own process, possibly in
/// parallel, and a store file being rewritten while another process has it
/// mmapped is a bus error waiting to happen.
std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void remove_shard_dir(const std::string& dir) {
  store::ShardStore probe;
  if (probe.open(dir).ok()) {
    for (std::size_t s = 0; s < probe.shard_count(); ++s) {
      std::remove((dir + "/" + probe.info(s).file).c_str());
    }
  }
  for (std::size_t s = 0; s < 64; ++s) {  // leftovers from corruption tests
    char buf[48];
    std::snprintf(buf, sizeof buf, "/shard-%04zu.store", s);
    std::remove((dir + buf).c_str());
  }
  std::remove((dir + "/" + std::string(store::kManifestFileName)).c_str());
  ::rmdir(dir.c_str());
}

void expect_exposure_identical(const store::ExposureTable& a,
                               const store::ExposureTable& b) {
  EXPECT_EQ(a.total_disk_years, b.total_disk_years);  // bit-identical, not approx
  for (std::size_t c = 0; c < store::kClassCount; ++c) {
    EXPECT_EQ(a.class_disk_years[c], b.class_disk_years[c]);
    EXPECT_EQ(a.class_system_count[c], b.class_system_count[c]);
  }
  EXPECT_EQ(a.family_disk_years, b.family_disk_years);
  EXPECT_EQ(a.class_family_disk_years, b.class_family_disk_years);
}

void expect_query_identical(const store::QueryResult& a, const store::QueryResult& b) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].label, b.groups[i].label);
    EXPECT_EQ(a.groups[i].events_by_type, b.groups[i].events_by_type);
    EXPECT_EQ(a.groups[i].events, b.groups[i].events);
    EXPECT_EQ(a.groups[i].disk_years, b.groups[i].disk_years);
    EXPECT_EQ(a.groups[i].afr_pct, b.groups[i].afr_pct);
  }
}

/// One simulated run, its monolithic store file, and a 3-shard directory of
/// the same fleet, shared by every equivalence test.
class ShardEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new model::FleetConfig(model::standard_fleet_config(0.05, 20080226));
    run_ = new core::SimulationDataset(core::simulate_and_analyze(*config_));
    mono_path_ = new std::string(temp_path("shards_mono.store"));
    ASSERT_TRUE(core::write_store(*mono_path_, *run_, 20080226, 0.05).ok());
    mono_ = new store::ShardStore;
    ASSERT_TRUE(mono_->open(*mono_path_).ok());

    dir_ = new std::string(temp_path("shards_dir"));
    core::ShardedBuildOptions options;
    options.shards = 3;
    ASSERT_TRUE(core::build_sharded_store(*dir_, *config_, options).ok());
    shards_ = new store::ShardStore;
    ASSERT_TRUE(shards_->open(*dir_).ok());
    ASSERT_TRUE(shards_->open_all().ok());
  }
  static void TearDownTestSuite() {
    delete shards_;
    shards_ = nullptr;
    remove_shard_dir(*dir_);
    delete dir_;
    dir_ = nullptr;
    delete mono_;
    mono_ = nullptr;
    std::remove(mono_path_->c_str());
    delete mono_path_;
    mono_path_ = nullptr;
    delete run_;
    run_ = nullptr;
    delete config_;
    config_ = nullptr;
  }

  static const core::Dataset& dataset() { return run_->dataset; }
  static const store::ShardStore& mono() { return *mono_; }
  static const store::ShardStore& shards() { return *shards_; }

  static model::FleetConfig* config_;
  static core::SimulationDataset* run_;
  static std::string* mono_path_;
  static store::ShardStore* mono_;
  static std::string* dir_;
  static store::ShardStore* shards_;
};

model::FleetConfig* ShardEquivalence::config_ = nullptr;
core::SimulationDataset* ShardEquivalence::run_ = nullptr;
std::string* ShardEquivalence::mono_path_ = nullptr;
store::ShardStore* ShardEquivalence::mono_ = nullptr;
std::string* ShardEquivalence::dir_ = nullptr;
store::ShardStore* ShardEquivalence::shards_ = nullptr;

}  // namespace

TEST_F(ShardEquivalence, ManifestTotalsMatchTheRun) {
  const auto& m = shards().manifest();
  EXPECT_EQ(m.shards.size(), 3u);
  EXPECT_EQ(m.events, dataset().events().size());
  EXPECT_EQ(m.disks_total, dataset().inventory().disks.size());
  EXPECT_EQ(m.systems, dataset().inventory().systems.size());
  EXPECT_EQ(m.shelves, dataset().inventory().shelves.size());
  EXPECT_EQ(m.raid_groups, dataset().inventory().raid_groups.size());
  std::uint64_t events = 0;
  for (const auto& info : m.shards) events += info.events;
  EXPECT_EQ(events, m.events);
}

// The degenerate single-shard build must produce THE monolithic file: same
// simulation, same writer, so the one shard is byte-for-byte the store file
// a plain `store build` writes.
TEST_F(ShardEquivalence, SingleShardFileIsByteIdenticalToMonolithicStore) {
  const std::string dir = temp_path("shards_single");
  core::ShardedBuildOptions options;
  options.shards = 1;
  ASSERT_TRUE(core::build_sharded_store(dir, *config_, options).ok());
  store::ShardStore single;
  ASSERT_TRUE(single.open(dir).ok());
  ASSERT_EQ(single.shard_count(), 1u);
  EXPECT_EQ(read_file(dir + "/" + single.info(0).file), read_file(*mono_path_));
  remove_shard_dir(dir);
}

TEST_F(ShardEquivalence, MergedExposureAndMetaAreBitIdentical) {
  expect_exposure_identical(shards().manifest().exposure, mono().exposure());
  EXPECT_TRUE(shards().manifest().meta == mono().meta());
}

TEST_F(ShardEquivalence, AfrMatchesAcrossAllThreeBackends) {
  const auto from_dataset = core::compute_afr(core::Source(dataset()), "whole fleet");
  const auto from_mono = core::compute_afr(core::Source(mono()), "whole fleet");
  const auto from_shards = core::compute_afr(core::Source(shards()), "whole fleet");
  EXPECT_EQ(from_shards.disk_years, from_dataset.disk_years);
  EXPECT_EQ(from_shards.events, from_dataset.events);
  EXPECT_EQ(from_shards.disk_years, from_mono.disk_years);
  EXPECT_EQ(from_shards.events, from_mono.events);
  EXPECT_GT(from_shards.total_events(), 0u);

  const auto by_class_dataset = core::afr_by_class(core::Source(dataset()));
  const auto by_class_shards = core::afr_by_class(core::Source(shards()));
  ASSERT_EQ(by_class_shards.size(), by_class_dataset.size());
  for (std::size_t i = 0; i < by_class_shards.size(); ++i) {
    EXPECT_EQ(by_class_shards[i].label, by_class_dataset[i].label);
    EXPECT_EQ(by_class_shards[i].disk_years, by_class_dataset[i].disk_years);
    EXPECT_EQ(by_class_shards[i].events, by_class_dataset[i].events);
  }
}

TEST_F(ShardEquivalence, TimeBetweenFailuresMatchesAcrossBackends) {
  for (const auto scope : {core::Scope::kShelf, core::Scope::kRaidGroup}) {
    const auto from_dataset = core::time_between_failures(core::Source(dataset()), scope);
    const auto from_shards = core::time_between_failures(core::Source(shards()), scope);
    for (std::size_t series = 0; series < core::kSeriesCount; ++series) {
      EXPECT_EQ(from_shards.gaps[series], from_dataset.gaps[series]);
    }
    EXPECT_GT(from_shards.gap_count(core::kOverallSeries), 0u);
  }
}

TEST_F(ShardEquivalence, CorrelationMatchesAcrossBackends) {
  for (const auto scope : {core::Scope::kShelf, core::Scope::kRaidGroup}) {
    const auto from_dataset =
        core::failure_correlation_all_types(core::Source(dataset()), scope);
    const auto from_shards =
        core::failure_correlation_all_types(core::Source(shards()), scope);
    ASSERT_EQ(from_shards.size(), from_dataset.size());
    for (std::size_t i = 0; i < from_shards.size(); ++i) {
      EXPECT_EQ(from_shards[i].type, from_dataset[i].type);
      EXPECT_EQ(from_shards[i].windows_observed, from_dataset[i].windows_observed);
      EXPECT_EQ(from_shards[i].windows_with_one, from_dataset[i].windows_with_one);
      EXPECT_EQ(from_shards[i].windows_with_two, from_dataset[i].windows_with_two);
    }
  }
}

TEST_F(ShardEquivalence, LifetimeMatchesAcrossBackends) {
  const auto obs_dataset = core::disk_lifetime_observations(core::Source(dataset()));
  const auto obs_shards = core::disk_lifetime_observations(core::Source(shards()));
  ASSERT_EQ(obs_shards.size(), obs_dataset.size());
  for (std::size_t i = 0; i < obs_shards.size(); ++i) {
    EXPECT_EQ(obs_shards[i].duration, obs_dataset[i].duration);
    EXPECT_EQ(obs_shards[i].event, obs_dataset[i].event);
  }

  const auto report_dataset = core::disk_lifetime_report(core::Source(dataset()));
  const auto report_shards = core::disk_lifetime_report(core::Source(shards()));
  EXPECT_EQ(report_shards.disks, report_dataset.disks);
  EXPECT_EQ(report_shards.failures, report_dataset.failures);
  EXPECT_EQ(report_shards.survival.median(), report_dataset.survival.median());
}

TEST_F(ShardEquivalence, QueriesMatchTheSingleFileStore) {
  for (const auto group_by :
       {store::Query::GroupBy::kNone, store::Query::GroupBy::kSystemClass,
        store::Query::GroupBy::kFailureType, store::Query::GroupBy::kDiskFamily}) {
    store::Query query;
    query.group_by = group_by;
    const auto mono_result = store::run_query(mono(), query);
    const auto shard_result = store::run_query(shards(), query);
    expect_query_identical(shard_result, mono_result);
  }

  store::Query windowed;
  windowed.group_by = store::Query::GroupBy::kFailureType;
  windowed.time_begin = 0.25 * config_->horizon_seconds;
  windowed.time_end = 0.5 * config_->horizon_seconds;
  const auto mono_result = store::run_query(mono(), windowed);
  const auto shard_result = store::run_query(shards(), windowed);
  expect_query_identical(shard_result, mono_result);
}

// Full rehydration: the Dataset stitched from the shard directory (global
// id rebasing, two-pass disk order, canonical event re-sort) must equal the
// Dataset the live pipeline produced.
TEST_F(ShardEquivalence, DatasetFromShardsEqualsThePipelineDataset) {
  const core::Dataset rebuilt = core::dataset_from_shards(shards());
  ASSERT_EQ(rebuilt.events().size(), dataset().events().size());
  for (std::size_t i = 0; i < rebuilt.events().size(); ++i) {
    EXPECT_TRUE(rebuilt.events()[i] == dataset().events()[i]) << "event " << i;
  }
  EXPECT_EQ(rebuilt.inventory().systems.size(), dataset().inventory().systems.size());
  EXPECT_EQ(rebuilt.inventory().shelves.size(), dataset().inventory().shelves.size());
  EXPECT_EQ(rebuilt.inventory().disks.size(), dataset().inventory().disks.size());
  EXPECT_EQ(rebuilt.inventory().raid_groups.size(),
            dataset().inventory().raid_groups.size());

  // And the analyses over the rebuilt dataset agree with the originals.
  const auto afr_rebuilt = core::afr_by_class(core::Source(rebuilt));
  const auto afr_original = core::afr_by_class(core::Source(dataset()));
  ASSERT_EQ(afr_rebuilt.size(), afr_original.size());
  for (std::size_t i = 0; i < afr_rebuilt.size(); ++i) {
    EXPECT_EQ(afr_rebuilt[i].disk_years, afr_original[i].disk_years);
    EXPECT_EQ(afr_rebuilt[i].events, afr_original[i].events);
  }
}

TEST_F(ShardEquivalence, SourceReportsTheShardBackend) {
  const core::Source source(shards());
  EXPECT_EQ(source.dataset(), nullptr);
  EXPECT_EQ(source.shards(), &shards());
}

// The storsimd LRU drives the cache through open_shard/release_shard; the
// round trip must be lossless — a released shard reopens to the same view
// and the open_count bookkeeping tracks exactly the mapped set.
TEST_F(ShardEquivalence, OpenShardReleaseShardRoundTrip) {
  store::ShardStore local;
  ASSERT_TRUE(local.open(*dir_).ok());
  EXPECT_EQ(local.open_count(), 0u);  // open() maps nothing

  ASSERT_TRUE(local.open_shard(1).ok());
  EXPECT_TRUE(local.is_open(1));
  EXPECT_FALSE(local.is_open(0));
  EXPECT_EQ(local.open_count(), 1u);
  const std::uint64_t events = local.shard(1).event_count();

  local.release_shard(1);
  EXPECT_FALSE(local.is_open(1));
  EXPECT_EQ(local.open_count(), 0u);
  local.release_shard(1);  // releasing an already-closed shard is a no-op
  EXPECT_EQ(local.open_count(), 0u);

  ASSERT_TRUE(local.open_shard(1).ok());  // revalidates and remaps
  EXPECT_EQ(local.shard(1).event_count(), events);
  ASSERT_TRUE(local.open_shard(1).ok());  // idempotent while mapped
  EXPECT_EQ(local.open_count(), 1u);
}

// ---------------------------------------------------------------------------
// A single STORCOL1 file opens as a one-shard ShardStore: every base zero,
// every global_* the identity, the manifest filled from the file's own
// header and footer, and validation done eagerly at open().
// ---------------------------------------------------------------------------

TEST_F(ShardEquivalence, SingleFileOpensAsOneShardWithZeroBases) {
  store::ShardStore single;
  ASSERT_TRUE(single.open(*mono_path_).ok());
  ASSERT_EQ(single.shard_count(), 1u);
  EXPECT_TRUE(single.is_open(0));  // validated eagerly, not on first touch
  const store::ShardInfo& info = single.info(0);
  EXPECT_EQ(info.system_base, 0u);
  EXPECT_EQ(info.shelf_base, 0u);
  EXPECT_EQ(info.raid_group_base, 0u);
  EXPECT_EQ(info.disk_base, 0u);
  EXPECT_EQ(info.replacement_base, 0u);
  EXPECT_EQ(info.sys_begin, 0u);
  EXPECT_EQ(info.sys_end, info.systems);
  EXPECT_EQ(info.disks_initial, info.disks_total);
  EXPECT_EQ(info.file_size, read_file(*mono_path_).size());

  // The header fields it recorded are exactly the ones a directory build of
  // the same fleet records; only the initial/replacement split differs.
  const store::ShardManifest& m = single.manifest();
  const store::ShardManifest& dir = shards().manifest();
  EXPECT_EQ(m.seed, dir.seed);
  EXPECT_EQ(m.scale, dir.scale);
  EXPECT_EQ(m.horizon_seconds, dir.horizon_seconds);
  EXPECT_EQ(m.systems, dir.systems);
  EXPECT_EQ(m.shelves, dir.shelves);
  EXPECT_EQ(m.raid_groups, dir.raid_groups);
  EXPECT_EQ(m.events, dir.events);
  EXPECT_EQ(m.disks_total, dir.disks_total);
  EXPECT_EQ(m.disks_initial, m.disks_total);
}

TEST_F(ShardEquivalence, SingleFileGlobalIdsAreTheIdentity) {
  const store::ShardStore& single = mono();
  const store::EventStore& file = single.shard(0);
  const auto& h = file.header();
  for (std::uint32_t i = 0; i < h.shelf_count; ++i) {
    ASSERT_EQ(single.global_shelf(0, i), i);
  }
  for (std::uint32_t i = 0; i < h.raid_group_count; ++i) {
    ASSERT_EQ(single.global_raid_group(0, i), i);
  }
  EXPECT_EQ(single.global_raid_group(0, store::ShardStore::kInvalidId),
            store::ShardStore::kInvalidId);
  // Replacement records sit after the initial disks; the directory build
  // knows where that boundary is, so make sure ids past it are covered.
  const std::uint64_t initial = shards().manifest().disks_initial;
  ASSERT_LT(initial, h.disk_count);  // the fleet has replacement disks
  std::size_t replacements = 0;
  for (std::uint32_t i = 0; i < h.disk_count; ++i) {
    ASSERT_EQ(single.global_disk(0, i), i);
    if (i >= initial) ++replacements;
  }
  EXPECT_GT(replacements, 0u);
}

TEST_F(ShardEquivalence, SingleFileManifestIsBitEqualToTheFooter) {
  store::EventStore file;
  ASSERT_TRUE(file.open(*mono_path_).ok());
  expect_exposure_identical(mono().manifest().exposure, file.exposure());
  EXPECT_TRUE(mono().manifest().meta == file.meta());
}

TEST_F(ShardEquivalence, DamagedSingleFileFailsAtOpenWithATypedError) {
  const std::string pristine = read_file(*mono_path_);
  const std::string path = temp_path("shards_single_damaged.store");

  write_file(path, pristine.substr(0, pristine.size() / 2));
  {
    store::ShardStore single;
    EXPECT_EQ(single.open(path).code, store::ErrorCode::kTruncated);
  }

  // Every flip the per-file reader rejects, the one-shard open() rejects
  // too, with the same code — there is no lazy second chance to catch it.
  std::size_t rejected = 0;
  for (const std::size_t pos : {std::size_t{12}, store::kHeaderSize + 1,
                                pristine.size() / 3, pristine.size() / 2,
                                pristine.size() - 16}) {
    std::string mutated = pristine;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    store::EventStore reference;
    const store::Error expected = reference.open_image(mutated);
    write_file(path, mutated);
    store::ShardStore single;
    const store::Error err = single.open(path);
    EXPECT_EQ(err.code, expected.code) << "pos " << pos;
    if (!err.ok()) ++rejected;
  }
  EXPECT_GT(rejected, 0u);

  // Neither a store file nor a shard directory: the typed bad-magic error.
  write_file(path, "this is not a column store, it is a long enough line of text");
  {
    store::ShardStore single;
    EXPECT_EQ(single.open(path).code, store::ErrorCode::kBadMagic);
  }
  std::remove(path.c_str());
}

// A one-shard directory and the same fleet's single file must render every
// statistic to the same bytes through the one entry point front ends use.
TEST_F(ShardEquivalence, OneShardDirectoryAndFileRenderIdentically) {
  const std::string dir = temp_path("shards_one_vs_file");
  core::ShardedBuildOptions options;
  options.shards = 1;
  ASSERT_TRUE(core::build_sharded_store(dir, *config_, options).ok());
  store::ShardStore one;
  ASSERT_TRUE(one.open(dir).ok());
  ASSERT_TRUE(one.open_all().ok());

  core::RequestParams grouped;
  grouped.group_by = "class";
  core::RequestParams windowed;
  windowed.type = "disk";
  windowed.from_days = 30;
  windowed.to_days = 300;
  for (const core::StatisticId id : core::kAllStatistics) {
    std::vector<core::RequestParams> variants{core::RequestParams{}};
    if (id == core::StatisticId::kQuery) {
      variants.push_back(grouped);
      variants.push_back(windowed);
    }
    for (const auto& params : variants) {
      for (const bool csv : {false, true}) {
        core::AnalysisRequest request;
        ASSERT_TRUE(core::AnalysisRequest::from_params(id, params, csv, &request).ok());
        const std::string from_dir = core::render_statistic(core::Source(one), request);
        EXPECT_EQ(from_dir, core::render_statistic(core::Source(mono()), request))
            << core::endpoint_name(id) << (csv ? " csv" : "");
        EXPECT_FALSE(from_dir.empty());
      }
    }
  }
  remove_shard_dir(dir);
}

// The sharded writer fans shards across the pool into disjoint slots; the
// directory must come out byte-identical for every thread count.
TEST(ShardedBuildThreadInvariance, DirectoryBytesIdenticalAcrossThreadCounts) {
  const auto config = model::standard_fleet_config(0.02, 7);
  core::ShardedBuildOptions options;
  options.shards = 4;

  const std::string dir_serial = temp_path("shards_t1");
  util::set_thread_count(1);
  ASSERT_TRUE(core::build_sharded_store(dir_serial, config, options).ok());

  const std::string dir_pool = temp_path("shards_t3");
  util::set_thread_count(3);
  ASSERT_TRUE(core::build_sharded_store(dir_pool, config, options).ok());
  util::set_thread_count(0);

  store::ShardStore a;
  store::ShardStore b;
  ASSERT_TRUE(a.open(dir_serial).ok());
  ASSERT_TRUE(b.open(dir_pool).ok());
  ASSERT_EQ(a.shard_count(), b.shard_count());
  for (std::size_t s = 0; s < a.shard_count(); ++s) {
    EXPECT_EQ(read_file(dir_serial + "/" + a.info(s).file),
              read_file(dir_pool + "/" + b.info(s).file))
        << "shard " << s;
  }

  // MANIFEST text matches too, modulo the peak-RSS stamp (a property of the
  // building process, monotone within this one, so later build >= earlier).
  store::ShardManifest ma = a.manifest();
  store::ShardManifest mb = b.manifest();
  ma.peak_rss_bytes = 0;
  mb.peak_rss_bytes = 0;
  EXPECT_EQ(store::render_manifest(ma), store::render_manifest(mb));

  remove_shard_dir(dir_serial);
  remove_shard_dir(dir_pool);
}

// ---------------------------------------------------------------------------
// Corruption: every damaged directory yields a typed Error (or, where a
// mutation lands in bytes no invariant covers, an open that still answers
// consistently) — never UB, never a crash.
// ---------------------------------------------------------------------------

namespace {

/// Builds a small 2-shard directory and hands back its path + manifest text.
class ShardCorruption : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(temp_path("shards_corrupt"));
    core::ShardedBuildOptions options;
    options.shards = 2;
    ASSERT_TRUE(core::build_sharded_store(
                    *dir_, model::standard_fleet_config(0.01, 99), options)
                    .ok());
    manifest_path_ = new std::string(*dir_ + "/" + std::string(store::kManifestFileName));
    manifest_text_ = new std::string(read_file(*manifest_path_));
    ASSERT_FALSE(manifest_text_->empty());
    shard0_path_ = new std::string(*dir_ + "/shard-0000.store");
    shard0_bytes_ = new std::string(read_file(*shard0_path_));
    ASSERT_FALSE(shard0_bytes_->empty());
  }
  static void TearDownTestSuite() {
    write_file(*manifest_path_, *manifest_text_);  // restore before cleanup
    write_file(*shard0_path_, *shard0_bytes_);
    remove_shard_dir(*dir_);
    delete shard0_bytes_;
    shard0_bytes_ = nullptr;
    delete shard0_path_;
    shard0_path_ = nullptr;
    delete manifest_text_;
    manifest_text_ = nullptr;
    delete manifest_path_;
    manifest_path_ = nullptr;
    delete dir_;
    dir_ = nullptr;
  }
  /// Every mutating test restores the pristine files on exit.
  void TearDown() override {
    write_file(*manifest_path_, *manifest_text_);
    write_file(*shard0_path_, *shard0_bytes_);
  }

  static std::string* dir_;
  static std::string* manifest_path_;
  static std::string* manifest_text_;
  static std::string* shard0_path_;
  static std::string* shard0_bytes_;
};

std::string* ShardCorruption::dir_ = nullptr;
std::string* ShardCorruption::manifest_path_ = nullptr;
std::string* ShardCorruption::manifest_text_ = nullptr;
std::string* ShardCorruption::shard0_path_ = nullptr;
std::string* ShardCorruption::shard0_bytes_ = nullptr;

}  // namespace

TEST_F(ShardCorruption, MissingManifestIsTyped) {
  std::remove(manifest_path_->c_str());
  store::ShardStore shards;
  const auto err = shards.open(*dir_);
  EXPECT_FALSE(err.ok());
  EXPECT_NE(err.code, store::ErrorCode::kOk);
}

TEST_F(ShardCorruption, TruncatedManifestIsTyped) {
  const std::size_t len = manifest_text_->size();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{1}, std::size_t{10},
                                 len / 2}) {
    write_file(*manifest_path_, manifest_text_->substr(0, keep));
    store::ShardStore shards;
    const auto err = shards.open(*dir_);
    EXPECT_FALSE(err.ok()) << "kept " << keep << " of " << len << " bytes";
  }
  // Dropping only the trailing newline leaves the CRC line intact — the one
  // truncation that may legitimately still parse, and then it must parse to
  // exactly the pristine manifest.
  write_file(*manifest_path_, manifest_text_->substr(0, len - 1));
  store::ShardStore shards;
  store::ShardManifest reference;
  ASSERT_TRUE(store::parse_manifest(*manifest_text_, &reference).ok());
  if (shards.open(*dir_).ok()) {
    EXPECT_EQ(store::render_manifest(shards.manifest()),
              store::render_manifest(reference));
  }
}

// Exhaustive single-byte fuzz of the MANIFEST through the parser: every
// mutation must either be rejected with a typed Error (the CRC line covers
// the whole text) or — if it lands in bytes outside every invariant —
// produce a manifest identical to the pristine parse.
TEST_F(ShardCorruption, ManifestByteFlipsAreRejectedOrHarmless) {
  store::ShardManifest reference;
  ASSERT_TRUE(store::parse_manifest(*manifest_text_, &reference).ok());
  const std::string reference_render = store::render_manifest(reference);

  std::size_t rejected = 0;
  for (std::size_t pos = 0; pos < manifest_text_->size(); ++pos) {
    std::string mutated = *manifest_text_;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    store::ShardManifest parsed;
    const auto err = store::parse_manifest(mutated, &parsed);
    if (err.ok()) {
      EXPECT_EQ(store::render_manifest(parsed), reference_render) << "pos " << pos;
    } else {
      EXPECT_NE(err.code, store::ErrorCode::kOk) << "pos " << pos;
      ++rejected;
    }
  }
  // The CRC must actually bite: virtually every flip is a rejection.
  EXPECT_GT(rejected, manifest_text_->size() / 2);
}

TEST_F(ShardCorruption, ReorderedManifestLinesAreTyped) {
  const std::size_t first_nl = manifest_text_->find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  const std::size_t second_nl = manifest_text_->find('\n', first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  const std::string line1 = manifest_text_->substr(0, first_nl + 1);
  const std::string line2 = manifest_text_->substr(first_nl + 1, second_nl - first_nl);
  const std::string swapped = line2 + line1 + manifest_text_->substr(second_nl + 1);
  ASSERT_NE(swapped, *manifest_text_);
  store::ShardManifest parsed;
  EXPECT_FALSE(store::parse_manifest(swapped, &parsed).ok());
}

TEST_F(ShardCorruption, MissingShardFileIsTyped) {
  std::remove(shard0_path_->c_str());
  store::ShardStore shards;
  const auto err = shards.open(*dir_);
  EXPECT_FALSE(err.ok());
}

TEST_F(ShardCorruption, TruncatedShardFileIsTyped) {
  write_file(*shard0_path_, shard0_bytes_->substr(0, shard0_bytes_->size() / 2));
  store::ShardStore shards;
  EXPECT_FALSE(shards.open(*dir_).ok());
}

TEST_F(ShardCorruption, ShardHeaderCorruptionIsCaughtAtOpen) {
  std::string mutated = *shard0_bytes_;
  mutated[4] = static_cast<char>(mutated[4] ^ 0x5a);  // inside the header
  write_file(*shard0_path_, mutated);
  store::ShardStore shards;
  EXPECT_FALSE(shards.open(*dir_).ok());  // header CRC cross-check fires
}

// Body corruption is past the cheap open()-time checks; it must surface as
// a typed Error on first full validation (open_shard) rather than a broken
// view.
TEST_F(ShardCorruption, ShardBodyCorruptionIsCaughtOnFirstAccess) {
  std::size_t caught = 0;
  const std::size_t size = shard0_bytes_->size();
  for (const std::size_t pos : {store::kHeaderSize + 1, size / 3, size / 2,
                                2 * size / 3, size - 16}) {
    std::string mutated = *shard0_bytes_;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    write_file(*shard0_path_, mutated);

    store::ShardStore shards;
    if (!shards.open(*dir_).ok()) {
      ++caught;  // mutation landed in header/size-checked territory
      continue;
    }
    const auto err = shards.open_shard(0);
    if (!err.ok()) {
      EXPECT_NE(err.code, store::ErrorCode::kOk) << "pos " << pos;
      ++caught;
    } else {
      // Landed in padding no invariant covers: the shard must still answer.
      EXPECT_EQ(shards.shard(0).event_count(), shards.info(0).events);
    }
  }
  EXPECT_GT(caught, 0u);  // the column/footer CRCs must actually bite
}

// Regression: a shard failing lazy validation must name the offending file
// in the error detail. A mid-analysis failure over a directory of dozens of
// shards is undebuggable when the error says only "bad CRC".
TEST_F(ShardCorruption, LazyValidationErrorNamesTheShardPath) {
  std::size_t named = 0;
  const std::size_t size = shard0_bytes_->size();
  for (const std::size_t pos : {store::kHeaderSize + 1, size / 3, size / 2,
                                2 * size / 3, size - 16}) {
    std::string mutated = *shard0_bytes_;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    write_file(*shard0_path_, mutated);

    store::ShardStore shards;
    if (!shards.open(*dir_).ok()) continue;  // caught by the cheap checks
    const auto err = shards.open_shard(0);
    if (err.ok()) continue;  // landed in padding no invariant covers
    EXPECT_NE(err.detail.find("shard-0000.store"), std::string::npos)
        << "pos " << pos << ": " << err.describe();
    ++named;
  }
  EXPECT_GT(named, 0u);  // at least one flip must reach lazy validation
}

// The MANIFEST is the commit record: shard files alone are not a store.
TEST_F(ShardCorruption, ShardFilesWithoutAManifestAreNotAStore) {
  ASSERT_EQ(std::remove(manifest_path_->c_str()), 0);
  store::ShardStore shards;
  EXPECT_EQ(shards.open(*dir_).code, store::ErrorCode::kBadMagic);
}

// A shard replaced after open() (a rebuild in place) is held to the MANIFEST
// the store was opened with: the lazy open fails typed and names the file
// instead of mixing the new shard's events into the old exposure.
TEST_F(ShardCorruption, AShardReplacedAfterOpenFailsItsLazyOpenTyped) {
  store::ShardStore shards;
  ASSERT_TRUE(shards.open(*dir_).ok());
  ASSERT_FALSE(shards.is_open(0));
  write_file(*shard0_path_, read_file(*dir_ + "/shard-0001.store"));  // valid, but not shard 0
  const auto err = shards.open_shard(0);
  EXPECT_TRUE(err.code == store::ErrorCode::kTruncated ||
              err.code == store::ErrorCode::kChecksum)
      << err.describe();
  EXPECT_NE(err.detail.find("shard-0000.store"), std::string::npos) << err.describe();
  EXPECT_FALSE(shards.is_open(0));
}

TEST(ShardedBuildPublication, AFailedRebuildLeavesNoManifestBehind) {
  const std::string dir = temp_path("shards_failed_rebuild");
  const auto config = model::standard_fleet_config(0.01, 7);
  core::ShardedBuildOptions options;
  options.shards = 2;
  ASSERT_TRUE(core::build_sharded_store(dir, config, options).ok());
  store::ShardStore before;
  ASSERT_TRUE(before.open(dir).ok());

  // A directory squatting on the second shard's name makes its publish fail.
  const std::string squatter = dir + "/shard-0001.store";
  ASSERT_EQ(std::remove(squatter.c_str()), 0);
  ASSERT_EQ(::mkdir(squatter.c_str(), 0775), 0);
  EXPECT_FALSE(core::build_sharded_store(dir, config, options).ok());

  store::ShardStore after;
  EXPECT_EQ(after.open(dir).code, store::ErrorCode::kBadMagic)
      << "old MANIFEST over a half-rebuilt directory";
  ::rmdir(squatter.c_str());
  remove_shard_dir(dir);
}
