#include "core/sharded_build.h"

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "core/store_bridge.h"
#include "obs/obs.h"
#include "util/parallel.h"
#include "util/rss.h"

namespace storsubsim::core {

namespace {

/// Creates `dir` if it does not exist yet (one level; the parent must
/// exist). Returns false when the path exists but is not a directory, or
/// the creation fails.
bool ensure_directory(const std::string& dir) {
  struct ::stat st {};
  if (::stat(dir.c_str(), &st) == 0) return S_ISDIR(st.st_mode);
  return ::mkdir(dir.c_str(), 0775) == 0;
}

std::string shard_file_name(std::size_t index) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "shard-%04zu.store", index);
  return std::string(buf);
}

}  // namespace

store::Error build_sharded_store(const std::string& dir, const model::FleetConfig& config,
                                 const ShardedBuildOptions& options,
                                 ShardedBuildResult* result) {
  obs::Span span("store.sharded_build");
  if (!ensure_directory(dir)) {
    return store::Error{store::ErrorCode::kIo, "cannot create shard directory"};
  }
  // The MANIFEST is the commit record: withdraw the old one before any shard
  // is replaced and publish the new one only after every shard is, so an
  // opener sees the old generation, the new one, or no store — never a mix.
  const std::string manifest_path = dir + '/' + std::string(store::kManifestFileName);
  if (::unlink(manifest_path.c_str()) != 0 && errno != ENOENT) {
    return store::Error{store::ErrorCode::kIo,
                        std::string("cannot withdraw ").append(manifest_path)};
  }

  // Plan pass: cumulative topology counts in bounded memory. Everything the
  // chunking decisions need, without building the fleet.
  const model::FleetPlan plan = model::Fleet::plan(config);
  const std::size_t n_systems = plan.system_count();
  if (n_systems == 0) {
    return store::Error{store::ErrorCode::kBadValue, "empty fleet config"};
  }
  const std::uint64_t total_disks = plan.disks.back();
  const std::uint64_t budget_bytes = options.max_rss_mb * 1024 * 1024;

  std::size_t shards = options.shards;
  if (shards == 0) {
    if (budget_bytes > 0) {
      // Smallest shard count whose single-chunk working set fits the budget.
      shards = static_cast<std::size_t>(
          (total_disks * kBuildBytesPerDisk + budget_bytes - 1) / budget_bytes);
      if (shards == 0) shards = 1;
    } else {
      shards = 1;
    }
  }
  shards = std::min(shards, n_systems);
  if (shards == 0) shards = 1;

  // A budget also caps how many chunks may be resident at once.
  unsigned build_threads = 0;  // 0 = resolved thread_count()
  if (budget_bytes > 0) {
    const std::uint64_t chunk_disks = (total_disks + shards - 1) / shards;
    const std::uint64_t chunk_bytes = chunk_disks * kBuildBytesPerDisk;
    const std::uint64_t in_flight = chunk_bytes == 0 ? 1 : budget_bytes / chunk_bytes;
    build_threads = static_cast<unsigned>(std::clamp<std::uint64_t>(
        in_flight, 1, util::thread_count()));
  }

  STORSIM_OBS_COUNTER(c_shards, "store.sharded_build.shards",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_shards, shards);

  const std::vector<std::size_t> bounds = chunk_bounds(plan, shards);

  // Per-shard outputs land in disjoint slots; the fan-out is bit-identical
  // to the serial loop because each chunk depends only on (config, range).
  std::vector<store::ShardInfo> infos(shards);
  std::vector<store::Error> errors(shards);
  std::vector<double> seconds(shards, 0.0);

  util::parallel_for(
      shards,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          obs::Span shard_span("store.build_shard");
          const std::size_t sys_begin = bounds[s];
          const std::size_t sys_end = bounds[s + 1];

          const SimulationDataset chunk =
              run_chunk(config, options.params, sys_begin, sys_end,
                        plan.shelves[sys_begin], /*through_text_logs=*/true);
          const Dataset::Part& part = chunk.dataset.parts()[0];
          const log::Inventory& inv = *part.inventory;

          store::ShardInfo& info = infos[s];
          info.file = shard_file_name(s);
          info.sys_begin = sys_begin;
          info.sys_end = sys_end;
          info.systems = inv.systems.size();
          info.shelves = inv.shelves.size();
          info.raid_groups = inv.raid_groups.size();
          info.disks_initial = part.ids.disks_initial;
          info.disks_total = inv.disks.size();
          info.events = part.events.size();

          std::string path = dir;
          path += '/';
          path += info.file;
          errors[s] = write_store(path, chunk, config.seed, config.scale);
          seconds[s] = shard_span.stop();
        }
      },
      build_threads);

  for (const auto& err : errors) {
    if (!err.ok()) return err;
  }

  // Merge pass: re-open each shard (full validation) and accumulate the
  // exposure table in the monolithic order, plus the summed meta counters.
  store::ShardManifest manifest;
  manifest.seed = config.seed;
  manifest.scale = config.scale;
  manifest.horizon_seconds = config.horizon_seconds;
  manifest.shards = std::move(infos);
  if (store::Error err =
          store::merge_shard_tables(dir, &manifest.shards, config.horizon_seconds,
                                    &manifest.exposure, &manifest.meta);
      !err.ok()) {
    return err;
  }
  for (const auto& info : manifest.shards) {
    manifest.systems += info.systems;
    manifest.shelves += info.shelves;
    manifest.disks_initial += info.disks_initial;
    manifest.disks_total += info.disks_total;
    manifest.raid_groups += info.raid_groups;
    manifest.events += info.events;
  }
  manifest.peak_rss_bytes = util::peak_rss_bytes();
  STORSIM_OBS_COUNTER(c_rss, "store.sharded_build.peak_rss_bytes",
                      ::storsubsim::obs::Stability::kSchedulingDependent);
  STORSIM_OBS_ADD(c_rss, manifest.peak_rss_bytes);

  if (store::Error err = store::write_manifest_file(dir, manifest); !err.ok()) {
    return err;
  }

  if (result != nullptr) {
    result->shards = manifest.shards.size();
    result->events = manifest.events;
    result->disk_records = manifest.disks_total;
    result->peak_rss_bytes = manifest.peak_rss_bytes;
    result->shard_build_seconds = std::move(seconds);
  }
  return store::Error{};
}

}  // namespace storsubsim::core
