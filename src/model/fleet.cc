#include "model/fleet.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/distributions.h"
#include "stats/rng.h"

namespace storsubsim::model {

namespace {

using stats::Rng;

DiskModelName pick_from_mix(const std::vector<DiskMixEntry>& mix, Rng& rng) {
  double total = 0.0;
  for (const auto& e : mix) total += e.weight;
  double u = rng.uniform() * total;
  for (const auto& e : mix) {
    u -= e.weight;
    if (u <= 0.0) return e.model;
  }
  return mix.back().model;
}

}  // namespace

std::uint32_t RaidGroup::shelf_span() const {
  // A group has a few dozen members at most, so a quadratic scan beats a
  // std::set's node allocation per member (the snapshot writer asks once
  // per group).
  std::uint32_t span = 0;
  for (auto m = members.begin(); m != members.end(); ++m) {
    const bool first_on_shelf = std::none_of(
        members.begin(), m, [&](const SlotRef& earlier) { return earlier.shelf == m->shelf; });
    if (first_on_shelf) ++span;
  }
  return span;
}

Fleet::Fleet(const FleetConfig& config, const DiskModelRegistry& disk_models,
             const ShelfModelRegistry& shelf_models)
    : config_(config), disk_models_(&disk_models), shelf_models_(&shelf_models) {}

Fleet Fleet::build(const FleetConfig& config) {
  return build(config, DiskModelRegistry::standard(), ShelfModelRegistry::standard());
}

void Fleet::append_system(const CohortSpec& cohort, std::uint32_t cohort_idx,
                          const ShelfModelInfo& shelf_info, stats::Rng rng) {
  const FleetConfig& config = config_;

  System system;
  system.id = SystemId(static_cast<std::uint32_t>(systems_.size()));
  system.cls = cohort.cls;
  system.cohort = cohort_idx;
  system.shelf_model = cohort.shelf_model;
  system.disk_model = pick_from_mix(cohort.disk_mix, rng);
  system.paths = rng.bernoulli(cohort.dual_path_fraction) ? PathConfig::kDualPath
                                                          : PathConfig::kSinglePath;
  // Back-loadable deployment curve: u^(1/skew) biases toward the window
  // end for skew > 1 (a growing installed base).
  system.deploy_time = config.deploy_window_fraction * config.horizon_seconds *
                       std::pow(rng.uniform(), 1.0 / config.deploy_skew);

  // Shelf count: 1 + Poisson(mean - 1) keeps the mean while guaranteeing
  // at least one shelf.
  const double extra_mean = std::max(0.0, cohort.mean_shelves_per_system - 1.0);
  const std::uint64_t n_shelves =
      1 + (extra_mean > 0.0 ? stats::Poisson(extra_mean).sample(rng) : 0);

  // Build shelves and install initial disks.
  for (std::uint64_t sh = 0; sh < n_shelves; ++sh) {
    Shelf shelf;
    shelf.id = ShelfId(static_cast<std::uint32_t>(shelves_.size()));
    shelf.system = system.id;
    shelf.model = cohort.shelf_model;
    shelf.index_in_system = static_cast<std::uint32_t>(sh);
    shelf.slots.fill(DiskId{});

    const double jitter = stats::sample_standard_normal(rng) * 1.5;
    const double target = cohort.mean_disks_per_shelf + jitter;
    const auto max_slots = shelf_info.slots;
    std::uint32_t n_disks = static_cast<std::uint32_t>(
        std::clamp(std::lround(target), 1L, static_cast<long>(max_slots)));

    for (std::uint32_t slot = 0; slot < n_disks; ++slot) {
      DiskRecord disk;
      disk.id = DiskId(static_cast<std::uint32_t>(disks_.size()));
      disk.model = system.disk_model;
      disk.system = system.id;
      disk.shelf = shelf.id;
      disk.slot = slot;
      disk.install_time = system.deploy_time;
      shelf.slots[slot] = disk.id;
      ++shelf.occupied_slots;
      disks_.push_back(disk);
    }
    system.shelves.push_back(shelf.id);
    shelves_.push_back(shelf);
  }

  // Assemble RAID groups: partition the system's shelves into span sets
  // of `raid_span_shelves` consecutive shelves, interleave each set's
  // slots round-robin across its shelves, then chunk into groups — so a
  // group of size G spans min(G, span, shelves-in-set) shelves, matching
  // the paper's "a RAID group on average spans about 3 shelves".
  const std::size_t span = std::max<std::size_t>(1, cohort.raid_span_shelves);
  for (std::size_t set_start = 0; set_start < system.shelves.size(); set_start += span) {
    const std::size_t set_end = std::min(set_start + span, system.shelves.size());
    std::vector<SlotRef> interleaved;
    for (std::uint32_t slot = 0; slot < kShelfSlots; ++slot) {
      for (std::size_t i = set_start; i < set_end; ++i) {
        const Shelf& shelf = shelves_[system.shelves[i].value()];
        if (slot < shelf.occupied_slots) {
          interleaved.push_back(SlotRef{shelf.id, slot});
        }
      }
    }
    for (std::size_t start = 0; start < interleaved.size();
         start += cohort.raid_group_size) {
      const std::size_t end = std::min(start + cohort.raid_group_size, interleaved.size());
      std::vector<SlotRef> members(interleaved.begin() + static_cast<std::ptrdiff_t>(start),
                                   interleaved.begin() + static_cast<std::ptrdiff_t>(end));
      if (members.size() < 2 && !raid_groups_.empty() &&
          raid_groups_.back().system == system.id) {
        // A 1-disk remainder is not a RAID group; merge it into the
        // previous group of the same system.
        for (const auto& m : members) {
          raid_groups_.back().members.push_back(m);
        }
        continue;
      }
      RaidGroup group;
      group.id = RaidGroupId(static_cast<std::uint32_t>(raid_groups_.size()));
      group.system = system.id;
      group.type =
          rng.bernoulli(cohort.raid6_fraction) ? RaidType::kRaid6 : cohort.raid_type;
      group.members = std::move(members);
      system.raid_groups.push_back(group.id);
      raid_groups_.push_back(std::move(group));
    }
  }

  systems_.push_back(std::move(system));
}

void Fleet::finish_build() {
  // Back-fill RAID group membership onto the initial disk records.
  for (const RaidGroup& group : raid_groups_) {
    for (const SlotRef& ref : group.members) {
      const DiskId occupant = shelves_[ref.shelf.value()].slots[ref.slot];
      if (occupant.valid()) disks_[occupant.value()].raid_group = group.id;
    }
  }
  initial_disk_count_ = disks_.size();
}

Fleet Fleet::build(const FleetConfig& config, const DiskModelRegistry& disk_models,
                   const ShelfModelRegistry& shelf_models) {
  return build_chunk(config, disk_models, shelf_models, 0, config.total_systems());
}

Fleet Fleet::build_chunk(const FleetConfig& config, std::size_t sys_begin,
                         std::size_t sys_end) {
  return build_chunk(config, DiskModelRegistry::standard(), ShelfModelRegistry::standard(),
                     sys_begin, sys_end);
}

Fleet Fleet::build_chunk(const FleetConfig& config, const DiskModelRegistry& disk_models,
                         const ShelfModelRegistry& shelf_models, std::size_t sys_begin,
                         std::size_t sys_end) {
  validate(config);
  Fleet fleet(config, disk_models, shelf_models);

  Rng root = stats::make_root_rng(config.seed);
  Rng build_rng = root.stream("fleet-build");

  // Walk every global system index up to sys_end. Forks before sys_begin
  // are replayed and discarded: fork() consumes a fixed amount of parent
  // entropy regardless of key, so this positions build_rng exactly where
  // the monolithic build would have it — each built system then samples
  // from the identical per-system stream.
  std::size_t g = 0;
  for (std::uint32_t cohort_idx = 0; cohort_idx < config.cohorts.size() && g < sys_end;
       ++cohort_idx) {
    const CohortSpec& cohort = config.cohorts[cohort_idx];
    const std::size_t n_systems = config.scaled_systems(cohort);
    const ShelfModelInfo& shelf_info = shelf_models.at(cohort.shelf_model);

    for (std::size_t s = 0; s < n_systems && g < sys_end; ++s, ++g) {
      Rng rng = build_rng.fork(static_cast<std::uint64_t>(cohort_idx) << 32u |
                               static_cast<std::uint64_t>(s));
      if (g < sys_begin) continue;
      fleet.append_system(cohort, cohort_idx, shelf_info, rng);
    }
  }

  fleet.finish_build();
  return fleet;
}

FleetPlan Fleet::plan(const FleetConfig& config) {
  return plan(config, DiskModelRegistry::standard(), ShelfModelRegistry::standard());
}

FleetPlan Fleet::plan(const FleetConfig& config, const DiskModelRegistry& disk_models,
                      const ShelfModelRegistry& shelf_models) {
  validate(config);
  Fleet scratch(config, disk_models, shelf_models);

  Rng root = stats::make_root_rng(config.seed);
  Rng build_rng = root.stream("fleet-build");

  FleetPlan out;
  const std::size_t total = config.total_systems();
  out.shelves.reserve(total + 1);
  out.disks.reserve(total + 1);
  out.raid_groups.reserve(total + 1);
  out.shelves.push_back(0);
  out.disks.push_back(0);
  out.raid_groups.push_back(0);

  std::uint64_t shelves = 0;
  std::uint64_t disks = 0;
  std::uint64_t raid_groups = 0;
  for (std::uint32_t cohort_idx = 0; cohort_idx < config.cohorts.size(); ++cohort_idx) {
    const CohortSpec& cohort = config.cohorts[cohort_idx];
    const std::size_t n_systems = config.scaled_systems(cohort);
    const ShelfModelInfo& shelf_info = shelf_models.at(cohort.shelf_model);

    for (std::size_t s = 0; s < n_systems; ++s) {
      // Reset the scratch topology so only one system is ever materialized.
      // Local ids restart at 0 each iteration; ids never influence sampling
      // or counts, and the RAID remainder-merge guard only ever merges
      // within one system, so the counts match the monolithic build.
      scratch.systems_.clear();
      scratch.shelves_.clear();
      scratch.disks_.clear();
      scratch.raid_groups_.clear();
      scratch.append_system(cohort, cohort_idx, shelf_info,
                            build_rng.fork(static_cast<std::uint64_t>(cohort_idx) << 32u |
                                           static_cast<std::uint64_t>(s)));
      shelves += scratch.shelves_.size();
      disks += scratch.disks_.size();
      raid_groups += scratch.raid_groups_.size();
      out.shelves.push_back(shelves);
      out.disks.push_back(disks);
      out.raid_groups.push_back(raid_groups);
    }
  }
  return out;
}

DiskId Fleet::disk_in(const SlotRef& ref) const {
  return shelves_[ref.shelf.value()].slots[ref.slot];
}

DiskId Fleet::occupant_at(const SlotRef& ref, double t) const {
  DiskId current = disk_in(ref);
  while (current.valid()) {
    const DiskRecord& rec = disks_[current.value()];
    if (t >= rec.install_time) {
      return t < rec.remove_time ? current : DiskId{};
    }
    current = rec.predecessor;
  }
  return DiskId{};
}

DiskId Fleet::replace_disk(DiskId failed, double remove_time, double install_time) {
  if (!failed.valid() || failed.value() >= disks_.size()) {
    throw std::out_of_range("Fleet::replace_disk: bad disk id");
  }
  DiskRecord& old = disks_[failed.value()];
  if (remove_time < old.install_time) {
    throw std::invalid_argument("Fleet::replace_disk: removal precedes install");
  }
  if (install_time < remove_time) {
    throw std::invalid_argument("Fleet::replace_disk: replacement precedes removal");
  }
  old.remove_time = remove_time;

  DiskRecord fresh = old;  // same model / slot / group / system
  fresh.id = DiskId(static_cast<std::uint32_t>(disks_.size()));
  fresh.predecessor = old.id;
  fresh.install_time = install_time;
  fresh.remove_time = std::numeric_limits<double>::infinity();
  shelves_[old.shelf.value()].slots[old.slot] = fresh.id;
  disks_.push_back(fresh);
  return fresh.id;
}

double Fleet::total_disk_exposure_years() const {
  double total = 0.0;
  for (const auto& d : disks_) {
    total += exposure_years(d.install_time, d.remove_time, config_.horizon_seconds);
  }
  return total;
}

std::array<char, 12> serial_chars(DiskId id) {
  // Base-36 rendering of the id, embedded in a plausible-looking serial.
  static constexpr char kAlphabet[] = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  std::uint64_t v = stats::mix64(id.value() + 0x5EED);
  std::array<char, 12> out{'S', 'N'};
  for (std::size_t i = 2; i < out.size(); ++i) {
    out[i] = kAlphabet[v % 36];
    v /= 36;
  }
  return out;
}

std::string serial_for(DiskId id) {
  const auto chars = serial_chars(id);
  return std::string(chars.data(), chars.size());
}

}  // namespace storsubsim::model
