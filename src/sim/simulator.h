// The fleet failure simulator.
//
// Generates the four storage-subsystem failure types over the study horizon
// for every disk in a Fleet, according to the causal model in SimParams:
//
//   disk failures        per-slot renewal chains (base hazard x shelf badness
//                        x environment episodes x infant mortality), plus
//                        Hawkes-triggered follow-on failures on shelf-mates;
//                        failed disks are replaced after a repair delay.
//   physical interconnect shelf-level fault events (backplane/intra-shelf)
//                        and path-level fault events (HBA/cable); each fault
//                        makes a random subset of reachable disks "missing".
//                        Dual-path systems mask a fraction of path faults.
//   protocol             per-system base hazard modulated by driver-bug
//                        windows; events land on random disks of the system.
//   performance          per-shelf base hazard modulated by congestion
//                        windows.
//
// Failures are *detected* up to one scrub period after they occur; analysis
// sees detection times, as in the paper.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "model/enums.h"
#include "model/fleet.h"
#include "sim/params.h"
#include "stats/rng.h"

namespace storsubsim::sim {

struct SimFailure {
  double occur_time = 0.0;
  double detect_time = 0.0;
  model::DiskId disk;
  model::SystemId system;
  model::FailureType type = model::FailureType::kDisk;
};

struct SimCounters {
  std::array<std::size_t, 4> events_by_type{};
  std::size_t replacements = 0;
  std::size_t triggered_disk_failures = 0;
  std::size_t shelf_faults = 0;
  std::size_t path_faults = 0;
  std::size_t masked_path_faults = 0;

  std::size_t total_events() const {
    std::size_t n = 0;
    for (const auto c : events_by_type) n += c;
    return n;
  }

  /// Field-wise sum: the counters of two disjoint parts of one fleet.
  SimCounters& operator+=(const SimCounters& other) {
    for (std::size_t i = 0; i < events_by_type.size(); ++i) {
      events_by_type[i] += other.events_by_type[i];
    }
    replacements += other.replacements;
    triggered_disk_failures += other.triggered_disk_failures;
    shelf_faults += other.shelf_faults;
    path_faults += other.path_faults;
    masked_path_faults += other.masked_path_faults;
    return *this;
  }
};

struct SimResult {
  /// All failures, sorted by detection time.
  std::vector<SimFailure> failures;
  SimCounters counters;
};

/// Global index offsets for the per-shelf/per-system RNG substream keys.
/// A chunked build hands the simulator a fleet whose dense ids are local to
/// the chunk; supplying the chunk's global bases here makes every substream
/// key match the monolithic run's, so a chunk simulates bit-identically to
/// the same slice of the whole-fleet simulation. The default (all zeros) is
/// the monolithic case.
struct SimIndexBases {
  std::uint64_t system = 0;
  std::uint64_t shelf = 0;
};

class Simulator {
 public:
  /// The simulator mutates `fleet` (disk replacements); `fleet` must outlive
  /// the simulator.
  Simulator(model::Fleet& fleet, SimParams params, SimIndexBases bases = {});

  /// Runs the whole horizon, fanning shelf- and system-scope processes out
  /// across util::thread_count() workers. Deterministic for a given fleet
  /// config/seed and params, and bit-identical for any thread count: every
  /// shelf/system draws from its own named RNG substream, shelves simulate
  /// against shelf-local occupancy overlays, and disk replacements are
  /// replayed against the fleet serially in shelf order. Call at most once
  /// per Simulator instance.
  SimResult run();

 private:
  struct ShelfContext;

  /// A disk replacement recorded during the parallel shelf phase, applied
  /// to the fleet later by the serial replay.
  struct PendingReplacement {
    double remove_time = 0.0;
    double install_time = 0.0;
    std::uint32_t slot = 0;
  };

  /// Everything one shelf's simulation produces: its failures (replacement
  /// disks identified by provisional ids) and its replacement log.
  struct ShelfOutcome {
    SimResult result;
    std::vector<PendingReplacement> replacements;
  };

  void simulate_shelf(std::uint32_t shelf_index, ShelfOutcome& out);
  void simulate_disk_failures(std::uint32_t shelf_index, ShelfContext& ctx, SimResult& result);
  void simulate_performance_failures(std::uint32_t shelf_index, ShelfContext& ctx,
                                     SimResult& result);
  void simulate_shelf_interconnect_faults(std::uint32_t shelf_index, ShelfContext& ctx,
                                          SimResult& result);
  void simulate_system_processes(std::uint32_t system_index, SimResult& result);

  double detection_time(double occur, stats::Rng& rng) const;
  /// Per-disk annualized physical-interconnect rate (fraction per year).
  double pi_rate_per_disk_year(const model::System& system) const;

  model::Fleet* fleet_;
  SimParams params_;
  stats::Rng root_;
  SimIndexBases bases_;
  bool ran_ = false;
};

/// Convenience: build a fleet from `config`, simulate it, return both.
struct FleetSimulation {
  model::Fleet fleet;
  SimResult result;
};

FleetSimulation simulate_fleet(const model::FleetConfig& config,
                               const SimParams& params = SimParams::standard());

}  // namespace storsubsim::sim
