#include "sim/simulator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

#include "obs/obs.h"
#include "sim/windows.h"
#include "stats/distributions.h"
#include "util/parallel.h"

namespace storsubsim::sim {

namespace {

using model::DiskId;
using model::DiskRecord;
using model::FailureType;
using model::Shelf;
using model::SlotRef;
using model::System;
using stats::Rng;

constexpr double kPctPerYearToPerSecond = 0.01 / model::kSecondsPerYear;

// Replacement disks created during the parallel shelf phase carry a
// provisional id (high bit set, low bits = index into the shelf's
// replacement log) until the serial replay assigns the real fleet-wide id.
constexpr std::uint32_t kProvisionalBit = 0x80000000u;

/// Samples a LogNormal with the given arithmetic mean and log-sigma.
double sample_lognormal_mean(double mean, double sigma, Rng& rng) {
  const stats::LogNormal d(std::log(mean) - 0.5 * sigma * sigma, sigma);
  return d.sample(rng);
}

}  // namespace

// Per-shelf simulation state, including a shelf-local occupancy overlay so
// the shelf phase never mutates the shared Fleet. Each slot keeps its full
// tenure chain: the initial disk followed by provisional replacement disks.
struct Simulator::ShelfContext {
  struct SlotEntry {
    DiskId id;
    double install_time = 0.0;
    double remove_time = std::numeric_limits<double>::infinity();
  };

  Rng rng;
  double badness = 1.0;
  std::vector<Window> env_windows;
  std::vector<std::uint32_t> occupied_slots;  // slot indices with a disk
  std::array<std::vector<SlotEntry>, model::kShelfSlots> chains;
  std::vector<PendingReplacement>* replacements = nullptr;

  const SlotEntry& current(std::uint32_t slot) const { return chains[slot].back(); }

  /// Shelf-local mirror of Fleet::occupant_at.
  DiskId occupant_at(std::uint32_t slot, double t) const {
    const auto& chain = chains[slot];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (t >= it->install_time) return t < it->remove_time ? it->id : DiskId{};
    }
    return DiskId{};
  }

  /// Shelf-local mirror of Fleet::replace_disk: retires the slot's current
  /// occupant and installs a provisional fresh disk.
  DiskId replace(std::uint32_t slot, double remove_time, double install_time) {
    chains[slot].back().remove_time = remove_time;
    const DiskId id(kProvisionalBit | static_cast<std::uint32_t>(replacements->size()));
    replacements->push_back(PendingReplacement{remove_time, install_time, slot});
    chains[slot].push_back(SlotEntry{id, install_time,
                                     std::numeric_limits<double>::infinity()});
    return id;
  }
};

Simulator::Simulator(model::Fleet& fleet, SimParams params, SimIndexBases bases)
    : fleet_(&fleet),
      params_(params),
      root_(stats::make_root_rng(fleet.config().seed).stream("simulator")),
      bases_(bases) {}

double Simulator::detection_time(double occur, Rng& rng) const {
  return occur + rng.uniform_pos() * params_.scrub_period_seconds;
}

double Simulator::pi_rate_per_disk_year(const System& system) const {
  const auto& shelf_info = fleet_->shelf_models().at(system.shelf_model);
  const double quirk = shelf_info.quirk_multiplier(system.disk_model.family,
                                                   system.disk_model.capacity_index);
  const double class_mult = params_.pi_class_multiplier[model::index_of(system.cls)];
  return shelf_info.interconnect_afr_pct * 0.01 * quirk * class_mult;
}

void Simulator::simulate_disk_failures(std::uint32_t shelf_index, ShelfContext& ctx,
                                       SimResult& result) {
  const Shelf& shelf = fleet_->shelf(model::ShelfId(shelf_index));
  if (ctx.occupied_slots.empty()) return;
  const System& system = fleet_->system(shelf.system);
  const double horizon = fleet_->horizon_seconds();

  const auto& disk_info = fleet_->disk_models().at(system.disk_model);
  // Base natural-failure hazard: calibrated AFR, corrected for the Hawkes
  // branching fraction and the environment process's average multiplier so
  // the long-run rate matches the calibration.
  const double beta = params_.hawkes_branching;
  const double base_rate = disk_info.disk_afr_pct * kPctPerYearToPerSecond * ctx.badness /
                           ((1.0 + beta) * params_.environment.average_multiplier());
  const double max_mult = std::max(1.0, params_.environment.multiplier) *
                          std::max(1.0, params_.infant_multiplier);
  const double lambda_max = base_rate * max_mult;
  if (lambda_max <= 0.0) return;

  struct Event {
    double time;
    std::uint32_t slot;
    std::uint32_t generation;
    bool triggered;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const { return a.time > b.time; }
  };
  std::priority_queue<Event, std::vector<Event>, EventLater> queue;
  std::vector<std::uint32_t> slot_generation(model::kShelfSlots, 0);

  Rng rng = ctx.rng.stream("disk-chain", bases_.shelf + shelf_index);

  auto propose_next = [&](std::uint32_t slot, double after, std::uint32_t gen) {
    const double t = after - std::log(rng.uniform_pos()) / lambda_max;
    if (t < horizon) queue.push(Event{t, slot, gen, false});
  };

  for (const std::uint32_t slot : ctx.occupied_slots) {
    propose_next(slot, ctx.current(slot).install_time, 0);
  }

  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    if (!ev.triggered && ev.generation != slot_generation[ev.slot]) continue;  // stale chain

    const ShelfContext::SlotEntry occupant = ctx.current(ev.slot);
    const bool occupant_installed =
        ev.time >= occupant.install_time && ev.time < occupant.remove_time;

    bool fails;
    if (ev.triggered) {
      // Triggered failures hit whichever disk is present; during a repair
      // gap the stress dissipates harmlessly.
      if (!occupant_installed) continue;
      fails = true;
      ++result.counters.triggered_disk_failures;
    } else {
      // Thinning acceptance for the natural chain.
      const double env_mult = multiplier_at(ctx.env_windows, ev.time);
      const double infant_mult =
          (ev.time - occupant.install_time < params_.infant_period_seconds)
              ? params_.infant_multiplier
              : 1.0;
      const double actual = base_rate * env_mult * infant_mult;
      fails = rng.uniform() < actual / lambda_max;
      if (!fails) {
        propose_next(ev.slot, ev.time, ev.generation);
        continue;
      }
    }

    if (fails) {
      const double detect = detection_time(ev.time, rng);
      result.failures.push_back(
          SimFailure{ev.time, detect, occupant.id, shelf.system, FailureType::kDisk});
      ++result.counters.events_by_type[model::index_of(FailureType::kDisk)];

      // Replacement: the admin pulls the disk at detection; a fresh disk
      // arrives after the repair delay.
      const double install = detect + sample_lognormal_mean(params_.repair_delay_mean_seconds,
                                                            params_.repair_delay_sigma_log, rng);
      ctx.replace(ev.slot, detect, install);
      ++result.counters.replacements;
      const std::uint32_t gen = ++slot_generation[ev.slot];
      propose_next(ev.slot, install, gen);

      // Hawkes branching: shared stress may claim a shelf-mate shortly.
      if (ctx.occupied_slots.size() > 1 && rng.bernoulli(beta)) {
        std::uint32_t target = ev.slot;
        while (target == ev.slot) {
          target = ctx.occupied_slots[static_cast<std::size_t>(
              rng.below(ctx.occupied_slots.size()))];
        }
        const double delay = sample_lognormal_mean(params_.hawkes_delay_mean_seconds,
                                                   params_.hawkes_delay_sigma_log, rng);
        if (ev.time + delay < horizon) {
          queue.push(Event{ev.time + delay, target, 0, true});
        }
      }
    }
  }
}

void Simulator::simulate_performance_failures(std::uint32_t shelf_index, ShelfContext& ctx,
                                              SimResult& result) {
  const Shelf& shelf = fleet_->shelf(model::ShelfId(shelf_index));
  if (ctx.occupied_slots.empty()) return;
  const System& system = fleet_->system(shelf.system);
  const double horizon = fleet_->horizon_seconds();

  const auto& disk_info = fleet_->disk_models().at(system.disk_model);
  const IncidentProcess& inc = params_.performance_incidents;
  const double per_disk = params_.performance_base_afr_pct[model::index_of(system.cls)] *
                          kPctPerYearToPerSecond * disk_info.performance_hazard_multiplier;
  const double isolated_rate =
      per_disk * (1.0 - inc.clustered_fraction) / params_.congestion.average_multiplier();

  Rng rng = ctx.rng.stream("perf", bases_.shelf + shelf_index);

  // Isolated background, modulated by congestion windows.
  const std::vector<Window> windows = generate_windows(params_.congestion, horizon, rng);
  ModulatedPoissonSampler sampler(
      isolated_rate * static_cast<double>(ctx.occupied_slots.size()), windows, horizon);
  double t = system.deploy_time;
  while (auto next = sampler.sample_after(t, rng)) {
    t = *next;
    const std::uint32_t slot = ctx.occupied_slots[static_cast<std::size_t>(
        rng.below(ctx.occupied_slots.size()))];
    const DiskId victim = ctx.occupant_at(slot, t);
    if (!victim.valid()) continue;  // repair gap
    result.failures.push_back(SimFailure{t, detection_time(t, rng), victim, shelf.system,
                                         FailureType::kPerformance});
    ++result.counters.events_by_type[model::index_of(FailureType::kPerformance)];
  }

  // Shelf-overload incidents: several disks of the shelf miss service
  // deadlines around the same time.
  if (inc.clustered_fraction > 0.0 && inc.hit_prob > 0.0) {
    const double incident_rate =
        per_disk * inc.clustered_fraction / inc.hit_prob;  // per shelf-second
    t = system.deploy_time;
    while (true) {
      t += -std::log(rng.uniform_pos()) / incident_rate;
      if (t >= horizon) break;
      for (const std::uint32_t slot : ctx.occupied_slots) {
        if (!rng.bernoulli(inc.hit_prob)) continue;
        const double when =
            t + sample_lognormal_mean(inc.spread_mean_seconds, inc.spread_sigma_log, rng);
        if (when >= horizon) continue;
        const DiskId victim = ctx.occupant_at(slot, when);
        if (!victim.valid()) continue;
        result.failures.push_back(SimFailure{when, detection_time(when, rng), victim,
                                             shelf.system, FailureType::kPerformance});
        ++result.counters.events_by_type[model::index_of(FailureType::kPerformance)];
      }
    }
  }
}

void Simulator::simulate_shelf_interconnect_faults(std::uint32_t shelf_index, ShelfContext& ctx,
                                                   SimResult& result) {
  const Shelf& shelf = fleet_->shelf(model::ShelfId(shelf_index));
  if (ctx.occupied_slots.empty()) return;
  const System& system = fleet_->system(shelf.system);
  const double horizon = fleet_->horizon_seconds();

  const auto& shelf_info = fleet_->shelf_models().at(system.shelf_model);
  const double r_pi = pi_rate_per_disk_year(system);  // fraction per disk-year
  const double q = params_.pi_cluster_prob_shelf;
  // Shelf-level (backplane/intra-shelf) fault rate, per shelf-second, chosen
  // so each hosted disk sees backplane_fraction * r_pi per year. With
  // clustering disabled (q == 0) each fault takes out exactly one disk.
  const double n_occ = static_cast<double>(ctx.occupied_slots.size());
  const double fault_rate = shelf_info.backplane_fraction * r_pi /
                            ((q > 0.0 ? q : 1.0 / n_occ) * model::kSecondsPerYear);
  if (fault_rate <= 0.0) return;

  Rng rng = ctx.rng.stream("pi-shelf", bases_.shelf + shelf_index);
  double t = system.deploy_time;
  while (true) {
    t += -std::log(rng.uniform_pos()) / fault_rate;
    if (t >= horizon) break;
    ++result.counters.shelf_faults;
    auto hit = [&](std::uint32_t slot) {
      const DiskId victim = ctx.occupant_at(slot, t);
      if (!victim.valid()) return;
      result.failures.push_back(SimFailure{t, detection_time(t, rng), victim, shelf.system,
                                           FailureType::kPhysicalInterconnect});
      ++result.counters.events_by_type[model::index_of(FailureType::kPhysicalInterconnect)];
    };
    if (q <= 0.0) {
      hit(ctx.occupied_slots[static_cast<std::size_t>(rng.below(ctx.occupied_slots.size()))]);
      continue;
    }
    for (const std::uint32_t slot : ctx.occupied_slots) {
      if (rng.bernoulli(q)) hit(slot);
    }
  }
}

void Simulator::simulate_shelf(std::uint32_t shelf_index, ShelfOutcome& out) {
  const Shelf& shelf = fleet_->shelf(model::ShelfId(shelf_index));
  const stats::Gamma badness_dist(params_.shelf_badness_shape,
                                  1.0 / params_.shelf_badness_shape);

  ShelfContext ctx;
  ctx.rng = root_.stream("shelf", bases_.shelf + shelf_index);
  ctx.badness = badness_dist.sample(ctx.rng);
  ctx.env_windows = generate_windows(params_.environment, fleet_->horizon_seconds(), ctx.rng);
  ctx.occupied_slots.reserve(shelf.occupied_slots);
  ctx.replacements = &out.replacements;
  for (std::uint32_t s = 0; s < shelf.occupied_slots; ++s) {
    ctx.occupied_slots.push_back(s);
    ctx.chains[s].push_back(ShelfContext::SlotEntry{
        shelf.slots[s], fleet_->disk(shelf.slots[s]).install_time,
        std::numeric_limits<double>::infinity()});
  }

  // Order matters only for determinism, not correctness: disk failures
  // first (they perform replacements), then the slot-assignment processes
  // which look occupants up by time.
  simulate_disk_failures(shelf_index, ctx, out.result);
  simulate_performance_failures(shelf_index, ctx, out.result);
  simulate_shelf_interconnect_faults(shelf_index, ctx, out.result);
}

void Simulator::simulate_system_processes(std::uint32_t system_index, SimResult& result) {
  const System& system = fleet_->system(model::SystemId(system_index));
  const double horizon = fleet_->horizon_seconds();

  // Collect the system's occupied slots once.
  std::vector<SlotRef> slots;
  for (const auto shelf_id : system.shelves) {
    const Shelf& shelf = fleet_->shelf(shelf_id);
    for (std::uint32_t s = 0; s < shelf.occupied_slots; ++s) {
      slots.push_back(SlotRef{shelf_id, s});
    }
  }
  if (slots.empty()) return;

  const auto& disk_info = fleet_->disk_models().at(system.disk_model);
  const auto& shelf_info = fleet_->shelf_models().at(system.shelf_model);

  // --- protocol failures ----------------------------------------------------
  {
    Rng rng = root_.stream("sys-proto", bases_.system + system_index);
    const IncidentProcess& inc = params_.protocol_incidents;
    const double per_disk = params_.protocol_base_afr_pct[model::index_of(system.cls)] *
                            kPctPerYearToPerSecond * disk_info.protocol_hazard_multiplier;

    // Isolated background, modulated by driver-bug windows.
    const std::vector<Window> windows = generate_windows(params_.driver, horizon, rng);
    const double isolated_rate =
        per_disk * (1.0 - inc.clustered_fraction) / params_.driver.average_multiplier();
    ModulatedPoissonSampler sampler(isolated_rate * static_cast<double>(slots.size()),
                                    windows, horizon);
    double t = system.deploy_time;
    while (auto next = sampler.sample_after(t, rng)) {
      t = *next;
      const SlotRef ref = slots[static_cast<std::size_t>(rng.below(slots.size()))];
      const DiskId victim = fleet_->occupant_at(ref, t);
      if (!victim.valid()) continue;
      result.failures.push_back(
          SimFailure{t, detection_time(t, rng), victim, system.id, FailureType::kProtocol});
      ++result.counters.events_by_type[model::index_of(FailureType::kProtocol)];
    }

    // Driver-rollout incidents: the update lands system-wide around the same
    // time; one primary shelf's disk/enclosure combination interacts badly
    // with it (high hit probability), the others only occasionally
    // (secondary probability).
    if (inc.clustered_fraction > 0.0 && inc.hit_prob > 0.0) {
      const std::size_t n_shelves = system.shelves.size();
      const double n = static_cast<double>(slots.size());
      const double per_shelf = n / static_cast<double>(n_shelves);  // avg disks per shelf
      // Expected hits per incident per disk: primary-shelf disks see
      // hit_prob, the rest secondary_hit_prob; the primary shelf is uniform.
      const double hits_per_disk =
          (per_shelf * inc.hit_prob + (n - per_shelf) * inc.secondary_hit_prob) / n;
      const double incident_rate = per_disk * inc.clustered_fraction / hits_per_disk;
      t = system.deploy_time;
      while (true) {
        t += -std::log(rng.uniform_pos()) / incident_rate;
        if (t >= horizon) break;
        const model::ShelfId primary =
            system.shelves[static_cast<std::size_t>(rng.below(n_shelves))];
        for (const SlotRef& ref : slots) {
          const double p = (ref.shelf == primary) ? inc.hit_prob : inc.secondary_hit_prob;
          if (p <= 0.0 || !rng.bernoulli(p)) continue;
          const double when =
              t + sample_lognormal_mean(inc.spread_mean_seconds, inc.spread_sigma_log, rng);
          if (when >= horizon) continue;
          const DiskId victim = fleet_->occupant_at(ref, when);
          if (!victim.valid()) continue;
          result.failures.push_back(SimFailure{when, detection_time(when, rng), victim,
                                               system.id, FailureType::kProtocol});
          ++result.counters.events_by_type[model::index_of(FailureType::kProtocol)];
        }
      }
    }
  }

  // --- path-level interconnect faults --------------------------------------
  {
    Rng rng = root_.stream("sys-path", bases_.system + system_index);
    const double r_pi = pi_rate_per_disk_year(system);
    const double q = params_.pi_cluster_prob_path;
    const double path_fraction = 1.0 - shelf_info.backplane_fraction;
    const double n = static_cast<double>(slots.size());
    const double fault_rate =
        path_fraction * r_pi / ((q > 0.0 ? q : 1.0 / n) * model::kSecondsPerYear);
    if (fault_rate <= 0.0) return;
    const bool dual = system.paths == model::PathConfig::kDualPath;

    double t = system.deploy_time;
    while (true) {
      t += -std::log(rng.uniform_pos()) / fault_rate;
      if (t >= horizon) break;
      if (dual && rng.bernoulli(params_.dual_path_masking)) {
        // The passive path takes over; the fault never surfaces as disk
        // unavailability.
        ++result.counters.masked_path_faults;
        continue;
      }
      ++result.counters.path_faults;
      auto hit = [&](const SlotRef& ref) {
        const DiskId victim = fleet_->occupant_at(ref, t);
        if (!victim.valid()) return;
        result.failures.push_back(SimFailure{t, detection_time(t, rng), victim, system.id,
                                             FailureType::kPhysicalInterconnect});
        ++result.counters.events_by_type[model::index_of(FailureType::kPhysicalInterconnect)];
      };
      if (q <= 0.0) {
        hit(slots[static_cast<std::size_t>(rng.below(slots.size()))]);
        continue;
      }
      for (const SlotRef& ref : slots) {
        if (rng.bernoulli(q)) hit(ref);
      }
    }
  }
}

SimResult Simulator::run() {
  if (ran_) throw std::logic_error("Simulator::run may be called only once");
  ran_ = true;

  SimResult result;
  const std::size_t n_shelves = fleet_->shelves().size();

  STORSIM_OBS_COUNTER(c_shelves, "sim.shelves",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_shelves, n_shelves);

  // Phase 1 (parallel): every shelf simulates against its own occupancy
  // overlay, drawing only from shelf-keyed RNG substreams. No shared state
  // is written, so the per-shelf event sequences are identical for any
  // thread count.
  obs::Span shelf_span("sim.shelf_phase");
  std::vector<ShelfOutcome> shelf_out(n_shelves);
  util::parallel_for(n_shelves, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      simulate_shelf(static_cast<std::uint32_t>(i), shelf_out[i]);
    }
  });
  shelf_span.stop();

  obs::Span replay_span("sim.replacement_replay");
  // Phase 2 (serial): replay the recorded replacements against the fleet in
  // shelf order — exactly the order the serial simulator performed them —
  // so fleet-wide disk ids are reproduced bit-identically; then resolve the
  // provisional ids in each shelf's failures and merge in shelf order.
  for (std::size_t i = 0; i < n_shelves; ++i) {
    ShelfOutcome& out = shelf_out[i];
    std::vector<DiskId> real_ids(out.replacements.size());
    for (std::size_t k = 0; k < out.replacements.size(); ++k) {
      const PendingReplacement& r = out.replacements[k];
      const DiskId failed = fleet_->disk_in(
          SlotRef{model::ShelfId(static_cast<std::uint32_t>(i)), r.slot});
      real_ids[k] = fleet_->replace_disk(failed, r.remove_time, r.install_time);
    }
    for (SimFailure& f : out.result.failures) {
      if ((f.disk.value() & kProvisionalBit) != 0) {
        f.disk = real_ids[f.disk.value() & ~kProvisionalBit];
      }
    }
    result.failures.insert(result.failures.end(), out.result.failures.begin(),
                           out.result.failures.end());
    result.counters += out.result.counters;
    out = ShelfOutcome{};  // release per-shelf buffers eagerly
  }
  replay_span.stop();

  // Phase 3 (parallel): system-scope processes only read the fleet (the
  // replacement chains are final by now) and write per-system buffers,
  // merged in system order.
  obs::Span system_span("sim.system_phase");
  const std::size_t n_systems = fleet_->systems().size();
  STORSIM_OBS_COUNTER(c_systems, "sim.systems",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_systems, n_systems);
  std::vector<SimResult> sys_out(n_systems);
  util::parallel_for(n_systems, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      simulate_system_processes(static_cast<std::uint32_t>(i), sys_out[i]);
    }
  });
  for (std::size_t i = 0; i < n_systems; ++i) {
    result.failures.insert(result.failures.end(), sys_out[i].failures.begin(),
                           sys_out[i].failures.end());
    result.counters += sys_out[i].counters;
  }
  system_span.stop();

  obs::Span sort_span("sim.sort");
  std::sort(result.failures.begin(), result.failures.end(),
            [](const SimFailure& a, const SimFailure& b) {
              if (a.detect_time != b.detect_time) return a.detect_time < b.detect_time;
              return a.disk < b.disk;
            });
  sort_span.stop();

  STORSIM_OBS_COUNTER(c_failures, "sim.failures",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_failures, result.failures.size());
  STORSIM_OBS_COUNTER(c_repl, "sim.replacements",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_repl, result.counters.replacements);
  return result;
}

FleetSimulation simulate_fleet(const model::FleetConfig& config, const SimParams& params) {
  FleetSimulation out{model::Fleet::build(config), SimResult{}};
  Simulator simulator(out.fleet, params);
  out.result = simulator.run();
  return out;
}

}  // namespace storsubsim::sim
