// Log forensics: work with the AutoSupport-style text logs directly.
//
//   $ ./build/examples/log_forensics [fleet.store]
//
// Scenario: a support engineer receives raw storage logs — including noise
// from other subsystems and lines mangled in transit — and needs to answer
// "what failed, when, and what kind of failure was it?". This example:
//   1. renders the paper's Figure 3 propagation chain for each failure type,
//   2. corrupts the stream (foreign lines, truncation, duplicate replay),
//   3. parses + classifies it back and prints the recovered failure ledger.
//
// Given a prebuilt columnar store (storsubsim store build, docs/STORE.md),
// the ledger section reads the archived failures from the store instead of
// replaying synthetic logs — the same forensics over a whole recorded fleet.
#include <array>
#include <iostream>
#include <sstream>

#include "core/report.h"
#include "core/source.h"
#include "core/store_bridge.h"
#include "log/classifier.h"
#include "log/emitter.h"
#include "log/parser.h"
#include "model/enums.h"
#include "model/fleet.h"
#include "store/shards.h"

using namespace storsubsim;

namespace {

log::EmittableFailure make_failure(double t, model::FailureType type, std::uint32_t disk) {
  log::EmittableFailure f;
  f.detect_time = t;
  f.type = type;
  f.disk = model::DiskId(disk);
  f.system = model::SystemId(3);
  f.device_address = std::to_string(2 + disk % 4) + "." + std::to_string(16 + disk % 14);
  f.serial = model::serial_for(f.disk);
  return f;
}

/// Forensics over an archived run: print the fleet-wide ledger summary
/// straight from a mapped store file or shard directory. Returns false if
/// the store will not open (the caller falls back to the synthetic-log
/// walkthrough).
bool ledger_from_store(const char* path) {
  store::ShardStore shards;
  store::Error err = shards.open(path);
  if (err.ok()) err = shards.open_all();
  if (!err.ok()) {
    std::cerr << "cannot open store " << path << ": " << err.describe()
              << "\nfalling back to the synthetic-log walkthrough\n\n";
    return false;
  }
  const auto& m = shards.manifest();
  std::cout << "Archived run from " << path << " (seed " << m.seed << ", scale "
            << m.scale << "): " << m.events << " classified failures over "
            << m.disks_total << " disk records.\n\nFirst ten entries of the recovered ledger:\n";
  const auto dataset = core::dataset_from_shards(shards);
  core::TextTable table({"detected at (s)", "disk", "failure type", "class"});
  std::size_t shown = 0;
  std::array<std::size_t, 4> by_type{};
  core::Source(dataset).for_each_event([&](const core::EventRow& e) {
    ++by_type[model::index_of(e.type)];
    if (++shown > 10) return;
    table.add_row({core::fmt(e.time, 0), std::to_string(e.disk),
                   std::string(model::to_string(e.type)), std::string(model::to_string(e.cls))});
  });
  table.print(std::cout);
  core::TextTable tally({"failure type", "events"});
  for (const auto type : model::kAllFailureTypes) {
    tally.add_row({std::string(model::to_string(type)),
                   std::to_string(by_type[model::index_of(type)])});
  }
  std::cout << "\nFleet-wide breakdown:\n";
  tally.print(std::cout);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && ledger_from_store(argv[1])) return 0;

  // --- 1. What a failure looks like in the logs -----------------------------
  std::cout << "A physical interconnect failure propagating from the Fibre Channel\n"
               "layer up to the RAID layer (the shape of the paper's Figure 3):\n\n";
  const auto chain = log::propagation_chain(
      make_failure(490416.0, model::FailureType::kPhysicalInterconnect, 24));
  for (const auto& record : chain) {
    std::cout << "  " << log::render_line(record) << "\n";
  }

  // --- 2. A messy log stream ------------------------------------------------
  std::stringstream stream;
  log::LogEmitter emitter(stream);
  double t = 100000.0;
  const model::FailureType kinds[] = {
      model::FailureType::kDisk, model::FailureType::kPhysicalInterconnect,
      model::FailureType::kPhysicalInterconnect, model::FailureType::kProtocol,
      model::FailureType::kPerformance};
  std::uint32_t disk = 10;
  for (const auto type : kinds) {
    emitter.emit(make_failure(t, type, disk));
    t += 7200.0;
    ++disk;
  }
  // Replay the interconnect terminal line (multipath reporting duplicates it).
  emitter.emit(log::propagation_chain(
      make_failure(100000.0 + 7200.0 + 30.0, model::FailureType::kPhysicalInterconnect,
                   11))[5]);
  // Foreign subsystem noise and a line mangled in transit.
  stream << "nvram.battery.low: replace battery pack soon\n";
  stream << "D0001 03:00:00 t=97200.000 [scsi.cmd.checkCondition:err";  // truncated

  // --- 3. Parse and classify -------------------------------------------------
  // The views alias `replay`, which outlives them.
  const std::string replay = stream.str();
  std::vector<log::LogView> records;
  const auto parse_stats = log::parse_text(replay, records);
  log::ClassifierStats classify_stats;
  const auto failures = log::classify(records, {}, &classify_stats);

  std::cout << "\nParsed " << parse_stats.lines_total << " lines: " << parse_stats.lines_parsed
            << " records, " << parse_stats.lines_skipped << " foreign/blank, "
            << parse_stats.lines_malformed << " malformed.\n"
            << "RAID-layer records: " << classify_stats.raid_records << " ("
            << classify_stats.duplicates_dropped << " duplicate report(s) collapsed).\n\n";

  std::cout << "Recovered failure ledger:\n";
  core::TextTable table({"detected at (s)", "disk", "failure type"});
  for (const auto& f : failures) {
    table.add_row({core::fmt(f.time, 0), std::to_string(f.disk.value()),
                   std::string(model::to_string(f.type))});
  }
  table.print(std::cout);

  std::cout << "\nNote how only RAID-layer terminal events become failures — the five\n"
               "lower-layer precursors of each chain explain the failure but are not\n"
               "counted (the paper's methodology, Section 2.5).\n";
  return 0;
}
