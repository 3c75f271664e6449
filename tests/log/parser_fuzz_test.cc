// Parser robustness under random corruption: whatever bytes arrive, the
// parser must not crash, must not loop, and anything it does accept must be
// internally consistent.
#include <cmath>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "log/emitter.h"
#include "log/parser.h"
#include "log/snapshot.h"
#include "model/fleet.h"
#include "per_line_parse.h"
#include "reference_snapshot_parse.h"
#include "stats/rng.h"

namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;
using storsubsim::stats::Rng;

namespace {

std::vector<std::string> seed_lines() {
  std::vector<std::string> lines;
  for (const auto type : model::kAllFailureTypes) {
    log_ns::EmittableFailure f;
    f.detect_time = 123456.789;
    f.type = type;
    f.disk = model::DiskId(42);
    f.system = model::SystemId(7);
    f.device_address = "3.18";
    f.serial = "SNABCDEF0123";
    for (const auto& record : log_ns::propagation_chain(f)) {
      lines.push_back(log_ns::render_line(record));
    }
  }
  return lines;
}

std::string mutate(const std::string& line, Rng& rng) {
  std::string out = line;
  const int op = static_cast<int>(rng.below(5));
  if (out.empty()) return out;
  const std::size_t pos = static_cast<std::size_t>(rng.below(out.size()));
  switch (op) {
    case 0:  // flip a byte
      out[pos] = static_cast<char>(rng.below(256));
      break;
    case 1:  // truncate
      out.resize(pos);
      break;
    case 2:  // delete a span
      out.erase(pos, rng.below(8) + 1);
      break;
    case 3:  // duplicate a span
      out.insert(pos, out.substr(pos, rng.below(8) + 1));
      break;
    case 4:  // splice two lines
      out = out.substr(0, pos) + out;
      break;
  }
  return out;
}

}  // namespace

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, NeverCrashesAndStaysConsistent) {
  Rng rng(9000 + static_cast<std::uint64_t>(GetParam()));
  const auto seeds = seed_lines();
  for (int iter = 0; iter < 4000; ++iter) {
    const auto& seed = seeds[rng.below(seeds.size())];
    std::string line = seed;
    const auto mutations = 1 + rng.below(3);
    for (std::uint64_t m = 0; m < mutations; ++m) line = mutate(line, rng);

    log_ns::LogView parsed;
    if (log_ns::parse_line_view(line, parsed)) {
      // Whatever survived must be self-consistent, not garbage.
      EXPECT_TRUE(std::isfinite(parsed.time));
      EXPECT_FALSE(parsed.code.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(0, 4));

namespace {

/// A small valid snapshot, its times spelled with one decimal (the
/// TokenReader path) rather than fixed3's three.
const std::string kSmallSnapshot =
    "SNAPSHOT horizon=1000000.0\n"
    "SYSTEM id=0 class=low-end paths=single-path disk-model=A-2 shelf-model=A "
    "deploy=0.0 cohort=0\n"
    "SHELF id=0 sys=0 model=A\n"
    "GROUP id=0 sys=0 type=RAID4 members=2 span=1\n"
    "DISK id=0 model=A-2 sys=0 shelf=0 group=0 slot=0 install=0.0 remove=inf\n"
    "DISK id=1 model=A-2 sys=0 shelf=0 group=0 slot=1 install=0.0 remove=inf\n"
    "END\n";

/// Corrupts 1-4 random bytes of `text`: flips, span deletions and digit
/// insertions.
std::string corrupt_snapshot(const std::string& text, Rng& rng) {
  std::string corrupted = text;
  const auto mutations = 1 + rng.below(4);
  for (std::uint64_t m = 0; m < mutations; ++m) {
    const std::size_t pos = static_cast<std::size_t>(rng.below(corrupted.size()));
    switch (rng.below(3)) {
      case 0:
        corrupted[pos] = static_cast<char>(rng.below(256));
        break;
      case 1:
        corrupted.erase(pos, rng.below(10) + 1);
        break;
      default:
        corrupted.insert(pos, 1, static_cast<char>('0' + rng.below(10)));
        break;
    }
    if (corrupted.empty()) corrupted = "END\n";
  }
  return corrupted;
}

}  // namespace

TEST(SnapshotFuzz, CorruptSnapshotsRejectedOrConsistent) {
  // Build one valid snapshot text, then corrupt random lines; the parser
  // must either reject with a message or produce a referentially-consistent
  // inventory.
  Rng rng(31415);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::string corrupted = corrupt_snapshot(kSmallSnapshot, rng);
    const auto result = log_ns::parse_snapshot(corrupted);
    if (!result.ok()) continue;
    const auto& inv = result.inventory;
    for (const auto& sh : inv.shelves) {
      ASSERT_LT(sh.system.value(), inv.systems.size());
    }
    for (const auto& d : inv.disks) {
      ASSERT_LT(d.system.value(), inv.systems.size());
      ASSERT_LT(d.shelf.value(), inv.shelves.size());
      if (d.raid_group.valid()) {
        ASSERT_LT(d.raid_group.value(), inv.raid_groups.size());
      }
    }
  }
}

TEST(SnapshotFuzz, FastPathAgreesWithTokenReaderUnderCorruption) {
  // The same mutator over a written snapshot, whose records take the fast
  // path until corruption knocks them off it, and over the one-decimal
  // snapshot above, which takes TokenReader throughout.
  model::CohortSpec cohort;
  cohort.label = "fuzz";
  cohort.num_systems = 2;
  cohort.mean_shelves_per_system = 1.5;
  cohort.mean_disks_per_shelf = 4.0;
  cohort.raid_group_size = 3;
  cohort.disk_mix = {{{'A', 2}, 1.0}};
  model::FleetConfig config;
  config.cohorts = {cohort};
  config.seed = 5;
  auto fleet = model::Fleet::build(config);
  const auto disk = fleet.shelves()[0].slots[0];
  const double deploy = fleet.system(fleet.shelves()[0].system).deploy_time;
  fleet.replace_disk(disk, deploy + 0.125, deploy + 9000.0);  // a finite remove time
  log_ns::LineWriter written;
  log_ns::write_snapshot(written, fleet);
  const std::string texts[] = {std::string(written.view()), kSmallSnapshot};

  Rng rng(27182);
  for (int iter = 0; iter < 6000; ++iter) {
    const std::string& text = texts[iter % 2];
    const std::string corrupted = iter < 2 ? text : corrupt_snapshot(text, rng);
    log_ns::testing::expect_same_parse(log_ns::parse_snapshot(corrupted),
                                       log_ns::testing::reference_parse_snapshot(corrupted),
                                       corrupted);
  }
}

TEST(ParseTextFuzz, BufferAndPerLinePathsAgreeUnderCorruption) {
  // Mutated multi-line buffers: the buffer walk must never crash, its stats
  // must partition the input, and a getline split judged line by line with
  // parse_line_view must agree byte-for-byte on what parsed and what did not.
  Rng rng(777);
  const auto seeds = seed_lines();
  for (int iter = 0; iter < 600; ++iter) {
    std::string text;
    const auto lines = 1 + rng.below(12);
    for (std::uint64_t i = 0; i < lines; ++i) {
      text += seeds[rng.below(seeds.size())];
      text += '\n';
    }
    const auto mutations = rng.below(6);
    for (std::uint64_t m = 0; m < mutations && !text.empty(); ++m) {
      const std::size_t pos = static_cast<std::size_t>(rng.below(text.size()));
      switch (rng.below(3)) {
        case 0:
          text[pos] = static_cast<char>(rng.below(256));
          break;
        case 1:
          text.erase(pos, rng.below(16) + 1);
          break;
        default:
          text.insert(pos, 1, static_cast<char>(rng.below(256)));
          break;
      }
    }

    std::vector<log_ns::LogView> views;
    const auto view_stats = log_ns::parse_text(text, views);
    EXPECT_EQ(view_stats.lines_parsed + view_stats.lines_skipped +
                  view_stats.lines_malformed,
              view_stats.lines_total);

    std::deque<std::string> kept;
    std::vector<log_ns::LogView> records;
    const auto record_stats = log_ns::testing::parse_line_by_line(text, kept, records);
    EXPECT_EQ(view_stats.lines_total, record_stats.lines_total);
    EXPECT_EQ(view_stats.lines_parsed, record_stats.lines_parsed);
    EXPECT_EQ(view_stats.lines_skipped, record_stats.lines_skipped);
    EXPECT_EQ(view_stats.lines_malformed, record_stats.lines_malformed);
    ASSERT_EQ(views.size(), records.size());
    for (std::size_t i = 0; i < views.size(); ++i) {
      // Plain == except when corruption smuggled in a "nan" literal.
      EXPECT_TRUE(views[i].time == records[i].time ||
                  (std::isnan(views[i].time) && std::isnan(records[i].time)));
      EXPECT_EQ(views[i].code, records[i].code);
      EXPECT_EQ(views[i].message, records[i].message);
      EXPECT_EQ(views[i].disk, records[i].disk);
      EXPECT_EQ(views[i].system, records[i].system);
      EXPECT_EQ(views[i].code_id, log_ns::code_id(views[i].code));
    }
  }
}
