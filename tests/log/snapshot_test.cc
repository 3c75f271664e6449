// Snapshot round-trips (fleet -> text -> inventory), corruption handling,
// and exposure math on the parsed inventory.
#include "log/snapshot.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/fleet.h"
#include "reference_snapshot_parse.h"

namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;

namespace {

model::Fleet test_fleet(std::uint64_t seed = 3) {
  model::CohortSpec cohort;
  cohort.label = "snap";
  cohort.cls = model::SystemClass::kHighEnd;
  cohort.shelf_model = {'B'};
  cohort.disk_mix = {{{'F', 1}, 1.0}};
  cohort.num_systems = 20;
  cohort.mean_shelves_per_system = 3.0;
  cohort.mean_disks_per_shelf = 9.0;
  cohort.raid_group_size = 7;
  cohort.raid_span_shelves = 2;
  cohort.dual_path_fraction = 0.5;
  model::FleetConfig config;
  config.cohorts = {cohort};
  config.horizon_seconds = model::from_years(2.0);
  config.seed = seed;
  return model::Fleet::build(config);
}

/// A fleet with a retired disk record, so DISK lines carry both time forms
/// and the replacement path is exercised.
model::Fleet fleet_with_replacement() {
  auto fleet = test_fleet();
  const auto disk = fleet.shelves()[0].slots[0];
  const double deploy = fleet.system(fleet.shelves()[0].system).deploy_time;
  fleet.replace_disk(disk, deploy + 5000.0, deploy + 9000.0);
  return fleet;
}

}  // namespace

TEST(SnapshotRange, ChunkRejectsIdsNotDenseFromItsBase) {
  // Each record kind's ids run densely from zero; a gap fails on its line
  // before the whole-section checks run.
  const auto system = [](int id) {
    return "SYSTEM id=" + std::to_string(id) +
           " class=low-end paths=single-path disk-model=A-2 shelf-model=A deploy=0.0 "
           "cohort=0\n";
  };
  const auto dense = log_ns::parse_snapshot(system(0));
  EXPECT_EQ(dense.error.find("not dense"), std::string::npos) << dense.error;

  const auto off_by_one = log_ns::parse_snapshot(system(1));
  EXPECT_FALSE(off_by_one.ok());
  EXPECT_NE(off_by_one.error.find("SYSTEM ids not dense"), std::string::npos);
  EXPECT_NE(off_by_one.error.find("line 1"), std::string::npos);

  const std::string disk =
      "DISK id=1 model=A-2 sys=0 shelf=0 group=- slot=0 install=0.000 remove=inf\n";
  const auto behind = log_ns::parse_snapshot(system(0) + disk);
  EXPECT_FALSE(behind.ok());
  EXPECT_NE(behind.error.find("DISK ids not dense"), std::string::npos);
}

TEST(Snapshot, RoundTripMatchesDirectInventory) {
  const auto fleet = fleet_with_replacement();  // retired records round-trip too
  log_ns::LineWriter text;
  log_ns::write_snapshot(text, fleet);
  const auto parsed = log_ns::parse_snapshot(text.view());
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  const auto direct = log_ns::inventory_from_fleet(fleet);
  const auto& inv = parsed.inventory;
  ASSERT_EQ(inv.systems.size(), direct.systems.size());
  ASSERT_EQ(inv.shelves.size(), direct.shelves.size());
  ASSERT_EQ(inv.disks.size(), direct.disks.size());
  ASSERT_EQ(inv.raid_groups.size(), direct.raid_groups.size());
  EXPECT_DOUBLE_EQ(inv.horizon_seconds, direct.horizon_seconds);

  for (std::size_t i = 0; i < inv.systems.size(); ++i) {
    EXPECT_EQ(inv.systems[i].cls, direct.systems[i].cls);
    EXPECT_EQ(inv.systems[i].paths, direct.systems[i].paths);
    EXPECT_EQ(inv.systems[i].disk_model, direct.systems[i].disk_model);
    EXPECT_EQ(inv.systems[i].shelf_model, direct.systems[i].shelf_model);
    EXPECT_NEAR(inv.systems[i].deploy_time, direct.systems[i].deploy_time, 1e-2);
    EXPECT_EQ(inv.systems[i].cohort, direct.systems[i].cohort);
  }
  for (std::size_t i = 0; i < inv.disks.size(); ++i) {
    EXPECT_EQ(inv.disks[i].model, direct.disks[i].model);
    EXPECT_EQ(inv.disks[i].system, direct.disks[i].system);
    EXPECT_EQ(inv.disks[i].shelf, direct.disks[i].shelf);
    EXPECT_EQ(inv.disks[i].raid_group, direct.disks[i].raid_group);
    EXPECT_EQ(inv.disks[i].slot, direct.disks[i].slot);
    EXPECT_NEAR(inv.disks[i].install_time, direct.disks[i].install_time, 1e-2);
    if (std::isinf(direct.disks[i].remove_time)) {
      EXPECT_TRUE(std::isinf(inv.disks[i].remove_time));
    } else {
      EXPECT_NEAR(inv.disks[i].remove_time, direct.disks[i].remove_time, 1e-2);
    }
  }
  for (std::size_t i = 0; i < inv.raid_groups.size(); ++i) {
    EXPECT_EQ(inv.raid_groups[i].type, direct.raid_groups[i].type);
    EXPECT_EQ(inv.raid_groups[i].member_count, direct.raid_groups[i].member_count);
    EXPECT_EQ(inv.raid_groups[i].shelf_span, direct.raid_groups[i].shelf_span);
  }
}

TEST(Snapshot, ExposureMatchesFleet) {
  const auto fleet = test_fleet(9);
  const auto inv = log_ns::inventory_from_fleet(fleet);
  double total = 0.0;
  for (const auto& d : inv.disks) total += inv.disk_exposure_years(d);
  EXPECT_NEAR(total, fleet.total_disk_exposure_years(), 1e-9);
}

TEST(Snapshot, MissingHeaderRejected) {
  const std::string text("SYSTEM id=0 class=low-end paths=single-path disk-model=A-2 "
                         "shelf-model=A deploy=0.0 cohort=0\nEND\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
}

TEST(Snapshot, MissingEndRejected) {
  const auto fleet = test_fleet();
  log_ns::LineWriter text;
  log_ns::write_snapshot(text, fleet);
  std::string s = text.take();
  s.resize(s.size() - 4);  // drop "END\n"
  const auto parsed = log_ns::parse_snapshot(s);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("END"), std::string::npos);
}

TEST(Snapshot, CorruptFieldRejectedWithLineNumber) {
  const std::string text(
      "SNAPSHOT horizon=1000.0\n"
      "SYSTEM id=0 class=warp-core paths=single-path disk-model=A-2 shelf-model=A "
      "deploy=0.0 cohort=0\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("line 2"), std::string::npos);
}

TEST(Snapshot, NonDenseIdsRejected) {
  const std::string text(
      "SNAPSHOT horizon=1000.0\n"
      "SYSTEM id=5 class=low-end paths=single-path disk-model=A-2 shelf-model=A "
      "deploy=0.0 cohort=0\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("dense"), std::string::npos);
}

TEST(Snapshot, DanglingReferenceRejected) {
  const std::string text(
      "SNAPSHOT horizon=1000.0\n"
      "SYSTEM id=0 class=low-end paths=single-path disk-model=A-2 shelf-model=A "
      "deploy=0.0 cohort=0\n"
      "SHELF id=0 sys=9 model=A\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("unknown system"), std::string::npos);
}

TEST(Snapshot, UnknownRecordTypeRejected) {
  const std::string text(
      "SNAPSHOT horizon=1000.0\n"
      "FLUX id=0 capacitance=1.21\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("unrecognized"), std::string::npos);
}

TEST(Snapshot, CommentsAndBlankLinesIgnored) {
  const std::string text(
      "# generated by storsubsim\n"
      "\n"
      "SNAPSHOT horizon=1000.0\n"
      "END\n");
  const auto parsed = log_ns::parse_snapshot(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_TRUE(parsed.inventory.systems.empty());
}

namespace {

/// Rewrites every line of `text` that has tokens after its record kind
/// (all but END) through `edit`, which gets those tokens.
template <class Edit>
std::string rewrite_records(std::string_view text, Edit edit) {
  std::string out;
  std::size_t line_no = 0;
  while (!text.empty()) {
    const auto nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    std::vector<std::string> tokens;
    for (std::size_t pos = 0;;) {
      const auto space = line.find(' ', pos);
      tokens.emplace_back(line.substr(pos, space - pos));
      if (space == std::string_view::npos) break;
      pos = space + 1;
    }
    if (tokens.size() > 1) {
      std::vector<std::string> fields(tokens.begin() + 1, tokens.end());
      edit(fields, line_no);
      tokens.resize(1);
      tokens.insert(tokens.end(), fields.begin(), fields.end());
    }
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (i > 0) out += ' ';
      out += tokens[i];
    }
    out += '\n';
    ++line_no;
  }
  return out;
}

}  // namespace

TEST(SnapshotReader, AnyKeyOrderParsesLikeTokenReader) {
  // Every record's keys rotated (by 1..n-1 places, so none keeps the
  // written order): the reader falls back to TokenReader on each line and
  // yields the written snapshot's inventory.
  const auto fleet = fleet_with_replacement();
  log_ns::LineWriter written;
  log_ns::write_snapshot(written, fleet);
  const std::string permuted =
      rewrite_records(written.view(), [](std::vector<std::string>& fields, std::size_t line) {
        if (fields.size() < 2) return;
        const auto by = 1 + line % (fields.size() - 1);
        std::rotate(fields.begin(), fields.begin() + static_cast<std::ptrdiff_t>(by),
                    fields.end());
      });
  ASSERT_NE(permuted, written.view());
  const auto parsed = log_ns::parse_snapshot(permuted);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  log_ns::testing::expect_same_parse(parsed, log_ns::testing::reference_parse_snapshot(permuted),
                                     permuted);
  log_ns::testing::expect_same_parse(parsed, log_ns::parse_snapshot(written.view()), permuted);

  // An extra token anywhere is ignored the same way.
  const std::string extra = rewrite_records(
      written.view(), [](std::vector<std::string>& fields, std::size_t line) {
        fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(line % fields.size()),
                      "note=x");
      });
  log_ns::testing::expect_same_parse(log_ns::parse_snapshot(extra),
                                     log_ns::parse_snapshot(written.view()), extra);
}

TEST(SnapshotReader, TimeSpellingsParseLikeTokenReader) {
  // Each time respelled in another from_chars form (or a form from_chars
  // rejects): the reader must give what TokenReader gives, and every form
  // TokenReader accepts must read to the written value.
  const auto fleet = fleet_with_replacement();
  log_ns::LineWriter written;
  log_ns::write_snapshot(written, fleet);
  const auto original = log_ns::parse_snapshot(written.view());
  ASSERT_TRUE(original.ok()) << original.error;

  const std::vector<std::pair<std::string, std::string (*)(const std::string&)>> spellings = {
      {"exponent", [](const std::string& v) {
         if (v == "inf") return std::string("INF");
         std::string digits = v;
         digits.erase(digits.find('.'), 1);
         return digits + "e-3";
       }},
      {"long",
       [](const std::string& v) { return v == "inf" ? std::string("infinity") : v + "000"; }},
      {"short", [](const std::string& v) {
         return v == "inf" ? v : v.substr(0, v.size() - 1);  // two decimals
       }},
      {"padded", [](const std::string& v) { return v == "inf" ? v : "00" + v; }},
      {"plus", [](const std::string& v) { return "+" + v; }},
  };
  for (const auto& [name, respell] : spellings) {
    const std::string text = rewrite_records(
        written.view(), [&](std::vector<std::string>& fields, std::size_t) {
          for (auto& field : fields) {
            for (const std::string_view key : {"horizon=", "deploy=", "install=", "remove="}) {
              if (field.starts_with(key)) {
                field = std::string(key) + respell(field.substr(key.size()));
              }
            }
          }
        });
    const auto parsed = log_ns::parse_snapshot(text);
    log_ns::testing::expect_same_parse(parsed, log_ns::testing::reference_parse_snapshot(text),
                                       text);
    if (name == "plus") {
      EXPECT_FALSE(parsed.ok()) << "from_chars takes no '+'";
    } else if (name != "short") {
      ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.error;
      log_ns::testing::expect_same_parse(parsed, original, text);
    }
  }
}
