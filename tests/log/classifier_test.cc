// Classifier: only RAID-layer terminals count, de-duplication windows,
// ordering, and robustness to incomplete records.
#include "log/classifier.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "log/emitter.h"
#include "log/parser.h"

namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;

namespace {

/// A view of one record, with its code interned the way parse_text does.
log_ns::LogView view_of(double t, std::string_view code, log_ns::Severity severity,
                        model::DiskId disk, model::SystemId system, std::string_view message) {
  return log_ns::LogView{t, log_ns::code_id(code), severity, disk, system, code, message};
}

log_ns::LogView raid_record(double t, std::uint32_t disk, model::FailureType type) {
  return view_of(t, log_ns::code_name(log_ns::raid_terminal_for(type)),
                 log_ns::Severity::kError, model::DiskId(disk), model::SystemId(1), "x");
}

/// Views of owning records; they alias `records`, which must outlive them.
std::vector<log_ns::LogView> views_of(const std::vector<log_ns::LogRecord>& records) {
  std::vector<log_ns::LogView> views;
  for (const auto& r : records) {
    views.push_back(view_of(r.time, r.code, r.severity, r.disk, r.system, r.message));
  }
  return views;
}

}  // namespace

TEST(Classifier, CountsOnlyRaidTerminals) {
  log_ns::EmittableFailure f;
  f.detect_time = 1000.0;
  f.type = model::FailureType::kPhysicalInterconnect;
  f.disk = model::DiskId(5);
  f.system = model::SystemId(2);
  f.device_address = "1.16";
  f.serial = "S";
  const auto chain = log_ns::propagation_chain(f);  // 6 records, 1 terminal

  log_ns::ClassifierStats stats;
  const auto failures = log_ns::classify(views_of(chain), {}, &stats);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].type, model::FailureType::kPhysicalInterconnect);
  EXPECT_EQ(failures[0].disk, model::DiskId(5));
  EXPECT_DOUBLE_EQ(failures[0].time, 1000.0);
  EXPECT_EQ(stats.raid_records, 1u);
}

TEST(Classifier, DeduplicatesWithinWindow) {
  std::vector<log_ns::LogView> records = {
      raid_record(100.0, 9, model::FailureType::kDisk),
      raid_record(150.0, 9, model::FailureType::kDisk),   // duplicate (50 s later)
      raid_record(100.0, 9, model::FailureType::kDisk),   // exact duplicate
      raid_record(9000.0, 9, model::FailureType::kDisk),  // beyond 600 s window
  };
  log_ns::ClassifierStats stats;
  const auto failures = log_ns::classify(records, {}, &stats);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_DOUBLE_EQ(failures[0].time, 100.0);
  EXPECT_DOUBLE_EQ(failures[1].time, 9000.0);
  EXPECT_EQ(stats.duplicates_dropped, 2u);
}

TEST(Classifier, DifferentTypesNotDeduplicated) {
  const std::vector<log_ns::LogView> records = {
      raid_record(100.0, 9, model::FailureType::kDisk),
      raid_record(120.0, 9, model::FailureType::kPhysicalInterconnect),
      raid_record(130.0, 9, model::FailureType::kProtocol),
  };
  EXPECT_EQ(log_ns::classify(records).size(), 3u);
}

TEST(Classifier, DifferentDisksNotDeduplicated) {
  const std::vector<log_ns::LogView> records = {
      raid_record(100.0, 1, model::FailureType::kDisk),
      raid_record(101.0, 2, model::FailureType::kDisk),
  };
  EXPECT_EQ(log_ns::classify(records).size(), 2u);
}

TEST(Classifier, OutOfOrderInputSorted) {
  const std::vector<log_ns::LogView> records = {
      raid_record(5000.0, 2, model::FailureType::kProtocol),
      raid_record(100.0, 1, model::FailureType::kDisk),
      raid_record(2500.0, 3, model::FailureType::kPerformance),
  };
  const auto failures = log_ns::classify(records);
  ASSERT_EQ(failures.size(), 3u);
  EXPECT_TRUE(std::is_sorted(failures.begin(), failures.end(),
                             [](const auto& a, const auto& b) { return a.time < b.time; }));
}

TEST(Classifier, DropsRecordsWithoutDiskId) {
  auto orphan = raid_record(100.0, 0, model::FailureType::kDisk);
  orphan.disk = model::DiskId{};
  log_ns::ClassifierStats stats;
  const auto failures = log_ns::classify(std::vector<log_ns::LogView>{orphan}, {}, &stats);
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(stats.missing_disk_dropped, 1u);
}

TEST(Classifier, CustomWindow) {
  const std::vector<log_ns::LogView> records = {
      raid_record(100.0, 9, model::FailureType::kDisk),
      raid_record(150.0, 9, model::FailureType::kDisk),
  };
  log_ns::ClassifierOptions options;
  options.dedup_window_seconds = 10.0;  // narrow window: both survive
  EXPECT_EQ(log_ns::classify(records, options).size(), 2u);
}

TEST(Classifier, RepeatedDuplicatesSlideTheWindow) {
  // Repeats every 400 s with a 600 s window: each kept event anchors the
  // window, so the 400 s repeats collapse but the 1300 s one survives.
  const std::vector<log_ns::LogView> records = {
      raid_record(0.0, 9, model::FailureType::kDisk),
      raid_record(400.0, 9, model::FailureType::kDisk),
      raid_record(1300.0, 9, model::FailureType::kDisk),
  };
  const auto failures = log_ns::classify(records);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_DOUBLE_EQ(failures[1].time, 1300.0);
}

TEST(Classifier, ParsedViewsMatchRecordViews) {
  // Emit full propagation chains (plus noise the parser skips), classify the
  // views parse_text recovers from the text and the views of the records
  // that were emitted, and require the two to agree record-for-record and
  // stat-for-stat.
  std::stringstream out;
  log_ns::LogEmitter emitter(out);
  std::vector<log_ns::LogRecord> emitted;
  double t = 5000.0;
  std::uint32_t disk = 1;
  for (int round = 0; round < 3; ++round) {
    for (const auto type : model::kAllFailureTypes) {
      log_ns::EmittableFailure f;
      f.detect_time = t;
      f.type = type;
      f.disk = model::DiskId(disk);
      f.system = model::SystemId(1 + disk % 4);
      f.device_address = "3.17";
      f.serial = "SN0000000000";
      for (int copy = 0; copy < 2; ++copy) {  // whole chain repeated: terminal dedups away
        emitter.emit(f);
        const auto chain = log_ns::propagation_chain(f);
        emitted.insert(emitted.end(), chain.begin(), chain.end());
      }
      t += 250.0;
      ++disk;
    }
  }
  std::string text = out.str();
  text += "# comment\nconsole: unrelated chatter\n";

  std::vector<log_ns::LogView> parsed;
  log_ns::parse_text(text, parsed);
  const auto records = views_of(emitted);
  ASSERT_EQ(parsed.size(), records.size());

  log_ns::ClassifierStats parsed_stats;
  log_ns::ClassifierStats record_stats;
  const auto from_parsed = log_ns::classify(parsed, {}, &parsed_stats);
  const auto from_records = log_ns::classify(records, {}, &record_stats);

  ASSERT_EQ(from_parsed.size(), from_records.size());
  for (std::size_t i = 0; i < from_parsed.size(); ++i) {
    EXPECT_EQ(from_parsed[i].time, from_records[i].time);
    EXPECT_EQ(from_parsed[i].type, from_records[i].type);
    EXPECT_EQ(from_parsed[i].disk, from_records[i].disk);
    EXPECT_EQ(from_parsed[i].system, from_records[i].system);
  }
  EXPECT_EQ(parsed_stats.raid_records, record_stats.raid_records);
  EXPECT_EQ(parsed_stats.duplicates_dropped, record_stats.duplicates_dropped);
  EXPECT_EQ(parsed_stats.missing_disk_dropped, record_stats.missing_disk_dropped);
  EXPECT_GT(from_parsed.size(), 0u);
  EXPECT_GT(parsed_stats.duplicates_dropped, 0u);
}

TEST(Classifier, StatsArePinnedForMixedCorpus) {
  // Exact stats over a hand-built corpus; any change in counting semantics
  // (what is a RAID record, what dedups, what is dropped) shows up here.
  std::vector<log_ns::LogView> records = {
      raid_record(100.0, 9, model::FailureType::kDisk),
      raid_record(150.0, 9, model::FailureType::kDisk),    // dup, 50 s later
      raid_record(9000.0, 9, model::FailureType::kDisk),   // beyond window
      raid_record(9100.0, 11, model::FailureType::kProtocol),
  };
  auto orphan = raid_record(200.0, 0, model::FailureType::kPerformance);
  orphan.disk = model::DiskId{};
  records.push_back(orphan);
  // Below the RAID layer: not a terminal.
  records.push_back(view_of(120.0, "scsi.cmd.slowResponse", log_ns::Severity::kWarning,
                            model::DiskId(9), model::SystemId(1), "x"));

  log_ns::ClassifierStats stats;
  const auto failures = log_ns::classify(records, {}, &stats);
  EXPECT_EQ(failures.size(), 3u);
  EXPECT_EQ(stats.raid_records, 5u);
  EXPECT_EQ(stats.duplicates_dropped, 1u);
  EXPECT_EQ(stats.missing_disk_dropped, 1u);
}
