// Log record taxonomy: severities, layer attribution, and the RAID terminal
// code <-> failure-type maps.
#include "log/record.h"

#include <set>
#include <string_view>

#include <gtest/gtest.h>

#include "log/codes.h"

namespace log_ns = storsubsim::log;
namespace model = storsubsim::model;

TEST(Severity, RoundTrip) {
  for (const auto s :
       {log_ns::Severity::kInfo, log_ns::Severity::kWarning, log_ns::Severity::kError}) {
    const auto parsed = log_ns::parse_severity(log_ns::to_string(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(log_ns::parse_severity("fatal").has_value());
}

TEST(Layer, DerivedFromCodePrefix) {
  EXPECT_EQ(log_ns::layer_of_code("fci.device.timeout"), log_ns::Layer::kFibreChannel);
  EXPECT_EQ(log_ns::layer_of_code("scsi.cmd.noMorePaths"), log_ns::Layer::kScsi);
  EXPECT_EQ(log_ns::layer_of_code("disk.ioMediumError"), log_ns::Layer::kDiskDriver);
  EXPECT_EQ(log_ns::layer_of_code("raid.config.disk.failed"), log_ns::Layer::kRaid);
  EXPECT_EQ(log_ns::layer_of_code("nvram.battery.low"), log_ns::Layer::kOther);
}

TEST(RaidCodes, OnePerFailureTypeAndDistinct) {
  std::set<std::string_view> codes;
  for (const auto type : model::kAllFailureTypes) {
    const auto code = log_ns::code_name(log_ns::raid_terminal_for(type));
    EXPECT_TRUE(code.starts_with("raid."));
    codes.insert(code);
    // Round trip.
    const auto back = log_ns::failure_type_of(log_ns::code_id(code));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, type);
  }
  EXPECT_EQ(codes.size(), 4u);
}

TEST(RaidCodes, MatchPaperTerminalEvents) {
  // The paper's Figure 3 physical-interconnect chain ends in
  // raid.config.filesystem.disk.missing.
  const auto terminal = log_ns::raid_terminal_for(model::FailureType::kPhysicalInterconnect);
  EXPECT_EQ(log_ns::code_name(terminal), "raid.config.filesystem.disk.missing");
}

TEST(RaidCodes, NonTerminalCodesHaveNoType) {
  EXPECT_FALSE(log_ns::failure_type_of(log_ns::code_id("scsi.cmd.noMorePaths")).has_value());
  EXPECT_FALSE(log_ns::failure_type_of(log_ns::code_id("raid.scrub.completed")).has_value());
  EXPECT_FALSE(log_ns::failure_type_of(log_ns::code_id("")).has_value());
}
