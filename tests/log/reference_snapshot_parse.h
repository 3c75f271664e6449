// The reference parse_snapshot is tested against: the TokenReader parser
// the snapshot codec shipped before its fast path, kept verbatim apart from
// the error message assembly. Every line is split into tokens and each key
// is looked up by name, so any key order, extra tokens and any from_chars
// number parse. It shares no code with log/snapshot.cc beyond the model's
// enum and name parsers.
#pragma once

#include <bit>
#include <charconv>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "log/snapshot.h"

namespace storsubsim::log::testing {

class ReferenceTokenReader {
 public:
  void reset(std::string_view line) {
    tokens_.clear();
    while (true) {
      const std::size_t space = line.find(' ');
      tokens_.push_back(line.substr(0, space));
      if (space == std::string_view::npos) break;
      line.remove_prefix(space + 1);
    }
  }

  std::optional<std::string_view> get(std::string_view key) const {
    for (const std::string_view token : tokens_) {
      if (token.size() > key.size() && token[key.size()] == '=' && token.starts_with(key)) {
        return token.substr(key.size() + 1);
      }
    }
    return std::nullopt;
  }

  std::optional<std::uint32_t> get_u32(std::string_view key) const {
    const auto v = get(key);
    if (!v) return std::nullopt;
    if (*v == "-") return model::Id<model::DiskTag>::kInvalid;
    std::uint32_t out = 0;
    const auto [ptr, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
    if (ec != std::errc{} || ptr != v->data() + v->size()) return std::nullopt;
    return out;
  }

  std::optional<double> get_time(std::string_view key) const {
    const auto v = get(key);
    if (!v) return std::nullopt;
    if (*v == "inf") return std::numeric_limits<double>::infinity();
    double out = 0.0;
    const auto [ptr, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
    if (ec != std::errc{} || ptr != v->data() + v->size()) return std::nullopt;
    return out;
  }

 private:
  std::vector<std::string_view> tokens_;
};

inline std::string reference_check_snapshot(const Inventory& inv, bool saw_header,
                                            bool saw_end) {
  if (!saw_header) return "snapshot: missing SNAPSHOT header";
  if (!saw_end) return "snapshot: missing END marker";
  for (const auto& sh : inv.shelves) {
    if (sh.system.value() >= inv.systems.size()) {
      return "snapshot: SHELF references unknown system";
    }
  }
  for (const auto& g : inv.raid_groups) {
    if (g.system.value() >= inv.systems.size()) {
      return "snapshot: GROUP references unknown system";
    }
  }
  for (const auto& d : inv.disks) {
    if (d.system.value() >= inv.systems.size() || d.shelf.value() >= inv.shelves.size() ||
        (d.raid_group.valid() && d.raid_group.value() >= inv.raid_groups.size())) {
      return "snapshot: DISK references unknown entity";
    }
  }
  return {};
}

inline SnapshotParseResult reference_parse_snapshot(std::string_view text) {
  using model::DiskId;
  using model::RaidGroupId;
  using model::ShelfId;
  using model::SystemId;
  SnapshotParseResult result;
  Inventory& inv = result.inventory;
  bool saw_header = false;
  bool saw_end = false;

  auto fail = [&](std::string_view why, std::string_view detail = {}) {
    result.error = "snapshot line " + std::to_string(result.lines) + ": ";
    result.error.append(why).append(detail);
  };

  ReferenceTokenReader tokens;
  std::size_t pos = 0;
  while (pos < text.size() && !saw_end && result.ok()) {
    const auto nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, (nl == std::string_view::npos ? text.size() : nl) - pos);
    pos = (nl == std::string_view::npos) ? text.size() : nl + 1;

    ++result.lines;
    if (line.empty() || line[0] == '#') continue;
    tokens.reset(line);

    if (line.starts_with("SNAPSHOT ")) {
      const auto horizon = tokens.get_time("horizon");
      if (!horizon) return fail("bad SNAPSHOT header"), result;
      inv.horizon_seconds = *horizon;
      saw_header = true;
    } else if (line.starts_with("SYSTEM ")) {
      InventorySystem s;
      const auto id = tokens.get_u32("id");
      const auto cls = tokens.get("class");
      const auto paths = tokens.get("paths");
      const auto dm = tokens.get("disk-model");
      const auto sm = tokens.get("shelf-model");
      const auto deploy = tokens.get_time("deploy");
      const auto cohort = tokens.get_u32("cohort");
      if (!id || !cls || !paths || !dm || !sm || !deploy || !cohort) {
        return fail("bad SYSTEM record"), result;
      }
      const auto cls_v = model::parse_system_class(*cls);
      const auto paths_v = model::parse_path_config(*paths);
      const auto dm_v = model::parse_disk_model_name(*dm);
      const auto sm_v = model::parse_shelf_model_name(*sm);
      if (!cls_v || !paths_v || !dm_v || !sm_v) return fail("bad SYSTEM enum"), result;
      s.id = SystemId(*id);
      s.cls = *cls_v;
      s.paths = *paths_v;
      s.disk_model = *dm_v;
      s.shelf_model = *sm_v;
      s.deploy_time = *deploy;
      s.cohort = *cohort;
      if (s.id.value() != inv.systems.size()) {
        return fail("SYSTEM ids not dense"), result;
      }
      inv.systems.push_back(s);
    } else if (line.starts_with("SHELF ")) {
      const auto id = tokens.get_u32("id");
      const auto sys = tokens.get_u32("sys");
      const auto m = tokens.get("model");
      if (!id || !sys || !m) return fail("bad SHELF record"), result;
      const auto m_v = model::parse_shelf_model_name(*m);
      if (!m_v) return fail("bad SHELF model"), result;
      if (*id != inv.shelves.size()) return fail("SHELF ids not dense"), result;
      inv.shelves.push_back(InventoryShelf{ShelfId(*id), SystemId(*sys), *m_v});
    } else if (line.starts_with("GROUP ")) {
      const auto id = tokens.get_u32("id");
      const auto sys = tokens.get_u32("sys");
      const auto type = tokens.get("type");
      const auto members = tokens.get_u32("members");
      const auto span = tokens.get_u32("span");
      if (!id || !sys || !type || !members || !span) return fail("bad GROUP record"), result;
      const auto type_v = model::parse_raid_type(*type);
      if (!type_v) return fail("bad GROUP type"), result;
      if (*id != inv.raid_groups.size()) {
        return fail("GROUP ids not dense"), result;
      }
      inv.raid_groups.push_back(
          InventoryRaidGroup{RaidGroupId(*id), SystemId(*sys), *type_v, *members, *span});
    } else if (line.starts_with("DISK ")) {
      const auto id = tokens.get_u32("id");
      const auto m = tokens.get("model");
      const auto sys = tokens.get_u32("sys");
      const auto shelf = tokens.get_u32("shelf");
      const auto group = tokens.get_u32("group");
      const auto slot = tokens.get_u32("slot");
      const auto install = tokens.get_time("install");
      const auto remove = tokens.get_time("remove");
      if (!id || !m || !sys || !shelf || !group || !slot || !install || !remove) {
        return fail("bad DISK record"), result;
      }
      const auto m_v = model::parse_disk_model_name(*m);
      if (!m_v) return fail("bad DISK model"), result;
      if (*id != inv.disks.size()) return fail("DISK ids not dense"), result;
      inv.disks.push_back(InventoryDisk{DiskId(*id), *m_v, SystemId(*sys), ShelfId(*shelf),
                                        RaidGroupId(*group), *slot, *install, *remove});
    } else if (line == "END") {
      saw_end = true;
    } else {
      return fail("unrecognized record: ", line.substr(0, 32)), result;
    }
  }

  result.error = reference_check_snapshot(inv, saw_header, saw_end);
  return result;
}

inline std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Both parses agree on the outcome, the error, the line count and, bit
/// for bit, the inventory.
inline void expect_same_parse(const SnapshotParseResult& got, const SnapshotParseResult& want,
                              std::string_view text) {
  ASSERT_EQ(got.error, want.error) << text;
  ASSERT_EQ(got.lines, want.lines) << text;
  const auto& a = got.inventory;
  const auto& b = want.inventory;
  ASSERT_EQ(bits_of(a.horizon_seconds), bits_of(b.horizon_seconds)) << text;
  ASSERT_EQ(a.systems.size(), b.systems.size()) << text;
  for (std::size_t i = 0; i < a.systems.size(); ++i) {
    const auto& x = a.systems[i];
    const auto& y = b.systems[i];
    ASSERT_TRUE(x.id == y.id && x.cls == y.cls && x.paths == y.paths &&
                x.disk_model == y.disk_model && x.shelf_model == y.shelf_model &&
                bits_of(x.deploy_time) == bits_of(y.deploy_time) && x.cohort == y.cohort)
        << "system " << i << "\n" << text;
  }
  ASSERT_EQ(a.shelves.size(), b.shelves.size()) << text;
  for (std::size_t i = 0; i < a.shelves.size(); ++i) {
    const auto& x = a.shelves[i];
    const auto& y = b.shelves[i];
    ASSERT_TRUE(x.id == y.id && x.system == y.system && x.model == y.model)
        << "shelf " << i << "\n" << text;
  }
  ASSERT_EQ(a.raid_groups.size(), b.raid_groups.size()) << text;
  for (std::size_t i = 0; i < a.raid_groups.size(); ++i) {
    const auto& x = a.raid_groups[i];
    const auto& y = b.raid_groups[i];
    ASSERT_TRUE(x.id == y.id && x.system == y.system && x.type == y.type &&
                x.member_count == y.member_count && x.shelf_span == y.shelf_span)
        << "group " << i << "\n" << text;
  }
  ASSERT_EQ(a.disks.size(), b.disks.size()) << text;
  for (std::size_t i = 0; i < a.disks.size(); ++i) {
    const auto& x = a.disks[i];
    const auto& y = b.disks[i];
    ASSERT_TRUE(x.id == y.id && x.model == y.model && x.system == y.system &&
                x.shelf == y.shelf && x.raid_group == y.raid_group && x.slot == y.slot &&
                bits_of(x.install_time) == bits_of(y.install_time) &&
                bits_of(x.remove_time) == bits_of(y.remove_time))
        << "disk " << i << "\n" << text;
  }
}

}  // namespace storsubsim::log::testing
