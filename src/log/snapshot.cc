#include "log/snapshot.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <vector>

#include "model/fleet.h"
#include "model/time.h"

namespace storsubsim::log {

namespace {

using model::DiskId;
using model::RaidGroupId;
using model::ShelfId;
using model::SystemId;

/// Appends a time value the way the format spells it: %.3f, or "inf" for
/// the open-ended remove time of still-installed disks.
void append_time(LineWriter& out, double t) {
  if (std::isinf(t)) {
    out.text("inf");
  } else {
    out.fixed3(t);
  }
}

/// Appends a disk model name as model::to_string spells it ("A-2").
void append_disk_model(LineWriter& out, const model::DiskModelName& name) {
  char digits[16];
  const auto end = std::to_chars(digits, digits + sizeof(digits), name.capacity_index).ptr;
  const auto length = static_cast<std::size_t>(end - digits);
  out.ch(name.family).ch('-').text(std::string_view(digits, length));
}

/// Splits a line into its space-separated "key=value" tokens once, then
/// answers lookups from them. One reader serves every line of a parse, so
/// the token list's capacity is reused.
class TokenReader {
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

  /// The value of the first token spelled "key=value" — the same as
  /// scanning the line for "key=" at the start or after a space ("model="
  /// inside "disk-model=" does not count), up to the next space.
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

/// Mean rendered bytes of one record of each kind (newline included; the
/// standard fleet at scale 0.25), for pre-sizing the output buffer.
constexpr std::size_t kSystemBytes = 106;
constexpr std::size_t kShelfBytes = 32;
constexpr std::size_t kGroupBytes = 52;
constexpr std::size_t kDiskBytes = 97;

/// The whole-section checks of a parsed inventory: the header and END were
/// seen, and every reference resolves. Returns empty, or the message naming
/// the first failure.
std::string check_snapshot(const Inventory& inv, bool saw_header, bool saw_end) {
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

}  // namespace

double Inventory::disk_exposure_years(const InventoryDisk& disk) const {
  const double start = std::max(0.0, disk.install_time);
  const double end = std::min(horizon_seconds, disk.remove_time);
  return end > start ? model::years(end - start) : 0.0;
}

void write_snapshot(LineWriter& out, const model::Fleet& fleet) {
  // Room for the whole section up front, a quarter over the estimate, so
  // rendering never regrows (and recopies) a buffer of tens of MB.
  const std::size_t estimate =
      fleet.systems().size() * kSystemBytes + fleet.shelves().size() * kShelfBytes +
      fleet.raid_groups().size() * kGroupBytes + fleet.disks().size() * kDiskBytes;
  out.reserve(out.size() + estimate + estimate / 4);
  out.text("SNAPSHOT horizon=");
  append_time(out, fleet.horizon_seconds());
  out.newline();
  for (const auto& s : fleet.systems()) {
    out.text("SYSTEM id=").u32(s.id.value());
    out.text(" class=").text(model::to_string(s.cls));
    out.text(" paths=").text(model::to_string(s.paths));
    out.text(" disk-model=");
    append_disk_model(out, s.disk_model);
    out.text(" shelf-model=").ch(s.shelf_model.letter);
    out.text(" deploy=");
    append_time(out, s.deploy_time);
    out.text(" cohort=").u32(s.cohort).newline();
  }
  for (const auto& sh : fleet.shelves()) {
    out.text("SHELF id=").u32(sh.id.value());
    out.text(" sys=").u32(sh.system.value());
    out.text(" model=").ch(sh.model.letter).newline();
  }
  for (const auto& g : fleet.raid_groups()) {
    out.text("GROUP id=").u32(g.id.value());
    out.text(" sys=").u32(g.system.value());
    out.text(" type=").text(model::to_string(g.type));
    out.text(" members=").u64(g.members.size());
    out.text(" span=").u32(g.shelf_span()).newline();
  }
  for (const auto& d : fleet.disks()) {
    out.text("DISK id=").u32(d.id.value());
    out.text(" model=");
    append_disk_model(out, d.model);
    out.text(" sys=").u32(d.system.value());
    out.text(" shelf=").u32(d.shelf.value());
    out.text(" group=");
    if (d.raid_group.valid()) {
      out.u32(d.raid_group.value());
    } else {
      out.ch('-');
    }
    out.text(" slot=").u32(d.slot);
    out.text(" install=");
    append_time(out, d.install_time);
    out.text(" remove=");
    append_time(out, d.remove_time);
    out.newline();
  }
  out.text("END\n");
}

Inventory inventory_from_fleet(const model::Fleet& fleet) {
  Inventory inv;
  inv.horizon_seconds = fleet.horizon_seconds();
  inv.systems.reserve(fleet.systems().size());
  for (const auto& s : fleet.systems()) {
    inv.systems.push_back(InventorySystem{s.id, s.cls, s.paths, s.disk_model, s.shelf_model,
                                          s.deploy_time, s.cohort});
  }
  inv.shelves.reserve(fleet.shelves().size());
  for (const auto& sh : fleet.shelves()) {
    inv.shelves.push_back(InventoryShelf{sh.id, sh.system, sh.model});
  }
  inv.raid_groups.reserve(fleet.raid_groups().size());
  for (const auto& g : fleet.raid_groups()) {
    inv.raid_groups.push_back(InventoryRaidGroup{
        g.id, g.system, g.type, static_cast<std::uint32_t>(g.members.size()), g.shelf_span()});
  }
  inv.disks.reserve(fleet.disks().size());
  for (const auto& d : fleet.disks()) {
    inv.disks.push_back(InventoryDisk{d.id, d.model, d.system, d.shelf, d.raid_group, d.slot,
                                      d.install_time, d.remove_time});
  }
  return inv;
}

SnapshotParseResult parse_snapshot(std::string_view text, const SnapshotCounts& expected) {
  SnapshotParseResult result;
  Inventory& inv = result.inventory;
  inv.systems.reserve(expected.systems);
  inv.shelves.reserve(expected.shelves);
  inv.raid_groups.reserve(expected.raid_groups);
  inv.disks.reserve(expected.disks);
  bool saw_header = false;
  bool saw_end = false;

  auto fail = [&](std::string_view why, std::string_view detail = {}) {
    LineWriter msg;
    msg.text("snapshot line ").u64(result.lines).text(": ").text(why).text(detail);
    result.error = msg.take();
  };

  TokenReader tokens;
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

  result.error = check_snapshot(inv, saw_header, saw_end);
  return result;
}

}  // namespace storsubsim::log
