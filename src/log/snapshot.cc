#include "log/snapshot.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <vector>

#include "log/parser.h"
#include "model/fleet.h"
#include "model/time.h"

namespace storsubsim::log {

namespace {

using model::DiskId;
using model::RaidGroupId;
using model::ShelfId;
using model::SystemId;

/// Renders one record through a raw pointer, into room LineWriter::grow
/// made for it; the calls mirror LineWriter's.
class RecordPut {
 public:
  explicit RecordPut(char* p) : p_(p) {}
  char* end() const { return p_; }

  RecordPut& text(std::string_view s) {
    p_ = put_text(p_, s);
    return *this;
  }
  RecordPut& ch(char c) {
    *p_++ = c;
    return *this;
  }
  RecordPut& u32(std::uint32_t v) { return u64(v); }
  RecordPut& u64(std::uint64_t v) {
    p_ = put_u64(p_, v);
    return *this;
  }
  /// A time the way the format spells it: %.3f, or "inf" for the
  /// open-ended remove time of still-installed disks.
  RecordPut& seconds(double t) {
    if (std::isinf(t)) return text("inf");
    p_ = put_fixed3(p_, t);
    return *this;
  }
  /// A disk model name as model::to_string spells it ("A-2").
  RecordPut& disk_model(const model::DiskModelName& name) {
    *p_++ = name.family;
    *p_++ = '-';
    p_ = std::to_chars(p_, p_ + kIntChars, name.capacity_index).ptr;
    return *this;
  }

  /// The most chars an int renders to: a sign and 10 digits.
  static constexpr std::size_t kIntChars = 11;

 private:
  char* p_;
};

/// Room for one record of each kind at its widest: the record's keys,
/// spaces and newline (66 chars at most, SYSTEM's) plus each value's bound.
/// The enum names' lengths are added where a record is rendered.
constexpr std::size_t kKeysChars = 80;
constexpr std::size_t kU32Chars = 10;
constexpr std::size_t kDiskModelChars = 2 + RecordPut::kIntChars;
constexpr std::size_t kSystemRoom =
    kKeysChars + 2 * kU32Chars + kDiskModelChars + 1 + kFixed3MaxChars;
constexpr std::size_t kShelfRoom = kKeysChars + 2 * kU32Chars + 1;
constexpr std::size_t kGroupRoom = kKeysChars + 3 * kU32Chars + kU64MaxChars;
constexpr std::size_t kDiskRoom =
    kKeysChars + 5 * kU32Chars + kDiskModelChars + 2 * kFixed3MaxChars;

/// Reads a record laid out exactly as write_snapshot writes it: keys in
/// written order one space apart, ids as plain digits, times as fixed3
/// decimals or "inf", and nothing after the last value. Each read returns
/// false at the first byte that does not fit; the caller then reads the
/// line with TokenReader, which takes any key order, extra tokens and any
/// from_chars number. What the fast reads accept, TokenReader reads to the
/// same values, so the two paths differ only in speed.
class FieldCursor {
 public:
  explicit FieldCursor(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  bool done() const { return p_ == end_; }

  /// Matches `literal` (a key with its separators, e.g. " sys=").
  bool key(std::string_view literal) {
    if (static_cast<std::size_t>(end_ - p_) < literal.size() ||
        std::memcmp(p_, literal.data(), literal.size()) != 0) {
      return false;
    }
    p_ += literal.size();
    return true;
  }

  /// 1 to 10 digits that fit a uint32_t.
  bool u32(std::uint32_t& out) {
    const char* first = p_;
    std::uint64_t v = 0;
    while (p_ != end_ && p_ - first < 10 && *p_ >= '0' && *p_ <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(*p_++ - '0');
    }
    if (p_ == first || v > std::numeric_limits<std::uint32_t>::max()) return false;
    out = static_cast<std::uint32_t>(v);
    return true;
  }

  /// A u32, or "-" for an absent id.
  bool u32_or_dash(std::uint32_t& out) {
    if (p_ != end_ && *p_ == '-') {
      ++p_;
      out = model::Id<model::DiskTag>::kInvalid;
      return true;
    }
    return u32(out);
  }

  /// The chars up to the next space or the end of the line.
  std::string_view word() {
    const char* first = p_;
    while (p_ != end_ && *p_ != ' ') ++p_;
    return {first, static_cast<std::size_t>(p_ - first)};
  }

  bool seconds(double& out) {
    if (key("inf")) {
      out = std::numeric_limits<double>::infinity();
      return true;
    }
    const char* next = read_fixed3(p_, end_, out);
    if (next == nullptr) return false;
    p_ = next;
    return true;
  }

 private:
  const char* p_;
  const char* end_;
};

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

// One fast and one TokenReader read per record kind. A fast read returns
// false at the first mismatch; the TokenReader read returns the error that
// names the record as malformed, or empty. Dense ids are checked by the
// caller, after either read.

bool fast_system(std::string_view line, InventorySystem& s) {
  FieldCursor c(line);
  std::uint32_t id = 0;
  if (!c.key("SYSTEM id=") || !c.u32(id) || !c.key(" class=")) return false;
  const auto cls = model::parse_system_class(c.word());
  if (!cls || !c.key(" paths=")) return false;
  const auto paths = model::parse_path_config(c.word());
  if (!paths || !c.key(" disk-model=")) return false;
  const auto dm = model::parse_disk_model_name(c.word());
  if (!dm || !c.key(" shelf-model=")) return false;
  const auto sm = model::parse_shelf_model_name(c.word());
  if (!sm || !c.key(" deploy=") || !c.seconds(s.deploy_time) || !c.key(" cohort=") ||
      !c.u32(s.cohort) || !c.done()) {
    return false;
  }
  s.id = SystemId(id);
  s.cls = *cls;
  s.paths = *paths;
  s.disk_model = *dm;
  s.shelf_model = *sm;
  return true;
}

std::string_view token_system(const TokenReader& tokens, InventorySystem& s) {
  const auto id = tokens.get_u32("id");
  const auto cls = tokens.get("class");
  const auto paths = tokens.get("paths");
  const auto dm = tokens.get("disk-model");
  const auto sm = tokens.get("shelf-model");
  const auto deploy = tokens.get_time("deploy");
  const auto cohort = tokens.get_u32("cohort");
  if (!id || !cls || !paths || !dm || !sm || !deploy || !cohort) return "bad SYSTEM record";
  const auto cls_v = model::parse_system_class(*cls);
  const auto paths_v = model::parse_path_config(*paths);
  const auto dm_v = model::parse_disk_model_name(*dm);
  const auto sm_v = model::parse_shelf_model_name(*sm);
  if (!cls_v || !paths_v || !dm_v || !sm_v) return "bad SYSTEM enum";
  s = InventorySystem{SystemId(*id), *cls_v, *paths_v, *dm_v, *sm_v, *deploy, *cohort};
  return {};
}

bool fast_shelf(std::string_view line, InventoryShelf& sh) {
  FieldCursor c(line);
  std::uint32_t id = 0;
  std::uint32_t sys = 0;
  if (!c.key("SHELF id=") || !c.u32(id) || !c.key(" sys=") || !c.u32(sys) ||
      !c.key(" model=")) {
    return false;
  }
  const auto m = model::parse_shelf_model_name(c.word());
  if (!m || !c.done()) return false;
  sh = InventoryShelf{ShelfId(id), SystemId(sys), *m};
  return true;
}

std::string_view token_shelf(const TokenReader& tokens, InventoryShelf& sh) {
  const auto id = tokens.get_u32("id");
  const auto sys = tokens.get_u32("sys");
  const auto m = tokens.get("model");
  if (!id || !sys || !m) return "bad SHELF record";
  const auto m_v = model::parse_shelf_model_name(*m);
  if (!m_v) return "bad SHELF model";
  sh = InventoryShelf{ShelfId(*id), SystemId(*sys), *m_v};
  return {};
}

bool fast_group(std::string_view line, InventoryRaidGroup& g) {
  FieldCursor c(line);
  std::uint32_t id = 0;
  std::uint32_t sys = 0;
  if (!c.key("GROUP id=") || !c.u32(id) || !c.key(" sys=") || !c.u32(sys) ||
      !c.key(" type=")) {
    return false;
  }
  const auto type = model::parse_raid_type(c.word());
  if (!type || !c.key(" members=") || !c.u32(g.member_count) || !c.key(" span=") ||
      !c.u32(g.shelf_span) || !c.done()) {
    return false;
  }
  g.id = RaidGroupId(id);
  g.system = SystemId(sys);
  g.type = *type;
  return true;
}

std::string_view token_group(const TokenReader& tokens, InventoryRaidGroup& g) {
  const auto id = tokens.get_u32("id");
  const auto sys = tokens.get_u32("sys");
  const auto type = tokens.get("type");
  const auto members = tokens.get_u32("members");
  const auto span = tokens.get_u32("span");
  if (!id || !sys || !type || !members || !span) return "bad GROUP record";
  const auto type_v = model::parse_raid_type(*type);
  if (!type_v) return "bad GROUP type";
  g = InventoryRaidGroup{RaidGroupId(*id), SystemId(*sys), *type_v, *members, *span};
  return {};
}

bool fast_disk(std::string_view line, InventoryDisk& d) {
  FieldCursor c(line);
  std::uint32_t id = 0;
  if (!c.key("DISK id=") || !c.u32(id) || !c.key(" model=")) return false;
  const auto m = model::parse_disk_model_name(c.word());
  std::uint32_t sys = 0;
  std::uint32_t shelf = 0;
  std::uint32_t group = 0;
  if (!m || !c.key(" sys=") || !c.u32(sys) || !c.key(" shelf=") || !c.u32(shelf) ||
      !c.key(" group=") || !c.u32_or_dash(group) || !c.key(" slot=") || !c.u32(d.slot) ||
      !c.key(" install=") || !c.seconds(d.install_time) || !c.key(" remove=") ||
      !c.seconds(d.remove_time) || !c.done()) {
    return false;
  }
  d.id = DiskId(id);
  d.model = *m;
  d.system = SystemId(sys);
  d.shelf = ShelfId(shelf);
  d.raid_group = RaidGroupId(group);
  return true;
}

std::string_view token_disk(const TokenReader& tokens, InventoryDisk& d) {
  const auto id = tokens.get_u32("id");
  const auto m = tokens.get("model");
  const auto sys = tokens.get_u32("sys");
  const auto shelf = tokens.get_u32("shelf");
  const auto group = tokens.get_u32("group");
  const auto slot = tokens.get_u32("slot");
  const auto install = tokens.get_time("install");
  const auto remove = tokens.get_time("remove");
  if (!id || !m || !sys || !shelf || !group || !slot || !install || !remove) {
    return "bad DISK record";
  }
  const auto m_v = model::parse_disk_model_name(*m);
  if (!m_v) return "bad DISK model";
  d = InventoryDisk{DiskId(*id), *m_v, SystemId(*sys), ShelfId(*shelf),
                    RaidGroupId(*group), *slot, *install, *remove};
  return {};
}

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

void write_snapshot(LineWriter& out, const model::Fleet& fleet) {
  // Room for the whole section up front, a quarter over the estimate, so
  // rendering never regrows (and recopies) a buffer of tens of MB.
  const std::size_t estimate =
      fleet.systems().size() * kSystemBytes + fleet.shelves().size() * kShelfBytes +
      fleet.raid_groups().size() * kGroupBytes + fleet.disks().size() * kDiskBytes;
  out.reserve(out.size() + estimate + estimate / 4);
  RecordPut header(out.grow(kKeysChars + kFixed3MaxChars));
  header.text("SNAPSHOT horizon=").seconds(fleet.horizon_seconds()).ch('\n');
  out.commit(header.end());
  for (const auto& s : fleet.systems()) {
    const std::string_view cls = model::to_string(s.cls);
    const std::string_view paths = model::to_string(s.paths);
    RecordPut put(out.grow(kSystemRoom + cls.size() + paths.size()));
    put.text("SYSTEM id=").u32(s.id.value());
    put.text(" class=").text(cls);
    put.text(" paths=").text(paths);
    put.text(" disk-model=").disk_model(s.disk_model);
    put.text(" shelf-model=").ch(s.shelf_model.letter);
    put.text(" deploy=").seconds(s.deploy_time);
    put.text(" cohort=").u32(s.cohort).ch('\n');
    out.commit(put.end());
  }
  for (const auto& sh : fleet.shelves()) {
    RecordPut put(out.grow(kShelfRoom));
    put.text("SHELF id=").u32(sh.id.value());
    put.text(" sys=").u32(sh.system.value());
    put.text(" model=").ch(sh.model.letter).ch('\n');
    out.commit(put.end());
  }
  for (const auto& g : fleet.raid_groups()) {
    const std::string_view type = model::to_string(g.type);
    RecordPut put(out.grow(kGroupRoom + type.size()));
    put.text("GROUP id=").u32(g.id.value());
    put.text(" sys=").u32(g.system.value());
    put.text(" type=").text(type);
    put.text(" members=").u64(g.members.size());
    put.text(" span=").u32(g.shelf_span()).ch('\n');
    out.commit(put.end());
  }
  for (const auto& d : fleet.disks()) {
    RecordPut put(out.grow(kDiskRoom));
    put.text("DISK id=").u32(d.id.value());
    put.text(" model=").disk_model(d.model);
    put.text(" sys=").u32(d.system.value());
    put.text(" shelf=").u32(d.shelf.value());
    put.text(" group=");
    if (d.raid_group.valid()) {
      put.u32(d.raid_group.value());
    } else {
      put.ch('-');
    }
    put.text(" slot=").u32(d.slot);
    put.text(" install=").seconds(d.install_time);
    put.text(" remove=").seconds(d.remove_time).ch('\n');
    out.commit(put.end());
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

  // Each record tries the fast read first; a line it does not fit is read
  // again with TokenReader, so both paths give the same values and errors.
  TokenReader tokens;
  auto read_record = [&](std::string_view line, auto& record, auto fast, auto token) {
    if (fast(line, record)) return std::string_view{};
    tokens.reset(line);
    return token(tokens, record);
  };
  std::size_t pos = 0;
  while (pos < text.size() && !saw_end && result.ok()) {
    const auto nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, (nl == std::string_view::npos ? text.size() : nl) - pos);
    pos = (nl == std::string_view::npos) ? text.size() : nl + 1;

    ++result.lines;
    if (line.empty() || line[0] == '#') continue;

    if (line.starts_with("SNAPSHOT ")) {
      tokens.reset(line);
      const auto horizon = tokens.get_time("horizon");
      if (!horizon) return fail("bad SNAPSHOT header"), result;
      inv.horizon_seconds = *horizon;
      saw_header = true;
    } else if (line.starts_with("SYSTEM ")) {
      InventorySystem s;
      const auto why = read_record(line, s, fast_system, token_system);
      if (!why.empty()) return fail(why), result;
      if (s.id.value() != inv.systems.size()) return fail("SYSTEM ids not dense"), result;
      inv.systems.push_back(s);
    } else if (line.starts_with("SHELF ")) {
      InventoryShelf sh;
      const auto why = read_record(line, sh, fast_shelf, token_shelf);
      if (!why.empty()) return fail(why), result;
      if (sh.id.value() != inv.shelves.size()) return fail("SHELF ids not dense"), result;
      inv.shelves.push_back(sh);
    } else if (line.starts_with("GROUP ")) {
      InventoryRaidGroup g;
      const auto why = read_record(line, g, fast_group, token_group);
      if (!why.empty()) return fail(why), result;
      if (g.id.value() != inv.raid_groups.size()) return fail("GROUP ids not dense"), result;
      inv.raid_groups.push_back(g);
    } else if (line.starts_with("DISK ")) {
      InventoryDisk d;
      const auto why = read_record(line, d, fast_disk, token_disk);
      if (!why.empty()) return fail(why), result;
      if (d.id.value() != inv.disks.size()) return fail("DISK ids not dense"), result;
      inv.disks.push_back(d);
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
