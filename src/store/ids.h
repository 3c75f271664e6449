// Global id rebasing (docs/STORE.md): the one home of the rule.
//
// A fleet cut into contiguous system ranges — the shards of a directory, or
// the parts of a core::Dataset — keeps chunk-local dense ids per piece. The
// whole fleet's disk vector is [every piece's initial disks, in piece order]
// followed by [every piece's replacement disks, in piece order] —
// replacements are appended after all initial disks, and the serial
// replacement replay walks shelves in global order, which groups by piece.
// A piece-local disk id L therefore globalizes as
//
//   L <  disks_initial : disk_base + L
//   L >= disks_initial : total_disks_initial + replacement_base
//                        + (L - disks_initial)
//
// while systems/shelves/raid groups globalize by plain base offsets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace storsubsim::store {

/// Id of a row outside any RAID group (a spare disk's), in every piece.
inline constexpr std::uint32_t kInvalidId = 0xffffffffu;

/// Record counts of one piece of a fleet cut into contiguous global system
/// ranges.
struct PieceCounts {
  std::uint64_t systems = 0;
  std::uint64_t shelves = 0;
  std::uint64_t raid_groups = 0;
  std::uint64_t disks_initial = 0;  ///< the leading disk records: initial disks
  std::uint64_t disks_total = 0;    ///< initial + replacement disk records
};

/// Where one piece's local ids land among the whole fleet's. The default is
/// the identity: one piece holding the whole fleet.
struct IdBases {
  std::uint64_t system = 0;
  std::uint64_t shelf = 0;
  std::uint64_t raid_group = 0;
  std::uint64_t disk = 0;           ///< global id of the piece's first initial disk
  std::uint64_t replacement = 0;    ///< global id of the piece's first replacement disk
  std::uint64_t disks_initial = 0;  ///< the piece's own initial disks

  std::uint64_t global_shelf(std::uint32_t local) const noexcept { return shelf + local; }
  std::uint64_t global_raid_group(std::uint32_t local) const noexcept {
    return local == kInvalidId ? kInvalidId : raid_group + local;
  }
  std::uint64_t global_disk(std::uint32_t local) const noexcept {
    return local < disks_initial ? disk + local : replacement + (local - disks_initial);
  }
};

/// The bases of `pieces`, given in global system order: prefix sums, every
/// piece's initial disks before any replacement. One entry more than
/// `pieces` holds the totals: systems, shelves, RAID groups, initial disks
/// (`disk`) and every disk record (`replacement`).
inline std::vector<IdBases> id_bases(std::span<const PieceCounts> pieces) {
  std::vector<IdBases> bases(pieces.size() + 1);
  for (const PieceCounts& p : pieces) bases[0].replacement += p.disks_initial;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const PieceCounts& p = pieces[i];
    bases[i].disks_initial = p.disks_initial;
    bases[i + 1].system = bases[i].system + p.systems;
    bases[i + 1].shelf = bases[i].shelf + p.shelves;
    bases[i + 1].raid_group = bases[i].raid_group + p.raid_groups;
    bases[i + 1].disk = bases[i].disk + p.disks_initial;
    bases[i + 1].replacement = bases[i].replacement + (p.disks_total - p.disks_initial);
  }
  return bases;
}

}  // namespace storsubsim::store
