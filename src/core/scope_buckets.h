// Grouping of per-scope records by dense scope id, the step the burstiness
// and correlation analyses share. A shelf or RAID group sees only a handful
// of failures, so a counting pass over the ids followed by ordering each
// scope's few records is linear in the records, where one comparison sort
// over the whole fleet's records is not.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace storsubsim::core {

/// Records grouped by ascending scope id: scope s owns
/// records[begin[s], begin[s + 1]). Within a scope the input order is kept.
template <class Record>
struct ScopeBuckets {
  std::vector<Record> records;
  std::vector<std::size_t> begin;

  std::size_t scopes() const { return begin.size() - 1; }
  std::span<Record> scope(std::size_t s) {
    return std::span<Record>(records).subspan(begin[s], begin[s + 1] - begin[s]);
  }
};

/// Counting sort of `items` by their `scope_id` member. Takes one counter per
/// id up to the largest present, so ids must be dense (inventory ids are).
template <class Record>
ScopeBuckets<Record> bucket_by_scope(const std::vector<Record>& items) {
  std::size_t scopes = 0;
  for (const auto& r : items) scopes = std::max(scopes, static_cast<std::size_t>(r.scope_id) + 1);
  ScopeBuckets<Record> out;
  std::vector<std::size_t>& begin = out.begin;
  begin.assign(scopes + 1, 0);
  for (const auto& r : items) ++begin[static_cast<std::size_t>(r.scope_id) + 1];
  for (std::size_t s = 0; s < scopes; ++s) begin[s + 1] += begin[s];
  // Scatter with begin[s] as scope s's write cursor; each cursor ends on
  // the next scope's start, so shifting the array back one place restores it.
  out.records.resize(items.size());
  for (const auto& r : items) out.records[begin[static_cast<std::size_t>(r.scope_id)]++] = r;
  std::copy_backward(begin.begin(), begin.end() - 1, begin.end());
  begin[0] = 0;
  return out;
}

}  // namespace storsubsim::core
