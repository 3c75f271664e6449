#include "log/classifier.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "obs/obs.h"

namespace storsubsim::log {

namespace {

std::uint64_t dedup_key(const ClassifiedFailure& f) {
  return (static_cast<std::uint64_t>(f.disk.value()) << 2u) | model::index_of(f.type);
}

}  // namespace

std::vector<ClassifiedFailure> classify(std::span<const LogView> records,
                                        const ClassifierOptions& options,
                                        ClassifierStats* stats) {
  ClassifierStats local;

  // Counting pass so the collection vector is sized exactly once; terminal
  // detection is a code-id switch, far cheaper than the reallocations it
  // avoids.
  std::size_t terminals = 0;
  for (const auto& r : records) {
    if (failure_type_of(r.code_id)) ++terminals;
  }

  std::vector<ClassifiedFailure> failures;
  failures.reserve(terminals);
  for (const auto& r : records) {
    const auto type = failure_type_of(r.code_id);
    if (!type) continue;  // precursor or unrelated RAID event
    ++local.raid_records;
    if (!r.disk.valid()) {
      ++local.missing_disk_dropped;
      continue;
    }
    failures.push_back(ClassifiedFailure{r.time, r.disk, r.system, *type});
  }
  std::sort(failures.begin(), failures.end(),
            [](const ClassifiedFailure& a, const ClassifiedFailure& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.disk != b.disk) return a.disk < b.disk;
              return static_cast<int>(a.type) < static_cast<int>(b.type);
            });

  // Collapse duplicates: same (disk, type) within the window keeps only the
  // earliest record. The last-kept table is a sorted key array with a
  // parallel time column, sized from the input — replaces the node-based
  // unordered_map that dominated this stage's allocations.
  std::vector<std::uint64_t> keys;
  keys.reserve(failures.size());
  for (const auto& f : failures) keys.push_back(dedup_key(f));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<double> last_kept(keys.size(), -std::numeric_limits<double>::infinity());

  std::vector<ClassifiedFailure> out;
  out.reserve(failures.size());
  for (const auto& f : failures) {
    const std::uint64_t key = dedup_key(f);
    const auto slot = static_cast<std::size_t>(
        std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
    if (f.time - last_kept[slot] < options.dedup_window_seconds) {
      ++local.duplicates_dropped;
      continue;
    }
    last_kept[slot] = f.time;
    out.push_back(f);
  }
  STORSIM_OBS_COUNTER(c_records, "log.classify.records",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_records, records.size());
  STORSIM_OBS_COUNTER(c_dupes, "log.classify.duplicates_dropped",
                      ::storsubsim::obs::Stability::kDeterministic);
  STORSIM_OBS_ADD(c_dupes, local.duplicates_dropped);
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace storsubsim::log
