// Bounded cache of open shards for the storsimd daemon.
//
// store::ShardStore's lazy-open cache is unsynchronized and unbounded —
// fine for the offline CLI (one thread, one pass), wrong for a daemon
// whose queries run concurrently and whose fleet may hold more shards
// than the mmap budget allows. ShardLru wraps the store with:
//
//  - pin/unpin reference counting: a query pins every shard it scans for
//    the duration of the scan, so an eviction can never unmap memory a
//    reader is walking;
//  - LRU eviction over *unpinned* shards once more than `max_open` are
//    mapped (0 = unbounded). Pinned shards are never evicted, so the
//    mapped count can transiently exceed the cap when concurrent queries
//    pin more than `max_open` shards at once — the cap is a budget, not
//    a hard ceiling. Both pin and unpin trim back to the budget, so the
//    steady state (nothing pinned) never exceeds it, and re-opening
//    revalidates the shard from scratch;
//  - a mutex making the underlying cache mutation thread-safe. The lock
//    is held only around open/release bookkeeping, never across a scan;
//    the release/acquire pairing on the mutex is what publishes a freshly
//    mapped shard to the pinning thread.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "store/shards.h"

namespace storsubsim::serve {

class ShardLru {
 public:
  /// `store` must be open()ed already and outlive the cache. `max_open` of 0
  /// means no cap (every shard stays mapped once touched).
  ShardLru(const store::ShardStore* store, std::size_t max_open);

  ShardLru(const ShardLru&) = delete;
  ShardLru& operator=(const ShardLru&) = delete;

  /// Maps + validates shard i if needed and pins it. While pinned,
  /// store->shard(i) is safe to read from the calling thread. On error the
  /// shard is not pinned and the typed error names the shard file.
  [[nodiscard]] store::Error pin(std::size_t i);

  /// Drops one pin; at zero pins the shard becomes evictable (it stays
  /// mapped until the cap forces it out).
  void unpin(std::size_t i) noexcept;

  /// Pins every shard (whole-fleet analysis endpoints). Already-pinned
  /// shards gain one more pin each; on error, pins taken so far are undone.
  [[nodiscard]] store::Error pin_all();
  void unpin_all() noexcept;

  /// Shards evicted so far (serve.shard_evictions mirrors this).
  // storsim-lint: allow(unused-export) reason=test oracle: ServeSuite.MaxOpenShardsBoundsTheLruAndStillAnswersRight
  std::uint64_t evictions() const noexcept;
  /// Currently mapped shards (pinned or cached).
  // storsim-lint: allow(unused-export) reason=test oracle: ServeSuite.MaxOpenShardsBoundsTheLruAndStillAnswersRight
  std::size_t open_count() const noexcept;

 private:
  /// Evicts least-recently-used unpinned shards until the cap holds.
  /// Caller holds mutex_.
  void evict_locked();

  const store::ShardStore* store_;
  std::size_t max_open_;
  mutable std::mutex mutex_;
  std::vector<std::uint32_t> pins_;      ///< per-shard live pin count
  std::vector<std::uint64_t> last_use_;  ///< tick of most recent pin; 0 = never
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace storsubsim::serve
