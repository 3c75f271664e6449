// storsimd: the long-lived query daemon behind `storsubsim serve`.
//
// One Daemon owns one read-only input — a store::ShardStore opened from a
// STORSHARD1 shard directory or a single STORCOL1 file (one shard) — mapped
// and validated once at start(), and a unix-domain stream socket.
// serve() is one poll loop: it accepts connections (up to a budget derived
// from the open-file limit) and cuts their bytes into length-prefixed
// frames (serve/protocol.h). Each request body runs on the daemon's util
// thread pool, renders through core/analysis_render.h — so every answer is
// byte-identical to the offline `storsubsim analyze` / `store query` output
// for the same input — and the worker writes the answer, then hands the
// connection back to the loop. Shard mappings are managed by a ShardLru
// (--max-open-shards); each pool worker keeps one query-scan arena, so the
// steady-state query path allocates nothing but the response string.
//
// Shutdown is a drain: request_drain() (async-signal-safe — one byte down
// a self-pipe) stops the accept loop, lets in-flight requests finish, and
// serve() returns so the caller can flush manifests/traces. Connections
// idle at a frame boundary are closed; a connection mid-request completes
// that request first.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "replicate/replicate.h"
#include "serve/protocol.h"
#include "serve/shard_lru.h"
#include "store/shards.h"
#include "util/parallel.h"

namespace storsubsim::serve {

struct ServeOptions {
  std::string input;        ///< store file or shard directory
  std::string socket_path;  ///< unix socket to bind (replaced if stale)
  std::size_t max_open_shards = 0;  ///< LRU cap; 0 = keep all shards mapped
  unsigned threads = 0;             ///< pool size; 0 = util::thread_count()
  /// Optional STORREP1 replicate table (storsubsim replicate --out). When
  /// set, the replicate_summary endpoint serves its rendered summary and
  /// the stats endpoint carries its provenance counters.
  std::string replicates;
};

class Daemon {
 public:
  Daemon() = default;
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Opens and validates the input (every shard is validated up front, then
  /// the LRU trims to the cap), builds the thread pool, derives the
  /// connection budget from the soft RLIMIT_NOFILE, binds the socket.
  [[nodiscard]] store::Error start(const ServeOptions& options);

  /// Runs the poll loop on the calling thread until request_drain(); a
  /// connection past the budget gets a typed `busy` error and is closed.
  /// Returns after the socket is unlinked, every in-flight request answered
  /// and every connection closed. Call after a successful start().
  [[nodiscard]] store::Error serve();

  /// Initiates a graceful drain. Async-signal-safe; callable from any
  /// thread or from a signal handler (directly or via drain_signal_fd()).
  void request_drain() noexcept;

  /// The write end of the drain self-pipe: a signal handler writing one
  /// byte here is equivalent to request_drain().
  int drain_signal_fd() const noexcept { return drain_fds_[1]; }

  /// True when the input is split over more than one shard.
  bool sharded() const noexcept { return store_.shard_count() > 1; }
  /// Non-null after a successful start() (test introspection).
  // storsim-lint: allow(unused-export) reason=test oracle: ServeSuite.*Lru*/*Shard* check the max-open-shards bound through it
  const ShardLru* lru() const noexcept { return lru_.get(); }
  /// Connections served at once; past it a peer is answered `busy`.
  // storsim-lint: allow(unused-export) reason=test oracle: ServeSuite.PastTheConnectionBudgetPeersAreAnsweredBusy sizes its peers by it
  std::size_t connection_budget() const noexcept { return connection_budget_; }

  /// Computes the response body for one request body (exposed for the
  /// in-process protocol tests; never throws).
  // storsim-lint: allow(unused-export) reason=test seam: ServeSuite.HandleRequestAnswersWithoutASocket drives dispatch in process
  std::string handle_request(std::string_view body);

 private:
  void close_fds() noexcept;
  void submit(int fd, std::string body);
  std::string dispatch(const Request& request);
  std::string run_analysis(const Request& request, core::StatisticId statistic);
  std::string run_store_query(const Request& request);
  std::string run_replicate_summary(const Request& request);

  ServeOptions options_;
  store::ShardStore store_;  ///< the input; a single file is one shard
  replicate::ReplicateSummary replicate_summary_;
  bool have_replicates_ = false;
  std::unique_ptr<ShardLru> lru_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::size_t connection_budget_ = 0;  ///< soft RLIMIT_NOFILE minus a reserve
  obs::Gauge connections_peak_;
  obs::Counter connections_shed_;
  obs::Histogram queue_wait_us_;  ///< submit to task start

  int listen_fd_ = -1;
  int drain_fds_[2] = {-1, -1};  ///< self-pipe: [0] read end, [1] write end
  int wake_fds_[2] = {-1, -1};   ///< a worker writes one byte per answer
  std::atomic<bool> draining_{false};

  /// Connections whose answer a worker has written; the loop takes them
  /// back after each wake byte.
  std::mutex answered_mutex_;
  std::vector<int> answered_;
};

}  // namespace storsubsim::serve
