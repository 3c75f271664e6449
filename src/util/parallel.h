// Deterministic work-scheduling layer: a fixed thread pool plus a
// statically-chunked parallel_for.
//
// Design rules that keep parallel runs bit-identical to serial runs:
//   * Work is partitioned into contiguous index ranges with a fixed rule
//     (static chunking), so the assignment of items to chunks never depends
//     on timing.
//   * Callers write into pre-sized per-item (or per-chunk) buffers and merge
//     them in index order afterward; nothing is appended to shared state
//     from inside worker threads.
//   * Randomness must come from named RNG substreams keyed by item index
//     (see stats::Rng::stream), never from a shared sequential stream.
//
// The effective worker count is resolved from, in priority order: an
// explicit per-call override, the process-wide set_thread_count() value
// (wired to --threads flags), the STORSIM_THREADS environment variable, and
// finally std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace storsubsim::util {

/// A fixed-size pool of worker threads consuming a FIFO task queue.
/// Destruction drains outstanding tasks, then joins. Tasks must not throw;
/// parallel_for wraps user bodies to capture exceptions instead.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues a task. Safe to call from any thread, including pool workers.
  void submit(std::function<void()> task);

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

/// max(1, std::thread::hardware_concurrency()).
unsigned hardware_threads();

/// Sets the process-wide thread count; 0 restores the default (env var /
/// hardware concurrency). The shared pool is resized lazily on next use.
void set_thread_count(unsigned n);

/// The resolved process-wide thread count: set_thread_count() override,
/// else STORSIM_THREADS, else hardware_threads().
unsigned thread_count();

/// Runs body(begin, end) over disjoint contiguous chunks covering [0, n),
/// using up to `threads` workers (0 = resolved thread_count()). Chunk
/// boundaries depend only on (n, effective worker count), never on timing.
/// Blocks until every chunk finished; the first exception thrown by a body
/// is rethrown in the caller. Runs inline when the effective worker count
/// is 1, when n < 2, or when called from inside a pool worker (no nested
/// parallelism — the partitioning of the *outer* loop stays fixed).
void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
                  unsigned threads = 0);

}  // namespace storsubsim::util
