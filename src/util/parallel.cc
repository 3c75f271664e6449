#include "util/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "obs/registry.h"

namespace storsubsim::util {

namespace {

// Pool telemetry. Everything here is a property of one particular
// interleaving (queue depths, how many chunks a given fan-out produced), so
// it is registered scheduling-dependent and excluded from deterministic
// snapshot views.
obs::Counter& tasks_submitted_counter() {
  static obs::Counter c = obs::registry().counter(
      "pool.tasks_submitted", obs::Stability::kSchedulingDependent);
  return c;
}

obs::Counter& chunks_inline_counter() {
  static obs::Counter c = obs::registry().counter(
      "pool.parallel_for_inline", obs::Stability::kSchedulingDependent);
  return c;
}

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge g = obs::registry().gauge("pool.queue_depth_max");
  return g;
}

thread_local const ThreadPool* tl_current_pool = nullptr;

std::atomic<unsigned> g_thread_override{0};

unsigned env_threads() {
  const char* raw = std::getenv("STORSIM_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(raw, &end, 10);
  if (end == raw || v <= 0) return 0;
  return static_cast<unsigned>(v);
}

/// The shared pool, rebuilt when the resolved thread count changes. Guarded
/// by its own mutex; parallel_for holds no lock while work is running.
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

ThreadPool& shared_pool(unsigned threads) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool || g_pool->size() != threads) {
    g_pool.reset();  // join the old workers before spawning new ones
    g_pool = std::make_unique<ThreadPool>(threads);
  }
  return *g_pool;
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  workers_.reserve(threads == 0 ? 1 : threads);
  for (unsigned i = 0; i < (threads == 0 ? 1 : threads); ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  cv_.notify_one();
  tasks_submitted_counter().add(1);
  queue_depth_gauge().update_max(depth);
}

void ThreadPool::worker_loop() {
  tl_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

unsigned hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

void set_thread_count(unsigned n) { g_thread_override.store(n, std::memory_order_relaxed); }

unsigned thread_count() {
  const unsigned o = g_thread_override.load(std::memory_order_relaxed);
  if (o != 0) return o;
  const unsigned e = env_threads();
  return e != 0 ? e : hardware_threads();
}

void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
                  unsigned threads) {
  if (n == 0) return;
  unsigned effective = threads != 0 ? threads : thread_count();
  if (effective > n) effective = static_cast<unsigned>(n);

  // Inline fast path: serial request, trivial loop, or nested call from a
  // worker (nesting would deadlock a fixed pool and change nothing about
  // the outer loop's fixed partitioning).
  if (effective <= 1 || n < 2 || tl_current_pool != nullptr) {
    chunks_inline_counter().add(1);
    body(0, n);
    return;
  }

  struct Shared {
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t remaining;
    std::exception_ptr error;
  };
  Shared shared;
  shared.remaining = effective;

  ThreadPool& pool = shared_pool(thread_count());

  auto run_chunk = [&body, &shared](std::size_t begin, std::size_t end) {
    try {
      body(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(shared.mutex);
      if (!shared.error) shared.error = std::current_exception();
    }
    // Notify while holding the mutex: the waiting caller destroys `shared`
    // as soon as it observes remaining == 0, and it can only observe that
    // after this unlock — so the condition variable outlives the signal.
    std::lock_guard<std::mutex> lock(shared.mutex);
    --shared.remaining;
    shared.done_cv.notify_one();
  };

  // Static chunking: chunk c owns [c*n/e, (c+1)*n/e). The caller executes
  // the last chunk itself instead of idling.
  for (unsigned c = 0; c + 1 < effective; ++c) {
    const std::size_t begin = n * c / effective;
    const std::size_t end = n * (c + 1) / effective;
    pool.submit([run_chunk, begin, end] { run_chunk(begin, end); });
  }
  run_chunk(n * (effective - 1) / effective, n);

  std::unique_lock<std::mutex> lock(shared.mutex);
  shared.done_cv.wait(lock, [&shared] { return shared.remaining == 0; });
  if (shared.error) std::rethrow_exception(shared.error);
}

}  // namespace storsubsim::util
