// Thread pool and parallel_for: shutdown draining, exception propagation,
// chunk coverage at awkward sizes, and thread-count resolution.
#include "util/parallel.h"

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace util = storsubsim::util;

namespace {

/// Restores the process-wide thread override on scope exit so tests don't
/// leak configuration into each other.
struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

}  // namespace

TEST(ThreadPool, DrainsQueueOnShutdown) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor must run every queued task before joining.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ZeroRequestedThreadsStillWorks) {
  std::atomic<bool> ran{false};
  {
    util::ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    pool.submit([&ran] { ran.store(true); });
  }
  EXPECT_TRUE(ran.load());
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadCountGuard guard;
  util::set_thread_count(4);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{7}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    util::parallel_for(n, [&](std::size_t begin, std::size_t end) {
      ASSERT_LE(begin, end);
      ASSERT_LE(end, n);
      for (std::size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ParallelFor, MoreThreadsThanItems) {
  ThreadCountGuard guard;
  std::atomic<int> total{0};
  util::parallel_for(
      3, [&](std::size_t begin, std::size_t end) {
        total.fetch_add(static_cast<int>(end - begin));
      },
      /*threads=*/16);
  EXPECT_EQ(total.load(), 3);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadCountGuard guard;
  util::set_thread_count(4);
  EXPECT_THROW(
      util::parallel_for(100,
                         [](std::size_t begin, std::size_t) {
                           if (begin == 0) throw std::runtime_error("chunk failed");
                         }),
      std::runtime_error);
  // The pool must stay usable after a throwing loop.
  std::atomic<int> total{0};
  util::parallel_for(8, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 8);
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadCountGuard guard;
  util::set_thread_count(4);
  std::atomic<int> inner_total{0};
  // A nested parallel_for from a worker must not deadlock the fixed pool.
  util::parallel_for(8, [&](std::size_t, std::size_t) {
    util::parallel_for(4, [&](std::size_t begin, std::size_t end) {
      inner_total.fetch_add(static_cast<int>(end - begin));
    });
  });
  EXPECT_GE(inner_total.load(), 4);
}

TEST(ParallelFor, SerialAndParallelProduceSameResult) {
  ThreadCountGuard guard;
  const std::size_t n = 4096;
  std::vector<double> serial(n), parallel(n);
  auto body = [](std::vector<double>& out) {
    return [&out](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        out[i] = static_cast<double>(i) * 1.5 + 1.0;
      }
    };
  };
  util::set_thread_count(1);
  util::parallel_for(n, body(serial));
  util::set_thread_count(8);
  util::parallel_for(n, body(parallel));
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadConfig, OverrideAndDefault) {
  ThreadCountGuard guard;
  util::set_thread_count(3);
  EXPECT_EQ(util::thread_count(), 3u);
  util::set_thread_count(0);
  EXPECT_GE(util::thread_count(), 1u);
  EXPECT_GE(util::hardware_threads(), 1u);
}
