#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace starcdn::util {
namespace {

/// Restores the default chunk count when a test body returns or throws.
struct ThreadOverrideGuard {
  explicit ThreadOverrideGuard(int n) { set_parallel_threads(n); }
  ~ThreadOverrideGuard() { set_parallel_threads(0); }
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadOverrideGuard guard(8);
  constexpr std::size_t n = 10'000;
  std::vector<std::atomic<int>> touched(n);
  parallel_for(n, [&](std::size_t i) {
    touched[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeNeverCallsBody) {
  ThreadOverrideGuard guard(8);
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, FewerItemsThanThreads) {
  ThreadOverrideGuard guard(16);
  std::vector<std::atomic<int>> touched(3);
  parallel_for(3, [&](std::size_t i) {
    touched[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ParallelFor, ChunksAreStaticAndContiguous) {
  // The determinism contract: chunk boundaries depend only on (n, threads).
  ThreadOverrideGuard guard(4);
  constexpr std::size_t n = 10;  // 4 chunks: 3, 3, 2, 2
  std::vector<int> chunk_of(n, -1);
  std::atomic<int> next_chunk{0};
  parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
    const int c = next_chunk.fetch_add(1);
    for (std::size_t i = begin; i < end; ++i) chunk_of[i] = c;
  });
  // Every index assigned, and each chunk is one contiguous run.
  for (std::size_t i = 0; i < n; ++i) ASSERT_GE(chunk_of[i], 0);
  int runs = 1;
  for (std::size_t i = 1; i < n; ++i) {
    if (chunk_of[i] != chunk_of[i - 1]) ++runs;
  }
  EXPECT_EQ(runs, 4);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  ThreadOverrideGuard guard(8);
  EXPECT_THROW(
      parallel_for(100,
                   [](std::size_t i) {
                     if (i == 57) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must still be usable after a failed loop.
  std::atomic<int> sum{0};
  parallel_for(10, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelFor, SingleThreadRunsInline) {
  ThreadOverrideGuard guard(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(5);
  parallel_for(5, [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  ThreadOverrideGuard guard(8);
  std::vector<std::atomic<int>> touched(64);
  parallel_for(8, [&](std::size_t outer) {
    parallel_for(8, [&](std::size_t inner) {
      touched[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < touched.size(); ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "slot " << i;
  }
}

TEST(ParallelFor, AccumulatesIntoDisjointSlots) {
  ThreadOverrideGuard guard(8);
  constexpr std::size_t n = 4096;
  std::vector<std::uint64_t> out(n);
  parallel_for(n, [&](std::size_t i) { out[i] = i * i; });
  std::uint64_t sum = std::accumulate(out.begin(), out.end(), 0ULL);
  EXPECT_EQ(sum, (n - 1) * n * (2 * n - 1) / 6);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  // Destructor drains the queue; check after scope instead of busy-waiting.
  while (done.load(std::memory_order_relaxed) < 16) {
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), 16);
}

TEST(ParallelThreads, ParseThreadCount) {
  EXPECT_EQ(parse_thread_count(nullptr), 0);
  EXPECT_EQ(parse_thread_count(""), 0);
  EXPECT_EQ(parse_thread_count("8"), 8);
  EXPECT_EQ(parse_thread_count("1"), 1);
  EXPECT_EQ(parse_thread_count("0"), 0);
  EXPECT_EQ(parse_thread_count("-4"), 0);
  EXPECT_EQ(parse_thread_count("many"), 0);
  EXPECT_EQ(parse_thread_count("8x"), 0);
  EXPECT_EQ(parse_thread_count("999999"), 0);  // over the sanity cap
}

TEST(ParallelThreads, WarningNamesTheVariableAndTheRejectedValue) {
  EXPECT_EQ(thread_count_warning(nullptr), "");
  EXPECT_EQ(thread_count_warning(""), "");
  EXPECT_EQ(thread_count_warning("4"), "");
  EXPECT_EQ(thread_count_warning("4096"), "");
  EXPECT_EQ(parse_thread_count("4096"), 4096);
  for (const char* bad :
       {"many", "0", "-4", "4097", "8x", "99999999999999999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(parse_thread_count(bad), 0);
    const std::string warning = thread_count_warning(bad);
    EXPECT_NE(warning.find("STARCDN_THREADS"), std::string::npos) << warning;
    EXPECT_NE(warning.find(std::string("\"") + bad + "\""),
              std::string::npos)
        << warning;
  }
}

TEST(ParallelTasks, RunsEveryTaskOnceAndNestsParallelLoops) {
  ThreadOverrideGuard guard(4);
  constexpr std::size_t n = 37;
  std::vector<std::atomic<int>> touched(n * 8);
  parallel_tasks(n, [&](std::size_t t) {
    parallel_for(8, [&](std::size_t i) {
      touched[t * 8 + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < touched.size(); ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "slot " << i;
  }
}

TEST(ParallelTasks, SingleThreadRunsInIndexOrder) {
  ThreadOverrideGuard guard(1);
  std::vector<std::size_t> order;
  parallel_tasks(5, [&](std::size_t t) { order.push_back(t); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelTasks, ExceptionPropagatesAfterEveryTaskRan) {
  ThreadOverrideGuard guard(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_tasks(20,
                              [&](std::size_t t) {
                                ran.fetch_add(1, std::memory_order_relaxed);
                                if (t == 3) throw std::runtime_error("boom");
                              }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 20);
}

TEST(ParallelThreads, OverrideAndRestore) {
  {
    ThreadOverrideGuard guard(3);
    EXPECT_EQ(parallel_threads(), 3);
  }
  EXPECT_GE(parallel_threads(), 1);
}

}  // namespace
}  // namespace starcdn::util
