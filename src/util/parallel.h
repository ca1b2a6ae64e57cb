// Deterministic parallel execution substrate.
//
// A single process-wide thread pool plus `parallel_for` with *static*
// contiguous chunking: [0, n) is split into `threads` equal slices, so the
// mapping from index to chunk depends only on (n, threads) — never on
// scheduling order. Every call site writes results into pre-sized,
// per-index slots, which makes the whole simulator bitwise reproducible for
// any thread count (see DESIGN.md, "Parallel execution engine").
//
// The worker count defaults to std::thread::hardware_concurrency and can be
// overridden by the STARCDN_THREADS environment variable (checked once at
// startup) or programmatically via set_parallel_threads (used by the
// determinism tests). STARCDN_THREADS=1 runs every parallel_for inline on
// the calling thread.
//
// Work items (chunks, tasks) are claimed from a shared counter by the caller
// and by helper tasks submitted to the pool. The caller claims too, so a
// call never waits behind work queued ahead of its helpers: nested calls
// (e.g. a simulation's producer generating the next block while other pool
// tasks replay) run at least serially on the calling thread, are sped up
// by whichever workers fall idle, and never deadlock.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

namespace starcdn::util {

/// Bytes per cache line on the targets we build for (x86-64, and the
/// common arm64 cores). State that concurrent tasks write goes on lines of
/// its own (`alignas(kCacheLine)`) so no task's writes invalidate a line
/// another task reads.
inline constexpr std::size_t kCacheLine = 64;

/// Reusable fixed-size pool of worker threads draining a shared task queue.
/// Most callers want `parallel_for` instead of submitting tasks directly.
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const noexcept;

  /// Enqueue a task for execution on some worker. Fire-and-forget: use
  /// parallel_for for fork-join semantics.
  void submit(std::function<void()> task);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-wide pool backing parallel_for; created on first use.
[[nodiscard]] ThreadPool& global_pool();

/// Effective chunk/worker count for parallel_for: the programmatic override
/// if set, else STARCDN_THREADS, else hardware_concurrency (min 1).
[[nodiscard]] int parallel_threads() noexcept;

/// Override the chunk count used by subsequent parallel_for calls; n <= 0
/// restores the environment/hardware default. Intended for tests and for
/// serial-vs-parallel bench comparisons.
void set_parallel_threads(int n) noexcept;

/// Parse a STARCDN_THREADS-style value; returns 0 (meaning "default") for
/// null, empty, non-numeric, non-positive, over-4096 or trailing-junk
/// strings. Exposed for tests.
[[nodiscard]] int parse_thread_count(const char* text) noexcept;

/// The one-line warning printed (once, on stderr) when STARCDN_THREADS is
/// set to `text` but parse_thread_count rejects it: names the variable, the
/// value and the reason. Empty when `text` is null, empty or valid.
[[nodiscard]] std::string thread_count_warning(const char* text);

/// Run body(begin, end) over [0, n) split into `threads` static contiguous
/// chunks (threads == 0 uses parallel_threads()). Blocks until every chunk
/// finished; the first exception thrown by any chunk is rethrown here.
void parallel_for_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    int threads = 0);

/// Run body(i) for every i in [0, n) as separate tasks, claimed in index
/// order by up to `threads` runners (the caller among them; threads == 0
/// uses parallel_threads()). Unlike parallel_for's static chunks, which
/// runner takes which task is decided at run time, so listing the longest
/// tasks first balances uneven work. Bodies must write disjoint state. Same
/// blocking and exception semantics as parallel_for_chunks.
void parallel_tasks(std::size_t n,
                    const std::function<void(std::size_t)>& body,
                    int threads = 0);

/// Element-wise convenience wrapper: body(i) for every i in [0, n), with the
/// same static chunking and exception semantics as parallel_for_chunks.
template <typename Body>
void parallel_for(std::size_t n, Body&& body, int threads = 0) {
  parallel_for_chunks(
      n,
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      threads);
}

}  // namespace starcdn::util
