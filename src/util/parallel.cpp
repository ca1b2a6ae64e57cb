#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace starcdn::util {

namespace {

std::atomic<int> g_thread_override{0};

int hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Why parse_thread_count rejects a non-empty `text`, or nullptr when it
/// accepts it.
const char* thread_count_error(const char* text) noexcept {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text) return "is not a number";
  if (*end != '\0') return "has trailing characters after the number";
  if (errno == ERANGE || v <= 0 || v > 4096) {
    return "is outside the accepted range [1, 4096]";
  }
  return nullptr;
}

int env_threads() noexcept {
  static const int cached = [] {
    const char* text = std::getenv("STARCDN_THREADS");
    try {
      const std::string warning = thread_count_warning(text);
      if (!warning.empty()) std::fprintf(stderr, "%s\n", warning.c_str());
    } catch (...) {  // allocation failure: fall back without the warning
    }
    return parse_thread_count(text);
  }();
  return cached;
}

}  // namespace

int parse_thread_count(const char* text) noexcept {
  if (text == nullptr || *text == '\0') return 0;
  if (thread_count_error(text) != nullptr) return 0;
  return static_cast<int>(std::strtol(text, nullptr, 10));
}

std::string thread_count_warning(const char* text) {
  if (text == nullptr || *text == '\0') return {};
  const char* why = thread_count_error(text);
  if (why == nullptr) return {};
  return std::string("STARCDN_THREADS=\"") + text + "\" " + why +
         "; using the default thread count";
}

int parallel_threads() noexcept {
  const int override = g_thread_override.load(std::memory_order_relaxed);
  if (override > 0) return override;
  const int env = env_threads();
  if (env > 0) return env;
  return hardware_threads();
}

void set_parallel_threads(int n) noexcept {
  g_thread_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  bool stopping = false;

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [this] { return stopping || !queue.empty(); });
        if (stopping && queue.empty()) return;
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(int threads) : impl_(std::make_unique<Impl>()) {
  const int n = std::max(1, threads);
  impl_->workers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

int ThreadPool::size() const noexcept {
  return static_cast<int>(impl_->workers.size());
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(impl_->mutex);
    impl_->queue.push_back(std::move(task));
  }
  impl_->cv.notify_one();
}

ThreadPool& global_pool() {
  // Sized so an STARCDN_THREADS larger than the core count still gets its
  // requested chunk concurrency (useful for determinism tests and TSan runs
  // on small machines); the floor of 4 keeps chunked paths exercised even
  // on single-core CI containers.
  static ThreadPool pool(std::max({hardware_threads(), env_threads(), 4}));
  return pool;
}

namespace {

/// Fork-join over `count` work items: the caller and up to `helpers` pool
/// tasks claim item indices in order from a shared counter until none are
/// left, then the caller waits for the items still running elsewhere. A
/// helper that starts after every item was claimed returns at once without
/// touching `item`, so the caller's frame may be gone by then.
void run_claimed(std::size_t count, std::size_t helpers,
                 const std::function<void(std::size_t)>& item) {
  struct Join {
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t done = 0;
    std::exception_ptr error;
  };
  const auto join = std::make_shared<Join>();
  const auto drain = [count](Join& j,
                             const std::function<void(std::size_t)>& fn) {
    for (;;) {
      const std::size_t i = j.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      std::exception_ptr error;
      try {
        fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard lock(j.mutex);
      if (error && !j.error) j.error = error;
      if (++j.done == count) j.cv.notify_all();
    }
  };
  ThreadPool& pool = global_pool();
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([join, drain, &item] { drain(*join, item); });
  }
  drain(*join, item);
  std::unique_lock lock(join->mutex);
  join->cv.wait(lock, [&join, count] { return join->done == count; });
  if (join->error) std::rethrow_exception(join->error);
}

std::size_t runners(std::size_t n, int threads) {
  const int requested = threads > 0 ? threads : parallel_threads();
  return std::min<std::size_t>(static_cast<std::size_t>(std::max(1, requested)),
                               n);
}

}  // namespace

void parallel_for_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    int threads) {
  if (n == 0) return;
  const std::size_t chunks = runners(n, threads);
  if (chunks <= 1) {
    body(0, n);
    return;
  }
  // Static contiguous chunking: chunk c covers the same index range for a
  // given (n, chunks) regardless of which thread runs it or when.
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;  // first `extra` chunks get +1
  run_claimed(chunks, chunks - 1, [&](std::size_t c) {
    const std::size_t begin = c * base + std::min(c, extra);
    body(begin, begin + base + (c < extra ? 1 : 0));
  });
}

void parallel_tasks(std::size_t n,
                    const std::function<void(std::size_t)>& body,
                    int threads) {
  if (n == 0) return;
  const std::size_t workers = runners(n, threads);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  run_claimed(n, workers - 1, body);
}

}  // namespace starcdn::util
