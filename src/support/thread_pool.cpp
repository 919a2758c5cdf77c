#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace gks {
namespace {

/// Waits for every task, then rethrows the first failure. The tasks
/// reference the caller's stack, so none may still run after the call
/// returns — not even when an earlier one threw.
void wait_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  wait_all(futures);
}

void ThreadPool::parallel_chunks(
    std::uint64_t n, std::uint64_t chunk,
    const std::function<void(std::size_t, std::uint64_t, std::uint64_t)>& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::uint64_t n_chunks = (n + chunk - 1) / chunk;
  const std::size_t workers = static_cast<std::size_t>(
      std::min<std::uint64_t>(size(), n_chunks));

  // Stack state is safe: every future is joined before returning.
  std::atomic<std::uint64_t> cursor{0};
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    futures.push_back(submit([&fn, &cursor, n, chunk, w] {
      for (;;) {
        const std::uint64_t begin =
            cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n) return;
        fn(w, begin, std::min(begin + chunk, n));
      }
    }));
  }
  wait_all(futures);
}

}  // namespace gks
