// Fixed-size worker pool for general background tasks (trace replay,
// concurrent invokers in the examples). The 𝒫²𝒮ℳ merge does NOT use this
// pool — it issues its splices on the resuming thread, because the
// merge's latency budget cannot absorb a mutex/condvar round trip.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace horse::util {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Never blocks (unbounded queue).
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has finished executing.
  void wait_idle();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop(std::stop_token stop);

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::queue<std::function<void()>> tasks_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::vector<std::jthread> workers_;
};

}  // namespace horse::util
