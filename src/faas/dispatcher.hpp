// Worker-pool dispatch engine behind each cluster Host's submission
// plumbing.
//
// A Dispatcher is a fixed pool of workers executing Submissions through a
// caller-supplied executor, in one of two transports:
//
//   * PUSH — submit() routes each task to one worker's private queue via
//     the caller's router (a Host passes shard_of so per-function work
//     serialises before the shard mutex). Work is committed to a worker
//     at submit time.
//   * PULL — no local queues: every worker blocks on a shared TaskSource
//     (the cluster's bounded queue) and takes the next task the moment it
//     goes idle. Work is committed to a worker — and hence a host — only
//     when that worker is free, which is the Hiku-style late binding the
//     cluster's pull mode is built on.
//
// Both transports run the same worker epilogue (queueing measurement,
// executor call, outcome recording, completion hook).
//
// Push-mode hand-off: a worker whose queue runs empty first spins for up
// to 1 ms, polling an atomic count of its queued tasks, and only then
// parks on its condvar. submit() notifies only a parked worker, so a
// request that lands inside the spin reaches its worker without a kernel
// call on either side. A worker spins only while its own traffic is dense
// (its mean inter-arrival gap is at most the 1 ms cap) and while the
// process's push workers, across every Dispatcher, number at most half
// the CPUs it may run on; otherwise it parks at once. Pull mode keeps
// blocking in the shared source (DESIGN.md §5.5).
//
// Cluster hooks: pause() parks workers after their current task (a
// modelled host stall — pending work stays put), steal_pending() removes
// queued-but-unstarted tasks so a quarantined host's backlog can be
// re-dispatched exactly once, and completed() rises only after the
// outcome is durably recorded, so a cluster frontend can keep lossless
// submitted-vs-completed accounting from the counters alone.
//
// Thread-safety: submit() from any thread; wait_idle()/take_outcomes()
// must not race each other (single-drainer contract). Pull-mode owners
// must close() the TaskSource before destroying the Dispatcher, or its
// workers never unblock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "faas/submission.hpp"

namespace horse::faas {

class Dispatcher {
 public:
  /// Executes one submission, filling status/record (and optionally host)
  /// on the pre-populated outcome (function/mode/seq/queueing are already
  /// set by the worker loop).
  using Executor = std::function<void(Submission, SubmissionOutcome&)>;
  using Router = std::function<std::size_t(FunctionId)>;

  struct Options {
    Executor executor;
    /// Push mode: maps a function to a worker index (taken modulo the
    /// worker count). Ignored in pull mode.
    Router router;
    /// Non-null selects pull mode; must outlive the Dispatcher.
    TaskSource* source = nullptr;
    std::size_t workers = 1;
    /// CoDel-style sojourn cap: a task that waited longer than this
    /// between enqueue and dequeue is expired at dequeue (typed outcome,
    /// executor never called) — under overload the queue would otherwise
    /// serve only stale work. 0 disables; per-task deadlines are always
    /// honoured regardless.
    util::Nanos max_sojourn = 0;
  };

  explicit Dispatcher(Options options);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Push-mode enqueue (throws std::logic_error in pull mode — pull
  /// frontends feed the shared TaskSource instead).
  void submit(Submission task);

  /// Block until every locally queued task has completed (push mode; in
  /// pull mode this only waits for in-flight work, since the backlog
  /// lives in the shared source). Single-drainer contract.
  void wait_idle();

  /// Take every recorded outcome (single-drainer contract).
  [[nodiscard]] std::vector<SubmissionOutcome> take_outcomes();

  /// wait_idle() + take_outcomes().
  [[nodiscard]] std::vector<SubmissionOutcome> drain();

  // --- cluster health hooks ------------------------------------------------

  /// Park every worker after its current task; queued tasks stay queued.
  void pause();
  void resume();
  [[nodiscard]] bool paused() const noexcept {
    return paused_.load(std::memory_order_acquire);
  }

  /// Remove and return every queued-but-unstarted task (push mode; empty
  /// in pull mode, where the backlog lives in the shared source).
  [[nodiscard]] std::vector<Submission> steal_pending();

  // --- occupancy ----------------------------------------------------------

  [[nodiscard]] std::size_t capacity() const noexcept { return workers_.size(); }
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_acquire);
  }
  /// Push-mode workers blocked on their condvar (not running, not
  /// spinning); pull-mode workers block in the shared source and are not
  /// counted.
  [[nodiscard]] std::size_t parked_workers() const noexcept {
    return parked_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return completed_.load(std::memory_order_acquire);
  }
  /// Tasks expired at dequeue (deadline passed or sojourn cap exceeded)
  /// without running. Every expiry still records an outcome and counts
  /// toward completed(), so frontend accounting stays lossless.
  [[nodiscard]] std::uint64_t expired() const noexcept {
    return expired_.load(std::memory_order_acquire);
  }
  /// Workers with neither queued nor running work.
  [[nodiscard]] std::size_t free_slots() const noexcept;
  [[nodiscard]] bool pull_mode() const noexcept { return source_ != nullptr; }

 private:
  struct Worker {
    std::mutex mutex;
    std::condition_variable work_available;
    std::condition_variable idle;
    std::deque<Submission> tasks;
    /// tasks.size(), readable without the mutex: what a spinning worker
    /// polls. Written only under the mutex.
    std::atomic<std::size_t> queued{0};
    std::vector<SubmissionOutcome> outcomes;
    bool busy = false;
    bool shutting_down = false;
    /// Blocked on work_available: submit() must notify.
    bool parked = false;
    /// Inter-arrival gap EWMA (-1 until the second arrival) and the
    /// latest arrival stamp it was measured from.
    util::Nanos gap_ewma = -1;
    util::Nanos last_arrival = 0;
    std::jthread thread;  // last: joins before the queue state dies
  };

  void push_worker_loop(Worker& worker);
  /// Poll `worker.queued` for up to the spin cap (1 ms), leaving early
  /// when work arrives or the dispatcher pauses or shuts down. Called
  /// unlocked.
  void spin_for_work(const Worker& worker) const noexcept;
  void pull_worker_loop(Worker& worker);
  /// Shared epilogue: measure queueing, execute, record, notify.
  void execute_and_record(Worker& worker, Submission task);

  Executor executor_;
  Router router_;
  TaskSource* source_ = nullptr;
  util::Nanos max_sojourn_ = 0;
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> paused_{false};
  std::mutex pause_mutex_;
  std::condition_variable pause_cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::size_t> parked_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace horse::faas
