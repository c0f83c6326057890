#include "faas/dispatcher.hpp"

#include <sched.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/spinlock.hpp"
#include "util/yield_point.hpp"

namespace horse::faas {

namespace {

// How long an idle push worker spins for work before it parks. It bounds
// the CPU an idle worker burns after its last request (at most this much
// per idle period), and it is also the density test: a worker spins only
// while its mean arrival gap is within it (dense_traffic).
constexpr util::Nanos kMaxSpin = util::kMillisecond;

// A gap sample longer than this only has to say "sparse"; clamping it
// keeps one long idle period from holding the EWMA above kMaxSpin for
// dozens of arrivals once traffic resumes.
constexpr util::Nanos kMaxGapSample = 2 * kMaxSpin;

// Polls per clock read while spinning: the pickup should not wait on a
// clock read every poll, and the deadline needs no finer resolution.
constexpr int kPollsPerClockRead = 16;

// The worker's mean inter-arrival gap is known and within kMaxSpin, so its
// next request usually lands inside a spin. Sparse traffic (or a worker
// that has seen fewer than two arrivals) parks at once.
bool dense_traffic(util::Nanos gap_ewma) noexcept {
  return gap_ewma >= 0 && gap_ewma <= kMaxSpin;
}

// Push workers alive across every Dispatcher in the process.
std::atomic<std::size_t> g_push_workers{0};

// Half the CPUs this process may run on, rounded down.
std::size_t spin_cpus() noexcept {
  static const std::size_t half = [] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    const int cpus =
        sched_getaffinity(0, sizeof allowed, &allowed) == 0
            ? CPU_COUNT(&allowed)
            : static_cast<int>(std::thread::hardware_concurrency());
    return static_cast<std::size_t>(std::max(cpus, 0)) / 2;
  }();
  return half;
}

// A spin pays only while every push worker can have a core of its own and
// the submitters and the bodies keep the other half of the CPUs. With more
// workers than that, a spinner holds a core the work needs until the
// kernel preempts it (E23: a 4-host x 2-worker cluster on 4 CPUs lost
// 10-20% of its throughput), so then every worker parks at once, as it
// did before the hand-off had a spin.
bool spinning_pays() noexcept {
  return g_push_workers.load(std::memory_order_relaxed) <= spin_cpus();
}

}  // namespace

Dispatcher::Dispatcher(Options options)
    : executor_(std::move(options.executor)),
      router_(std::move(options.router)),
      source_(options.source),
      max_sojourn_(options.max_sojourn) {
  if (!executor_) {
    throw std::invalid_argument("Dispatcher: executor is required");
  }
  const std::size_t count = options.workers == 0 ? 1 : options.workers;
  if (source_ == nullptr) {
    g_push_workers.fetch_add(count, std::memory_order_relaxed);
  }
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto worker = std::make_unique<Worker>();
    Worker* raw = worker.get();
    worker->thread = std::jthread([this, raw] {
      if (source_ != nullptr) {
        pull_worker_loop(*raw);
      } else {
        push_worker_loop(*raw);
      }
    });
    workers_.push_back(std::move(worker));
  }
}

Dispatcher::~Dispatcher() {
  if (source_ == nullptr) {
    g_push_workers.fetch_sub(workers_.size(), std::memory_order_relaxed);
  }
  shutdown_.store(true, std::memory_order_release);
  resume();  // a paused worker must wake to observe the shutdown
  for (auto& worker : workers_) {
    {
      std::lock_guard lock(worker->mutex);
      worker->shutting_down = true;
    }
    worker->work_available.notify_all();
  }
  // jthread members join on destruction of each Worker. Pull-mode owners
  // must have close()d the TaskSource by now (see header contract).
}

void Dispatcher::submit(Submission task) {
  if (source_ != nullptr) {
    throw std::logic_error(
        "Dispatcher: submit() is push-mode only; feed the TaskSource");
  }
  if (task.enqueued_at == 0) {
    task.enqueued_at = util::monotonic_now();
  }
  const std::size_t index =
      router_ ? router_(task.function) % workers_.size()
              : static_cast<std::size_t>(task.function) % workers_.size();
  Worker& worker = *workers_[index];
  pending_.fetch_add(1, std::memory_order_acq_rel);
  bool wake = false;
  {
    std::lock_guard lock(worker.mutex);
    // The arrival gap comes from the stamp the task already carries, so
    // the EWMA costs no clock read. Concurrent submitters can stamp out of
    // order; such a gap counts as 0 and the stamp never moves backwards.
    if (worker.last_arrival != 0) {
      const util::Nanos gap = std::clamp<util::Nanos>(
          task.enqueued_at - worker.last_arrival, 0, kMaxGapSample);
      worker.gap_ewma = worker.gap_ewma < 0
                            ? gap
                            : util::ewma_step(worker.gap_ewma, gap);
    }
    worker.last_arrival = std::max(worker.last_arrival, task.enqueued_at);
    worker.tasks.push_back(std::move(task));
    worker.queued.store(worker.tasks.size(), std::memory_order_release);
    // The worker sets `parked` and re-checks the queue under this same
    // mutex before it blocks, so either it sees the task pushed above or
    // this read sees it parked: no wake-up is lost, and a spinning (or
    // running) worker costs no notify.
    wake = worker.parked;
  }
  if (wake) {
    worker.work_available.notify_one();
  }
}

void Dispatcher::spin_for_work(const Worker& worker) const noexcept {
  // cpu_relax() only, never sched_yield(): a yield can hand the core to an
  // idle-priority thread and turn a sub-µs pickup into a timeslice.
  const util::Nanos deadline = util::monotonic_now() + kMaxSpin;
  while (true) {
    for (int i = 0; i < kPollsPerClockRead; ++i) {
      if (worker.queued.load(std::memory_order_acquire) != 0 ||
          paused_.load(std::memory_order_acquire) ||
          shutdown_.load(std::memory_order_acquire)) {
        return;
      }
      util::cpu_relax();
    }
    if (util::monotonic_now() >= deadline) {
      return;
    }
  }
}

void Dispatcher::push_worker_loop(Worker& worker) {
  const auto ready = [this, &worker] {
    return worker.shutting_down ||
           (!worker.tasks.empty() && !paused_.load(std::memory_order_acquire));
  };
  std::unique_lock lock(worker.mutex);
  while (true) {
    if (!ready()) {
      // Spin-then-park: a request arriving inside the spin is picked up
      // without a futex wake. Whatever ended the spin, the locked
      // predicate below decides, so a pause or a steal during the spin
      // keeps its contract.
      if (dense_traffic(worker.gap_ewma) && spinning_pays() &&
          !paused_.load(std::memory_order_acquire)) {
        lock.unlock();
        spin_for_work(worker);
        // A submit landing here finds the worker not parked and does not
        // notify: only the locked re-check below sees its task.
        HORSE_YIELD_POINT("dispatcher.spin_done");
        lock.lock();
      }
      if (!ready()) {
        worker.parked = true;
        parked_.fetch_add(1, std::memory_order_acq_rel);
        worker.work_available.wait(lock, ready);
        parked_.fetch_sub(1, std::memory_order_acq_rel);
        worker.parked = false;
      }
    }
    if (worker.tasks.empty()) {
      if (worker.shutting_down) {
        return;
      }
      continue;
    }
    Submission task = std::move(worker.tasks.front());
    worker.tasks.pop_front();
    worker.queued.store(worker.tasks.size(), std::memory_order_release);
    worker.busy = true;
    // in_flight rises before pending falls so occupancy sums never dip.
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    lock.unlock();

    execute_and_record(worker, std::move(task));

    lock.lock();
    worker.busy = false;
    if (worker.tasks.empty()) {
      worker.idle.notify_all();
    }
  }
}

void Dispatcher::pull_worker_loop(Worker& worker) {
  while (true) {
    if (paused_.load(std::memory_order_acquire)) {
      std::unique_lock lock(pause_mutex_);
      pause_cv_.wait(lock, [this] {
        return !paused_.load(std::memory_order_acquire) ||
               shutdown_.load(std::memory_order_acquire);
      });
    }
    // Late binding: the pop only happens on an idle worker, so a pull
    // host by construction never accepts work without a free slot.
    Submission task;
    if (!source_->wait_pop(task)) {
      return;  // source closed and drained
    }
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    {
      std::lock_guard lock(worker.mutex);
      worker.busy = true;
    }

    execute_and_record(worker, std::move(task));

    {
      std::lock_guard lock(worker.mutex);
      worker.busy = false;
    }
    worker.idle.notify_all();
  }
}

void Dispatcher::execute_and_record(Worker& worker, Submission task) {
  SubmissionOutcome outcome;
  outcome.function = task.function;
  outcome.mode = task.mode;
  outcome.seq = task.seq;
  outcome.key = task.key;
  // Chain identity rides along so even an expire-at-dequeue refusal below
  // reports which workflow (and frontier hop) it refused.
  outcome.workflow = task.workflow;
  outcome.chain_first_hop = task.hop;
  // One clock read covers the queueing measurement, the deadline check,
  // and the sojourn check; the executor's own timing is the record's
  // business.
  const util::Nanos now = util::monotonic_now();
  outcome.queueing = now - task.enqueued_at;
  // Expire-at-dequeue (CoDel-style): a task whose deadline passed — or
  // that sat queued past the sojourn cap — is refused HERE, before a
  // worker is wasted executing work nobody is waiting for. The typed
  // outcome is still recorded and counts toward completed(), so the
  // frontend's lossless submitted-vs-completed accounting holds.
  const bool deadline_passed = task.deadline != 0 && now >= task.deadline;
  const bool sojourn_exceeded =
      max_sojourn_ != 0 && outcome.queueing > max_sojourn_;
  if (deadline_passed || sojourn_exceeded) {
    outcome.status =
        util::Status{util::StatusCode::kDeadlineExceeded,
                     deadline_passed ? "dispatcher: deadline expired in queue"
                                     : "dispatcher: sojourn cap exceeded"};
    outcome.reject = SubmissionReject::kDeadlineExpired;
    expired_.fetch_add(1, std::memory_order_acq_rel);
    {
      std::lock_guard lock(worker.mutex);
      worker.outcomes.push_back(std::move(outcome));
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      completed_.fetch_add(1, std::memory_order_acq_rel);
    }
    return;
  }
  executor_(std::move(task), outcome);
  {
    std::lock_guard lock(worker.mutex);
    worker.outcomes.push_back(std::move(outcome));
    // Ordered under the outcome lock: by the time a frontend's accounting
    // observes the completion, the outcome is drainable.
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    completed_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void Dispatcher::wait_idle() {
  for (auto& worker : workers_) {
    std::unique_lock lock(worker->mutex);
    worker->idle.wait(lock, [&worker] {
      return worker->tasks.empty() && !worker->busy;
    });
  }
}

std::vector<SubmissionOutcome> Dispatcher::take_outcomes() {
  std::vector<SubmissionOutcome> out;
  for (auto& worker : workers_) {
    std::lock_guard lock(worker->mutex);
    for (auto& outcome : worker->outcomes) {
      out.push_back(std::move(outcome));
    }
    worker->outcomes.clear();
  }
  return out;
}

std::vector<SubmissionOutcome> Dispatcher::drain() {
  wait_idle();
  return take_outcomes();
}

void Dispatcher::pause() {
  paused_.store(true, std::memory_order_release);
  // No notification needed: workers already waiting re-check on their
  // next wakeup, and running workers observe the flag before dequeuing.
}

void Dispatcher::resume() {
  paused_.store(false, std::memory_order_release);
  {
    std::lock_guard lock(pause_mutex_);
  }
  pause_cv_.notify_all();
  for (auto& worker : workers_) {
    {
      std::lock_guard lock(worker->mutex);
    }
    worker->work_available.notify_all();
  }
}

std::vector<Submission> Dispatcher::steal_pending() {
  std::vector<Submission> stolen;
  for (auto& worker : workers_) {
    std::lock_guard lock(worker->mutex);
    for (auto& task : worker->tasks) {
      stolen.push_back(std::move(task));
    }
    if (!worker->tasks.empty()) {
      pending_.fetch_sub(worker->tasks.size(), std::memory_order_acq_rel);
      worker->tasks.clear();
      worker->queued.store(0, std::memory_order_release);
    }
  }
  return stolen;
}

std::size_t Dispatcher::free_slots() const noexcept {
  const std::size_t busy = in_flight_.load(std::memory_order_acquire) +
                           pending_.load(std::memory_order_acquire);
  const std::size_t cap = workers_.size();
  return busy >= cap ? 0 : cap - busy;
}

}  // namespace horse::faas
