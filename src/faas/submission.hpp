// Transport-free submission currency shared by every dispatch frontend.
//
// Dispatch has three concerns: the submission types (task in, outcome
// out), the worker-pool transport (per-worker queues + shard-affine
// routing, or a shared pull queue), and the binding to one Platform (a
// cluster Host). This header is the first of them:
//
//   * Submission / SubmissionOutcome — what flows in and out of any
//     dispatch frontend (cluster Host, pull queue). `seq` is a
//     frontend-assigned identity so accounting tests can prove no
//     submission is lost or executed twice; `host` on the outcome names
//     the executing host.
//   * TaskSource — the pull-mode abstraction: a blocking producer of
//     Submissions that a Dispatcher's workers drain instead of their own
//     queues (Hiku-style: idle hosts pull work; nothing is committed to a
//     host before a worker there is free).
//   * SharedTaskQueue — the bounded MPMC TaskSource the cluster uses.
//     push() blocks when full (submission backpressure), close() wakes
//     all consumers for shutdown.
#pragma once

#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>

#include "faas/admission.hpp"
#include "faas/platform.hpp"

namespace horse::faas {

/// One queued invocation, independent of which host/worker executes it.
/// A submission names either a plain function (workflow == kNoWorkflow)
/// or a workflow chain — in the latter case `function` mirrors the stage
/// at the hop cursor so shard-affine routing and per-function dispatch
/// policies see the chain under its current stage's identity, and the
/// chain still carries exactly one key and one deadline end-to-end.
struct Submission {
  FunctionId function = 0;
  StartMode mode = StartMode::kCold;
  workloads::Request request;
  /// Chain identity; kNoWorkflow for a plain function submission.
  WorkflowId workflow = kNoWorkflow;
  /// Hop cursor: the first chain stage this dispatch still has to run.
  /// Advanced in place by the executing host as stages complete, so an
  /// orphan-recovery re-dispatch resumes from the frontier and never
  /// re-executes a completed stage.
  std::uint32_t hop = 0;
  /// Monotonic clock at submit; queueing latency is measured against it.
  util::Nanos enqueued_at = 0;
  /// Absolute monotonic deadline; 0 = none. A deadline is both an expiry
  /// (the dispatcher drops the task at dequeue once it has passed — the
  /// caller already gave up, executing it only wastes a worker) and an
  /// admission signal (the scheduler sheds when estimated queue delay
  /// exceeds the remaining slack).
  util::Nanos deadline = 0;
  /// Frontend-assigned identity (1-based per frontend; 0 = untagged).
  std::uint64_t seq = 0;
  /// Stable idempotency key, assigned once at the frontend and preserved
  /// across every re-dispatch of the same logical submission. The crash
  /// dedup ledger keys on it: a late completion from a declared-dead host
  /// and the completion of its re-dispatched copy carry the SAME key, so
  /// exactly one of them surfaces. 0 = untagged (a bare Dispatcher
  /// that never re-dispatches).
  std::uint64_t key = 0;
  /// Set when a cluster re-dispatches after a stall/drop: re-dispatched
  /// submissions are exempt from the dispatch faults, which is what makes
  /// "re-dispatched exactly once" a structural property.
  bool redispatched = false;
};

struct SubmissionOutcome {
  FunctionId function = 0;
  StartMode mode = StartMode::kCold;
  util::Status status;
  InvocationRecord record;   // valid when status.is_ok()
  util::Nanos queueing = 0;  // submit-to-start wait (monotonic clock)
  std::uint64_t seq = 0;     // copied from the Submission
  std::uint64_t key = 0;     // idempotency key, copied from the Submission
  std::size_t host = 0;      // executing host (cluster mode; 0 single-host)
  /// Chain identity, copied from the Submission (kNoWorkflow = plain).
  WorkflowId workflow = kNoWorkflow;
  /// Hop cursor this execution STARTED from (0 unless the chain was
  /// re-dispatched mid-way by orphan recovery).
  std::uint32_t chain_first_hop = 0;
  /// Stages this execution actually ran (0 for plain submissions).
  std::uint32_t chain_stages = 0;
  /// Why the submission was refused, when it was (status not OK and no
  /// record). kNone for completed work AND for ordinary invocation
  /// failures — `reject != kNone` identifies overload-control refusals
  /// specifically, which is what the exactly-one-outcome sweeps count.
  SubmissionReject reject = SubmissionReject::kNone;
};

/// Pull-mode task producer: blocks consumers until work or shutdown.
class TaskSource {
 public:
  virtual ~TaskSource() = default;

  /// Blocks until a task is available (true) or the source is closed and
  /// drained (false). Multiple consumers may wait concurrently.
  virtual bool wait_pop(Submission& out) = 0;
};

/// Bounded MPMC queue of submissions — the cluster's shared pull queue.
///
/// Precondition: capacity > 0. A zero-capacity queue used to be silently
/// coerced to 1 — a config typo became an invisible convoy point instead
/// of an error. Construction now asserts and throws instead (configuration
/// error, not a hot-path condition).
class SharedTaskQueue final : public TaskSource {
 public:
  explicit SharedTaskQueue(std::size_t capacity) : capacity_(capacity) {
    assert(capacity > 0 && "SharedTaskQueue capacity must be positive");
    if (capacity == 0) {
      throw std::invalid_argument("SharedTaskQueue: capacity must be > 0");
    }
  }

  /// Blocks while the queue is full (backpressure toward submitters);
  /// returns false if the queue was closed before the task went in.
  bool push(Submission task) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock,
                   [this] { return tasks_.size() < capacity_ || closed_; });
    if (closed_) {
      return false;
    }
    tasks_.push_back(std::move(task));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: false when the queue is full or closed, leaving
  /// the task with the caller. This is the overload signal — a full pull
  /// queue means every host is busy AND the buffer is exhausted, so the
  /// scheduler sheds (typed kQueueFull) instead of convoying behind a
  /// blocking push.
  [[nodiscard]] bool try_push(Submission task) {
    {
      std::lock_guard lock(mutex_);
      if (closed_ || tasks_.size() >= capacity_) {
        return false;
      }
      tasks_.push_back(std::move(task));
    }
    not_empty_.notify_one();
    return true;
  }

  bool wait_pop(Submission& out) override {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [this] { return !tasks_.empty() || closed_; });
    if (tasks_.empty()) {
      return false;  // closed and drained
    }
    out = std::move(tasks_.front());
    tasks_.pop_front();
    not_full_.notify_one();
    return true;
  }

  /// Wake every blocked producer/consumer; consumers drain what remains.
  void close() {
    std::lock_guard lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return tasks_.size();
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Submission> tasks_;
  bool closed_ = false;
};

}  // namespace horse::faas
