// Shared by the Dispatcher hand-off tests (fast tier) and their
// randomized-gap stress variant: a single-worker dispatcher that records
// the order its bodies ran in, inter-arrival gaps on either side of the
// worker's spin cap, and a polling wait with a generous timeout.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "faas/dispatcher.hpp"
#include "util/time.hpp"

namespace horse::faas::testing {

// The dispatcher's spin cap: an idle worker with dense traffic spins this
// long before it parks.
inline constexpr util::Nanos kMaxSpin = util::kMillisecond;

// Longer than the spin cap: a worker that sees this gap has parked before
// the next task arrives.
inline constexpr util::Nanos kPastMaxSpin = 3 * kMaxSpin / 2;

// Generous: every wait polls a condition that must become true; the
// timeout only turns a hang into a failure.
inline constexpr auto kWaitTimeout = std::chrono::seconds(30);

/// Poll `done` until it holds or kWaitTimeout passes; returns its value.
inline bool wait_until(const std::function<bool()>& done) {
  const auto give_up = std::chrono::steady_clock::now() + kWaitTimeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

/// Let `gap` pass before the next submit: short gaps busy-wait so they
/// land where intended relative to the spin window; gaps past the spin
/// cap sleep (the worker is parked by then either way).
inline void pass_gap(util::Nanos gap) {
  if (gap <= 0) {
    return;
  }
  if (gap >= kPastMaxSpin) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(gap));
  } else {
    util::spin_for(gap);
  }
}

/// A dispatcher whose bodies run `body`, then append the task's seq to
/// `ran` (read it through taken()).
struct RecordingDispatcher {
  explicit RecordingDispatcher(std::size_t workers = 1,
                               std::function<void(const Submission&)> body =
                                   nullptr) {
    Dispatcher::Options options;
    options.workers = workers;
    options.router = [](FunctionId function) {
      return static_cast<std::size_t>(function);
    };
    options.executor = [this, body = std::move(body)](
                           Submission task, SubmissionOutcome& outcome) {
      if (body) {
        body(task);
      }
      const std::lock_guard lock(ran_mutex);
      ran.push_back(task.seq);
      outcome.status = util::Status::ok();
    };
    dispatcher = std::make_unique<Dispatcher>(std::move(options));
  }
  RecordingDispatcher(const RecordingDispatcher&) = delete;
  RecordingDispatcher& operator=(const RecordingDispatcher&) = delete;

  /// The seqs whose bodies ran, in the order they ran.
  std::vector<std::uint64_t> taken() {
    const std::lock_guard lock(ran_mutex);
    return ran;
  }

  /// Submit seq `seq` to worker `function` (stamped now, as a frontend
  /// would).
  void submit(std::uint64_t seq, FunctionId function = 0) {
    Submission task;
    task.function = function;
    task.seq = seq;
    task.enqueued_at = util::monotonic_now();
    dispatcher->submit(std::move(task));
  }

  /// Submit `count` tasks to worker `function`, `gap` apart, and wait for
  /// them: the worker's gap EWMA is then about `gap`, so with `gap` under
  /// the cap it spins once its queue runs empty. Returns the next free
  /// seq.
  std::uint64_t warm_up(std::uint64_t first_seq, int count, util::Nanos gap,
                        FunctionId function = 0) {
    const std::uint64_t target = dispatcher->completed() + count;
    for (int i = 0; i < count; ++i) {
      pass_gap(gap);
      submit(first_seq + i, function);
    }
    wait_until([&] { return dispatcher->completed() >= target; });
    return first_seq + count;
  }

  // Declared before the dispatcher: they outlive its workers.
  std::mutex ran_mutex;
  std::vector<std::uint64_t> ran;
  std::unique_ptr<Dispatcher> dispatcher;
};

}  // namespace horse::faas::testing
