// Deterministic interleaving explorer for HORSE's lock-free splice path.
//
// The paper's Algorithm 1 claims 𝒫²𝒮ℳ splice tasks may execute in
// parallel without locks because they write pairwise-disjoint fields.
// Production code encodes that argument; this harness *falsifies* it on
// demand. It turns the preemptive-concurrency problem into a cooperative
// one: library code is compiled (under -DHORSE_SCHED_TEST=ON) with
// HORSE_YIELD_POINT markers between the individual loads and stores whose
// ordering matters, and the explorer serialises the participating threads
// so that exactly one runs at a time, choosing who proceeds at every
// marker with a seeded PCT-style scheduler (Burckhardt et al., "A
// Randomized Scheduler with Probabilistic Guarantees of Finding Bugs"):
//
//   * each thread gets a distinct random initial priority;
//   * d-1 priority change points are sampled over the step horizon — when
//     the global step count crosses one, the running thread's priority
//     drops below every other, forcing a context switch at an adversarial
//     moment;
//   * the highest-priority runnable thread always runs.
//
// One deviation from textbook PCT: HORSE threads *spin* (spinlock
// waiters, retry loops). A spinning top-priority thread would
// otherwise be re-picked forever once the change points are exhausted, so
// after roughly `spin_demote_threshold` consecutive picks of the same
// thread at yield points the explorer demotes it as if a change point had
// fired. The exact burst length is jittered from a seed-derived RNG
// stream — a fixed length resonates with periodic retry loops and can
// park the same thread inside its critical section on every burst (see
// ExplorerOptions::spin_demote_threshold). All draws are pure functions
// of the seed and the schedule's own decision sequence, so replay is
// unaffected.
//
// Everything the scheduler decides is a pure function of (seed, step):
// given deterministic thread bodies, a schedule that finds a violation is
// replayed exactly by re-running with the same seed. That is the
// workflow: `ScheduleExplorer::explore` sweeps seeds until a scenario's
// audit fails, reports the seed, and the test (or a developer at a
// keyboard) re-runs that seed alone to get the identical failure.
//
// Threads the explorer did not spawn pass through yield points untouched
// (one atomic load), so unrelated machinery keeps running at full speed.
#pragma once

#if !defined(HORSE_SCHED_TEST)
#error "schedule_explorer.hpp requires -DHORSE_SCHED_TEST=ON (see CMakePresets.json)"
#endif

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/yield_point.hpp"

namespace horse::harness {

struct ExplorerOptions {
  /// Everything below is derived from this; same seed -> same schedule.
  std::uint64_t seed = 1;
  /// Hard cap on yield-point steps per schedule. Exceeding it aborts
  /// serialisation (threads are released to free-run to completion) and
  /// the report carries completed=false — treat as a livelock finding.
  std::size_t max_steps = 100'000;
  /// PCT depth d-1: number of priority change points per schedule.
  std::size_t priority_change_points = 3;
  /// Change points are sampled uniformly over [1, horizon). Scenarios
  /// here execute a few hundred to a few thousand steps, so a small
  /// horizon keeps the change points inside the interesting window.
  std::size_t change_point_horizon = 1024;
  /// Mean number of consecutive picks of one thread before it is forcibly
  /// demoted (keeps spin-wait scenarios live; see file comment). The
  /// actual burst length is jittered per event in [t/2, 3t/2) from a
  /// seed-derived stream: a FIXED threshold phase-locks with periodic
  /// loops (a retry loop whose yield-site cycle divides the threshold is
  /// parked at the same site — possibly inside its critical section —
  /// every burst, turning a live system into a deterministic livelock).
  std::size_t spin_demote_threshold = 64;
};

/// One deterministic run: spawn threads, run them under the seeded
/// scheduler, then inspect shared state. Construct → spawn() bodies →
/// run() → destroy. Single active instance at a time (asserted).
class InterleavingSchedule {
 public:
  explicit InterleavingSchedule(const ExplorerOptions& options);
  ~InterleavingSchedule();

  InterleavingSchedule(const InterleavingSchedule&) = delete;
  InterleavingSchedule& operator=(const InterleavingSchedule&) = delete;

  /// Register a thread body. Spawn order defines the thread's index and
  /// therefore its (seed-derived) initial priority — keep it fixed across
  /// runs or replay changes meaning. Call before run() only.
  void spawn(std::string name, std::function<void()> body);

  struct Report {
    /// False when the step cap was hit (livelock under this schedule).
    bool completed = false;
    /// Yield-point steps consumed.
    std::size_t steps = 0;
    /// Token handoffs between threads (= preemptions explored).
    std::size_t context_switches = 0;
  };

  /// Runs every spawned thread to completion under the seeded scheduler
  /// and joins them. The yield hook is installed for the duration and
  /// restored afterwards.
  Report run();

 private:
  enum class ThreadRunState : std::uint8_t {
    kNotStarted,
    kRunnable,
    kFinished,
  };

  struct ManagedThread {
    std::string name;
    std::function<void()> body;
    std::int64_t priority = 0;
    ThreadRunState state = ThreadRunState::kNotStarted;
    const char* last_site = "spawn";
    std::thread thread;
  };

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  static void hook_trampoline(const char* site) noexcept;
  void on_yield(const char* site) noexcept;
  void thread_main(std::size_t index);
  /// Highest-priority runnable thread, or kNone.
  [[nodiscard]] std::size_t pick_locked() const noexcept;
  void demote_locked(std::size_t index) noexcept;
  /// Draw the next spin-demotion burst length (seed-derived jitter).
  [[nodiscard]] std::size_t next_spin_burst() noexcept;

  ExplorerOptions options_;
  std::vector<std::size_t> change_points_;  // ascending step indices
  std::size_t next_change_point_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<ManagedThread>> threads_;
  std::size_t registered_ = 0;
  std::size_t finished_ = 0;
  std::size_t current_ = kNone;
  std::size_t consecutive_picks_ = 0;
  /// Burst length for the NEXT spin demotion; re-drawn (seed-derived)
  /// after every demotion to break resonance with periodic spin loops.
  std::size_t spin_burst_limit_ = 0;
  util::Xoshiro256 spin_jitter_rng_{0};
  std::int64_t demotion_floor_ = 0;  // next forced-demotion priority
  std::size_t steps_ = 0;
  std::size_t switches_ = 0;
  bool started_ = false;
  bool free_run_ = false;

  util::YieldHookFn previous_hook_ = nullptr;
};

/// Seed-sweep driver: runs `run_one(options-with-seed)` for seeds
/// base.seed, base.seed+1, ... until the scenario reports a violation
/// (non-OK status) or `max_schedules` schedules have been explored.
class ScheduleExplorer {
 public:
  struct Result {
    bool violation_found = false;
    std::uint64_t failing_seed = 0;
    std::size_t schedules_explored = 0;
    std::string message;
  };

  using ScheduleFn = std::function<util::Status(const ExplorerOptions&)>;

  static Result explore(ExplorerOptions base, std::size_t max_schedules,
                        const ScheduleFn& run_one);
};

}  // namespace horse::harness
