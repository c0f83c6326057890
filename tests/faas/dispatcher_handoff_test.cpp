// Push-mode hand-off (DESIGN.md §5.5): a worker whose queue runs empty
// spins up to the 1 ms cap while its arrivals are dense, then parks; submit()
// notifies only a parked worker. Every assertion here must hold whether
// the worker happened to be spinning, parked or running when the test
// acted: a loaded machine may deschedule any thread for milliseconds, so
// no case depends on the worker "still spinning" after some time. Waits
// poll a condition with a generous timeout.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "faas/handoff_support.hpp"
#include "util/rng.hpp"
#include "util/yield_point.hpp"

namespace horse::faas {
namespace {

using testing::kMaxSpin;
using testing::kPastMaxSpin;
using testing::pass_gap;
using testing::RecordingDispatcher;
using testing::wait_until;

// Warm-up gap: dense enough that the worker then spins once idle, so the
// test's next call usually lands inside the spin.
constexpr util::Nanos kWarmGap = 300 * util::kMicrosecond;
constexpr int kWarmTasks = 24;

TEST(DispatcherHandoffTest, NoLostWakeupAcrossGapsAroundTheWindow) {
  // Blocks of base-gap arrivals keep the worker's traffic dense, so it
  // spins; after each block one probe gap lands early in the spin, half
  // way, at its end, or past it (the worker has parked and must be woken).
  constexpr util::Nanos kBase = 50 * util::kMicrosecond;
  constexpr util::Nanos kProbes[] = {0, kBase, kMaxSpin / 2, kMaxSpin,
                                     kPastMaxSpin};
  constexpr std::uint64_t kTasks = 20'000;
  constexpr int kBlock = 8;
  RecordingDispatcher rec;
  util::Xoshiro256 rng(15);
  for (std::uint64_t seq = 1; seq <= kTasks; ++seq) {
    pass_gap(seq % kBlock == 0 ? kProbes[rng.bounded(std::size(kProbes))]
                               : kBase);
    rec.submit(seq);
  }
  // A lost wake-up strands a task: fail on the timeout, not a hung drain.
  ASSERT_TRUE(
      wait_until([&] { return rec.dispatcher->completed() == kTasks; }))
      << rec.dispatcher->completed() << " of " << kTasks << " completed";
  const auto outcomes = rec.dispatcher->drain();
  ASSERT_EQ(outcomes.size(), kTasks);
  const std::vector<std::uint64_t> ran = rec.taken();
  ASSERT_EQ(ran.size(), kTasks) << "every task ran exactly once";
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(ran[i], i + 1) << "tasks ran out of submission order";
  }
  EXPECT_EQ(rec.dispatcher->completed(), kTasks);
  EXPECT_EQ(rec.dispatcher->pending(), 0u);
}

#if defined(HORSE_SCHED_TEST)
// The interleaving a lost wake-up needs: a submit after the spin's last
// empty poll and before the worker takes its mutex. That submit sees the
// worker not parked and does not notify, so only the worker's locked
// re-check can find the task. The yield hook makes the submit from the
// worker thread itself at exactly that point, so the case does not wait
// for the machine to hit a few-ns race.
std::atomic<RecordingDispatcher*> g_inject_into{nullptr};
std::atomic<std::uint64_t> g_inject_seq{0};

void submit_after_empty_spin(const char* site) noexcept {
  if (std::strcmp(site, "dispatcher.spin_done") != 0) {
    return;
  }
  RecordingDispatcher* rec = g_inject_into.load();
  // Only a spin that ended with nothing queued: the deadline ran out and
  // the worker is on its way to park.
  if (rec == nullptr || rec->dispatcher->pending() != 0 ||
      !g_inject_into.compare_exchange_strong(rec, nullptr)) {
    return;
  }
  rec->submit(g_inject_seq.load());
}

struct InjectHookGuard {
  InjectHookGuard() { util::set_yield_hook(&submit_after_empty_spin); }
  ~InjectHookGuard() {
    util::set_yield_hook(nullptr);
    g_inject_into.store(nullptr);
  }
  InjectHookGuard(const InjectHookGuard&) = delete;
  InjectHookGuard& operator=(const InjectHookGuard&) = delete;
};

TEST(DispatcherHandoffTest, SubmitBetweenSpinAndParkIsPickedUp) {
  // A lone worker spins only when the process may use two CPUs or more.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const int cpus = sched_getaffinity(0, sizeof allowed, &allowed) == 0
                       ? CPU_COUNT(&allowed)
                       : static_cast<int>(std::thread::hardware_concurrency());
  if (cpus < 2) {
    GTEST_SKIP() << "one CPU: push workers park without spinning";
  }
  RecordingDispatcher rec;
  const InjectHookGuard guard;  // after rec: cleared before rec dies
  std::uint64_t seq = 1;
  std::uint64_t expected = 0;
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t injected = seq++;
    g_inject_seq.store(injected);
    g_inject_into.store(&rec);
    expected += 1;
    // Dense traffic makes the worker spin; once a burst stops, the spin
    // runs out empty and the hook submits `injected` before the worker
    // locks. A burst whose gaps the machine stretched past the spin cap
    // leaves the worker parking without a spin, so bursts repeat until
    // the hook has fired.
    bool fired = false;
    for (int burst = 0; burst < 100 && !fired; ++burst) {
      seq = rec.warm_up(seq, kWarmTasks, kWarmGap);
      expected += kWarmTasks;
      const auto give_up = std::chrono::steady_clock::now() +
                           std::chrono::nanoseconds(20 * kMaxSpin);
      while (!(fired = g_inject_into.load() == nullptr) &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    ASSERT_TRUE(fired) << "round " << round
                       << ": the worker never spun out empty";
    ASSERT_TRUE(wait_until([&] {
      return rec.dispatcher->completed() == expected;
    })) << "round " << round << ": task " << injected
        << " was submitted between spin and park and never ran";
  }
  const std::vector<std::uint64_t> ran = rec.taken();
  const std::set<std::uint64_t> unique(ran.begin(), ran.end());
  EXPECT_EQ(ran.size(), expected);
  EXPECT_EQ(unique.size(), expected) << "a task ran twice";
}
#endif  // HORSE_SCHED_TEST

TEST(DispatcherHandoffTest, PauseWhileSpinningHoldsTheTaskUntilResume) {
  RecordingDispatcher rec;
  std::uint64_t seq = 1;
  for (int round = 0; round < 5; ++round) {
    seq = rec.warm_up(seq, kWarmTasks, kWarmGap);
    rec.dispatcher->pause();
    const std::uint64_t held = seq++;
    rec.submit(held);
    // Paused with work queued, the worker leaves any spin and parks; once
    // it has, the body provably has not run.
    ASSERT_TRUE(
        wait_until([&] { return rec.dispatcher->parked_workers() == 1; }));
    const std::vector<std::uint64_t> ran = rec.taken();
    EXPECT_EQ(std::count(ran.begin(), ran.end(), held), 0)
        << "a paused dispatcher ran a task";
    EXPECT_EQ(rec.dispatcher->pending(), 1u);
    rec.dispatcher->resume();
    const auto outcomes = rec.dispatcher->drain();
    EXPECT_FALSE(outcomes.empty());
    EXPECT_EQ(rec.taken().back(), held) << "resume() must release the task";
  }
}

TEST(DispatcherHandoffTest, StealWhileSpinningTakesTheTaskAwayForGood) {
  RecordingDispatcher rec;
  std::uint64_t seq = rec.warm_up(1, kWarmTasks, kWarmGap);

  // Deterministic arm: a paused worker cannot race the steal.
  rec.dispatcher->pause();
  const std::uint64_t stolen_seq = seq++;
  rec.submit(stolen_seq);
  const std::vector<Submission> stolen = rec.dispatcher->steal_pending();
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen[0].seq, stolen_seq);
  EXPECT_EQ(rec.dispatcher->pending(), 0u);
  rec.dispatcher->resume();

  // Racing arm: submit then steal against a spinning worker. Each task is
  // either stolen or run, never both and never neither.
  std::set<std::uint64_t> stolen_seqs{stolen_seq};
  std::set<std::uint64_t> submitted{stolen_seq};
  for (int i = 0; i < 200; ++i) {
    seq = rec.warm_up(seq, 2, kWarmGap);
    const std::uint64_t racing = seq++;
    submitted.insert(racing);
    rec.submit(racing);
    for (const Submission& task : rec.dispatcher->steal_pending()) {
      stolen_seqs.insert(task.seq);
    }
  }
  // A later task still runs: the queued count the spin polls stayed
  // consistent with the queue.
  const std::uint64_t later = seq++;
  rec.submit(later);
  (void)rec.dispatcher->drain();
  EXPECT_EQ(rec.dispatcher->pending(), 0u);
  const std::vector<std::uint64_t> ran = rec.taken();
  EXPECT_EQ(ran.back(), later);
  const std::multiset<std::uint64_t> ran_set(ran.begin(), ran.end());
  for (std::uint64_t s : submitted) {
    const std::size_t runs = ran_set.count(s);
    const std::size_t steals = stolen_seqs.count(s);
    EXPECT_EQ(runs + steals, 1u) << "seq " << s << " ran " << runs
                                 << "x and was stolen " << steals << "x";
  }
}

TEST(DispatcherHandoffTest, IdleWorkersPark) {
  constexpr std::size_t kWorkers = 4;
  RecordingDispatcher rec(kWorkers);
  // Interleaved traffic to every worker, close enough together that each
  // worker spins between its arrivals.
  std::uint64_t seq = 1;
  for (int i = 0; i < 64; ++i) {
    for (std::size_t w = 0; w < kWorkers; ++w) {
      rec.submit(seq++, static_cast<FunctionId>(w));
    }
    pass_gap(100 * util::kMicrosecond);
  }
  (void)rec.dispatcher->drain();
  // Traffic has stopped: every spin ends and every worker parks.
  EXPECT_TRUE(wait_until([&] {
    return rec.dispatcher->parked_workers() == rec.dispatcher->capacity();
  })) << "parked " << rec.dispatcher->parked_workers() << " of "
      << rec.dispatcher->capacity();
  EXPECT_EQ(rec.taken().size(), 64 * kWorkers);
}

TEST(DispatcherHandoffTest, DestroyingASpinningDispatcherJoinsPromptly) {
  for (int round = 0; round < 10; ++round) {
    auto rec = std::make_unique<RecordingDispatcher>();
    (void)rec->warm_up(1, kWarmTasks, kWarmGap);
    const auto start = std::chrono::steady_clock::now();
    rec.reset();
    const auto took = std::chrono::steady_clock::now() - start;
    // Generous: the spin leaves on shutdown at once, and even a worker
    // that ignored it would park within the 1 ms cap and be woken.
    EXPECT_LT(took, std::chrono::seconds(5));
  }
}

}  // namespace
}  // namespace horse::faas
