// 1024-seed randomized-gap sweep of the Dispatcher's spin-then-park
// hand-off: each seed starts a fresh single-worker dispatcher (so the gap
// EWMA starts unknown) and feeds it arrivals whose gaps are drawn from a
// spread inside and past the spin cap. Every task must run exactly
// once and in submission order, whatever state (running, spinning,
// parked) each arrival found the worker in.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "faas/handoff_support.hpp"
#include "util/rng.hpp"

namespace horse::faas {
namespace {

using testing::kPastMaxSpin;
using testing::pass_gap;
using testing::RecordingDispatcher;

TEST(DispatcherHandoffStressTest, RandomGapsNeverLoseOrReorderAWakeup) {
  constexpr std::uint64_t kSeeds = 1024;
  constexpr std::uint64_t kTasks = 32;
  constexpr util::Nanos kGaps[] = {0, 10 * util::kMicrosecond,
                                   50 * util::kMicrosecond,
                                   200 * util::kMicrosecond};
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    util::Xoshiro256 rng(seed);
    RecordingDispatcher rec;
    for (std::uint64_t seq = 1; seq <= kTasks; ++seq) {
      // One gap in 64 outlasts the spin cap, so the worker parks and the
      // next submit must wake it.
      pass_gap(rng.bounded(64) == 0 ? kPastMaxSpin
                                    : kGaps[rng.bounded(std::size(kGaps))]);
      rec.submit(seq);
    }
    ASSERT_TRUE(testing::wait_until(
        [&] { return rec.dispatcher->completed() == kTasks; }))
        << "seed " << seed << ": a wake-up was lost";
    ASSERT_EQ(rec.dispatcher->drain().size(), kTasks) << "seed " << seed;
    const std::vector<std::uint64_t> ran = rec.taken();
    ASSERT_EQ(ran.size(), kTasks) << "seed " << seed;
    for (std::uint64_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(ran[i], i + 1) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace horse::faas
