// Deterministic-schedule instrumentation points.
//
// HORSE's correctness story for the lock-free 𝒫²𝒮ℳ splice path is an
// *argument* (pairwise-disjoint fields, Algorithm 1); this header is the
// mechanism that lets tests turn the argument into something a machine can
// falsify. Concurrency-sensitive code sprinkles HORSE_YIELD_POINT("site")
// between the individual loads and stores whose interleaving matters. In a
// normal build the macro compiles to nothing — the release splice path is
// byte-identical to the uninstrumented one. When the tree is configured
// with -DHORSE_SCHED_TEST=ON the macro becomes a call through a global
// hook pointer; the test-only ScheduleExplorer (tests/harness/) installs a
// hook that serialises the participating threads and hands control between
// them under a seeded PCT-style scheduler, so any interleaving it explores
// can be replayed exactly from its seed.
//
// Contract for hook implementations:
//   * the hook may block (that is the point: it parks the calling thread
//     until the explorer hands it the token again);
//   * it must be async-signal-unsafe-free and must not throw;
//   * threads the hook does not recognise must pass through with nothing
//     but one atomic load of cost — production threads (e.g. a thread-pool
//     worker owned by an unrelated test) keep running at full speed.
#pragma once

#if defined(HORSE_SCHED_TEST)

#include <atomic>

namespace horse::util {

/// `site` is a static string naming the instrumentation point (e.g.
/// "splice.set_anchor_next"); explorers record it so a failing schedule's
/// trace reads as a sequence of named events, not raw program counters.
using YieldHookFn = void (*)(const char* site) noexcept;

inline std::atomic<YieldHookFn> g_yield_hook{nullptr};

inline void set_yield_hook(YieldHookFn hook) noexcept {
  g_yield_hook.store(hook, std::memory_order_release);
}

[[nodiscard]] inline YieldHookFn yield_hook() noexcept {
  return g_yield_hook.load(std::memory_order_acquire);
}

inline void yield_point(const char* site) noexcept {
  if (YieldHookFn hook = g_yield_hook.load(std::memory_order_acquire)) {
    hook(site);
  }
}

}  // namespace horse::util

#define HORSE_YIELD_POINT(site) ::horse::util::yield_point(site)

#else  // !HORSE_SCHED_TEST

#define HORSE_YIELD_POINT(site) ((void)0)

#endif  // HORSE_SCHED_TEST
