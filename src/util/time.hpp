// Time primitives shared by the measurement and simulation planes.
//
// Nanos is the single time unit across the codebase: the paper's claims
// span 150 ns (HORSE resume) to 1.5 s (cold boot), all representable in a
// signed 64-bit nanosecond count.
#pragma once

#include <chrono>
#include <cstdint>

namespace horse::util {

/// Nanoseconds as a plain integer. Simulation timestamps and durations
/// both use this; the simulator's virtual clock never touches the real one.
using Nanos = std::int64_t;

inline constexpr Nanos kMicrosecond = 1'000;
inline constexpr Nanos kMillisecond = 1'000'000;
inline constexpr Nanos kSecond = 1'000'000'000;

/// One step of the α = 1/8 EWMA the runtime smooths its delay and gap
/// estimates with: the cluster's per-host queueing delay and each
/// dispatcher worker's inter-arrival gap.
[[nodiscard]] constexpr Nanos ewma_step(Nanos ewma, Nanos sample) noexcept {
  return ewma + (sample - ewma) / 8;
}

/// Monotonic wall-clock now, for real measurements.
inline Nanos monotonic_now() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Stopwatch over the monotonic clock.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(monotonic_now()) {}

  void restart() noexcept { start_ = monotonic_now(); }
  [[nodiscard]] Nanos elapsed() const noexcept { return monotonic_now() - start_; }

 private:
  Nanos start_;
};

/// Busy-spin for approximately `duration` nanoseconds. Workload stand-ins
/// (sysbench burner, uLL function bodies below timer resolution) use this
/// rather than sleeping: sleeping yields the core, which would erase the
/// run-queue occupancy the experiments depend on.
inline void spin_for(Nanos duration) noexcept {
  const Nanos deadline = monotonic_now() + duration;
  while (monotonic_now() < deadline) {
    // busy wait
  }
}

}  // namespace horse::util
