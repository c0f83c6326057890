// Adaptive keep-alive: the hybrid-histogram policy (Shahrad et al.
// ATC'20) learning per-function idle patterns and sizing warm-pool
// windows, versus the fixed 10-minute default.
//
//   $ ./adaptive_keepalive
//
// Two functions share a platform: a chatty NAT invoked every ~20 s and a
// batch-style thumbnail invoked every ~45 min. The demo replays a day of
// logical time and reports what keep-alive window each function earned
// and how many sandbox-hours the adaptive policy saves.
#include <iostream>

#include "faas/platform.hpp"
#include "metrics/reporter.hpp"
#include "workloads/nat.hpp"
#include "workloads/thumbnail.hpp"

int main() {
  using namespace horse;

  faas::PlatformConfig config;
  config.num_cpus = 4;
  config.adaptive_keep_alive = true;
  config.keep_alive_policy.min_samples = 6;
  faas::Platform platform(config);

  faas::FunctionSpec nat_spec;
  nat_spec.name = "nat";
  nat_spec.implementation = std::make_shared<workloads::NatFunction>(64);
  nat_spec.sandbox.name = "nat-sb";
  nat_spec.sandbox.num_vcpus = 1;
  nat_spec.sandbox.memory_mb = 16;
  nat_spec.sandbox.ull = true;
  const auto nat = *platform.registry().add(std::move(nat_spec));

  faas::FunctionSpec thumb_spec;
  thumb_spec.name = "thumbnail";
  thumb_spec.implementation =
      std::make_shared<workloads::ThumbnailFunction>(64, 8);
  thumb_spec.sandbox.name = "thumb-sb";
  thumb_spec.sandbox.num_vcpus = 2;
  thumb_spec.sandbox.memory_mb = 64;
  const auto thumbnail = *platform.registry().add(std::move(thumb_spec));

  // Replay ~6 hours of logical time: NAT every 20 s, thumbnail every
  // 45 min. (Invocations run for real; time between them is logical.)
  workloads::Request packet;
  packet.header = "src=10.1.1.1 dst=10.2.2.2 port=443 proto=tcp";
  workloads::Request image;
  image.threshold = 1;

  const util::Nanos horizon = 6LL * 3600 * util::kSecond;
  util::Nanos next_nat = 0;
  util::Nanos next_thumb = 0;
  util::Nanos now = 0;
  int nat_count = 0;
  int thumb_count = 0;
  while (now < horizon) {
    const util::Nanos next = std::min(next_nat, next_thumb);
    platform.advance_time(next - now);
    now = next;
    if (next == next_nat) {
      (void)platform.invoke(nat, packet, faas::StartMode::kCold);
      ++nat_count;
      next_nat += 20 * util::kSecond;
    } else {
      (void)platform.invoke(thumbnail, image, faas::StartMode::kCold);
      ++thumb_count;
      next_thumb += 45LL * 60 * util::kSecond;
    }
  }

  const auto nat_decision = platform.keep_alive_decision(nat);
  const auto thumb_decision = platform.keep_alive_decision(thumbnail);

  metrics::TextTable table("learned keep-alive windows after 6 h",
                           {"function", "invocations", "pre-warm window",
                            "keep-alive", "from histogram"});
  table.add_row({"nat (every 20 s)", std::to_string(nat_count),
                 metrics::format_nanos(static_cast<double>(
                     nat_decision.prewarm_window)),
                 metrics::format_nanos(static_cast<double>(
                     nat_decision.keep_alive)),
                 nat_decision.from_histogram ? "yes" : "no (fallback)"});
  table.add_row({"thumbnail (every 45 min)", std::to_string(thumb_count),
                 metrics::format_nanos(static_cast<double>(
                     thumb_decision.prewarm_window)),
                 metrics::format_nanos(static_cast<double>(
                     thumb_decision.keep_alive)),
                 thumb_decision.from_histogram ? "yes" : "no (fallback)"});
  table.print(std::cout);

  // Sandbox-seconds kept warm per invocation: fixed policy vs adaptive.
  const double fixed_cost =
      static_cast<double>(config.warm_pool.keep_alive) / 1e9;
  const double nat_cost = static_cast<double>(nat_decision.keep_alive) / 1e9;
  const double thumb_cost =
      static_cast<double>(thumb_decision.prewarm_window +
                          thumb_decision.keep_alive) /
      1e9;
  std::cout << "\nwarm-residency per invocation (sandbox-seconds):\n"
            << "  fixed 10-min policy: " << fixed_cost << " for both\n"
            << "  adaptive: nat " << nat_cost << ", thumbnail " << thumb_cost
            << " (pre-warm lets the pool drop it between runs)\n";
  return 0;
}
