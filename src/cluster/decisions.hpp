// The cluster's decision core: the rules ClusterScheduler (real threads)
// and SimCluster (virtual time) must agree on, written once so the
// 1024-seed sim sweeps test the production decisions, not a copy. Pure,
// single-threaded and clock-injected: callers pass `now` and the host
// state they read, and keep their own locks or virtual time.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/load_balance.hpp"
#include "util/time.hpp"

namespace horse::cluster {

/// The queueing-delay EWMA (α = 1/8) a host folds each task's pickup
/// `sample` into.
using util::ewma_step;

/// Admission's queue-delay estimate: the minimum EWMA over healthy hosts
/// (0 when none is). Optimistic by design — the cluster sheds only when
/// EVERY healthy host is already backed up past the slack.
/// `healthy_ewma(host)` gives a host's EWMA, nullopt when out of rotation.
template <typename Hosts, typename HealthyEwma>
[[nodiscard]] util::Nanos estimate_queue_delay(const Hosts& hosts,
                                               HealthyEwma healthy_ewma) {
  std::optional<util::Nanos> best;
  for (const auto& host : hosts) {
    const std::optional<util::Nanos> ewma = healthy_ewma(host);
    if (ewma && (!best || *ewma < *best)) {
      best = ewma;
    }
  }
  return best.value_or(0);
}

/// Shed a submission with absolute `deadline` arriving at `now` when no
/// slack is left or the estimated queue delay already exceeds it —
/// executing would only produce a late, worthless response.
[[nodiscard]] constexpr bool sheds_on_slack(util::Nanos deadline,
                                            util::Nanos now,
                                            util::Nanos estimate) noexcept {
  const util::Nanos slack = deadline > now ? deadline - now : 0;
  return slack == 0 || estimate > slack;
}

/// `forced`: no host was healthy, so the caller recovers host 0 (healthy,
/// not crashed, as Host::force_recover) and routes there — a task queued
/// on a host out of rotation might never run. Requests are never dropped.
struct Route {
  HostId host = 0;
  bool forced = false;
};

/// Route one invocation over `healthy`, the snapshots of the hosts in
/// rotation; a policy index out of range falls back to the first one.
[[nodiscard]] inline Route route_to_healthy(
    LoadBalancePolicy& policy, const std::vector<HostSnapshot>& healthy,
    faas::FunctionId function) {
  if (healthy.empty()) {
    return Route{0, true};
  }
  const std::size_t index = policy.select(healthy, function);
  return Route{healthy[index < healthy.size() ? index : 0].host, false};
}

/// Dedup of in-flight work orphaned by a declared-dead host. The dead host
/// still finishes what it started, so each adopted key yields two outcomes
/// — zombie and re-dispatched copy, in either order. The first is
/// delivered; the second is suppressed and retires the key (a copy is
/// never orphaned again, so no third outcome can follow).
class OrphanLedger {
 public:
  /// Adopt an orphan so a copy may be re-dispatched. A task that already
  /// is a copy is not adopted (false): its zombie is the surviving
  /// outcome, and another copy would mint a third.
  bool adopt(std::uint64_t key, bool redispatched) {
    if (!redispatched) {
      outcomes_.emplace(key, 0);
    }
    return !redispatched;
  }

  /// An outcome for `key` surfaced: true to deliver it, false to suppress
  /// it as an orphan's second outcome.
  bool deliver(std::uint64_t key) {
    const auto it = outcomes_.find(key);
    if (it == outcomes_.end() || ++it->second == 1) {
      return true;
    }
    outcomes_.erase(it);
    ++suppressed_;
    return false;
  }

  /// Adopted keys still awaiting their second outcome.
  [[nodiscard]] std::size_t size() const noexcept { return outcomes_.size(); }
  /// Second outcomes suppressed so far.
  [[nodiscard]] std::uint64_t suppressed() const { return suppressed_; }

 private:
  /// Adopted key → outcomes seen so far (0 or 1).
  std::unordered_map<std::uint64_t, int> outcomes_;
  std::uint64_t suppressed_ = 0;
};

}  // namespace horse::cluster
