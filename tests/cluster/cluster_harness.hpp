// Shared helpers for the deterministic cluster test tier.
//
// Everything here is a pure function of an explicit seed, extending the
// PR 1 harness conventions to the cluster layer: a failing property run
// prints its seed, and re-running with that seed alone reproduces the
// exact workload, the exact SimCluster decision log, and the failure.
// GatedFunction, at the end, serves the real-threaded tests instead: it
// holds a worker in flight for exactly as long as a test needs.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string_view>
#include <vector>

#include "cluster/sim_cluster.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workloads/function.hpp"

namespace horse::cluster::test_harness {

/// A seeded arrival sequence: times are non-decreasing, services follow a
/// short/long (90/10 by default) mix — the skewed shape E18 measures.
struct SeededWorkload {
  std::vector<util::Nanos> times;
  std::vector<faas::FunctionId> functions;
  std::vector<util::Nanos> services;
  /// Chain length per arrival: 0 = plain submission, N > 0 = an N-stage
  /// workflow chain whose total nominal service is `services[i]`.
  std::vector<std::uint32_t> chain_stages;

  [[nodiscard]] std::size_t size() const noexcept { return times.size(); }
};

struct WorkloadParams {
  std::size_t count = 200;
  std::uint32_t num_functions = 4;
  /// Mean exponential inter-arrival gap.
  util::Nanos mean_gap = 100 * util::kMicrosecond;
  util::Nanos short_service = 10 * util::kMicrosecond;
  util::Nanos long_service = util::kMillisecond;
  /// Fraction of arrivals drawing the long service time.
  double long_fraction = 0.1;
  /// Fraction of arrivals submitted as workflow chains. Kept at 0 by
  /// default so pre-chain workloads stay byte-identical: the chain draw
  /// is short-circuited (no RNG consumed) when the fraction is zero.
  double chain_fraction = 0.0;
  /// Stages per chain arrival.
  std::uint32_t chain_length = 3;
};

inline SeededWorkload make_workload(std::uint64_t seed,
                                    WorkloadParams params = {}) {
  SeededWorkload out;
  util::Xoshiro256 rng(seed);
  util::Nanos t = 0;
  for (std::size_t i = 0; i < params.count; ++i) {
    t += static_cast<util::Nanos>(
        rng.exponential(1.0 / static_cast<double>(params.mean_gap)));
    out.times.push_back(t);
    out.functions.push_back(
        static_cast<faas::FunctionId>(rng.bounded(params.num_functions)));
    out.services.push_back(rng.uniform01() < params.long_fraction
                               ? params.long_service
                               : params.short_service);
    out.chain_stages.push_back(params.chain_fraction > 0 &&
                                       rng.uniform01() < params.chain_fraction
                                   ? params.chain_length
                                   : 0);
  }
  return out;
}

/// Split a chain's total service across its stages: equal shares, the
/// last stage absorbing the rounding remainder (total preserved exactly).
inline std::vector<util::Nanos> stage_split(util::Nanos total,
                                            std::uint32_t stages) {
  std::vector<util::Nanos> services(stages, total / stages);
  services.back() += total - (total / stages) * stages;
  return services;
}

/// Submit arrival `i` of the workload — a plain submission or, when the
/// workload marks it as a chain, one chain submission (one seq, one key,
/// one deadline for the whole chain).
inline void submit_one(SimCluster& cluster, const SeededWorkload& workload,
                       std::size_t i, util::Nanos deadline = 0) {
  if (i < workload.chain_stages.size() && workload.chain_stages[i] > 0) {
    cluster.submit_chain(workload.times[i], workload.functions[i],
                         stage_split(workload.services[i],
                                     workload.chain_stages[i]),
                         deadline);
  } else {
    cluster.submit(workload.times[i], workload.functions[i],
                   workload.services[i], deadline);
  }
}

inline void feed(SimCluster& cluster, const SeededWorkload& workload) {
  for (std::size_t i = 0; i < workload.size(); ++i) {
    submit_one(cluster, workload, i);
  }
}

/// Peak concurrent executions per host, from the completion records'
/// [start, finish) intervals. At equal timestamps a finish is processed
/// before a start, so back-to-back slot reuse does not count as overlap.
inline std::vector<std::size_t> peak_concurrency(
    const std::vector<SimCompletion>& completions, std::size_t num_hosts) {
  struct Event {
    util::Nanos time;
    int delta;
    std::size_t host;
  };
  std::vector<Event> events;
  events.reserve(completions.size() * 2);
  for (const SimCompletion& done : completions) {
    events.push_back({done.start, +1, done.host});
    events.push_back({done.finish, -1, done.host});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.time != b.time ? a.time < b.time : a.delta < b.delta;
  });
  std::vector<std::size_t> current(num_hosts, 0);
  std::vector<std::size_t> peak(num_hosts, 0);
  for (const Event& event : events) {
    if (event.delta > 0) {
      peak[event.host] = std::max(peak[event.host], ++current[event.host]);
    } else {
      --current[event.host];
    }
  }
  return peak;
}

/// True when every completion carries a distinct seq (no double dispatch).
inline bool unique_seqs(const std::vector<SimCompletion>& completions) {
  std::set<std::uint64_t> seen;
  for (const SimCompletion& done : completions) {
    if (!seen.insert(done.seq).second) {
      return false;
    }
  }
  return true;
}

/// Policy-decision count per host (what the fairness delta is measured
/// over; unlike dispatch_counts() this never includes occupy() preloads).
inline std::vector<std::uint64_t> decision_counts(const SimCluster& cluster,
                                                  std::size_t num_hosts) {
  std::vector<std::uint64_t> counts(num_hosts, 0);
  for (const SimDecision& decision : cluster.decisions()) {
    counts[decision.host]++;
  }
  return counts;
}

/// A workload whose every invocation blocks until open(): in flight for
/// exactly as long as the test needs, however the host schedules it. The
/// body runs under its platform shard's mutex, so while the gate is shut
/// the test must not call anything that takes that lock (counters() does);
/// wait_entered() is the lock-free way to know the body has started.
class GatedFunction final : public workloads::Function {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "gated";
  }
  [[nodiscard]] workloads::Category category() const noexcept override {
    return workloads::Category::kCategory3;
  }
  workloads::Response invoke(const workloads::Request& /*request*/) override {
    std::unique_lock lock(mutex_);
    ++entered_;
    changed_.notify_all();
    changed_.wait(lock, [this] { return open_; });
    return {};
  }
  [[nodiscard]] util::Nanos nominal_duration() const noexcept override {
    return util::kMicrosecond;
  }
  void wait_entered() {
    std::unique_lock lock(mutex_);
    changed_.wait(lock, [this] { return entered_ > 0; });
  }
  void open() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    changed_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  int entered_ = 0;
  bool open_ = false;
};

}  // namespace horse::cluster::test_harness
