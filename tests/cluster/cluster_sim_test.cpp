#include "cluster/sim_cluster.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "cluster_harness.hpp"

namespace horse::cluster {
namespace {

using test_harness::feed;
using test_harness::make_workload;
using test_harness::peak_concurrency;
using test_harness::unique_seqs;

SimClusterParams base_params(std::size_t hosts, DispatchMode dispatch,
                             PolicyKind policy, std::uint64_t seed) {
  SimClusterParams params;
  params.num_hosts = hosts;
  params.dispatch = dispatch;
  params.policy = policy;
  params.seed = seed;
  params.defaults.slots = 1;
  return params;
}

TEST(SimClusterTest, PushStartsImmediatelyWithFreeSlots) {
  SimClusterParams params =
      base_params(1, DispatchMode::kPush, PolicyKind::kRoundRobin, 1);
  params.defaults.slots = 2;
  SimCluster sim(params);
  sim.submit(0, 0, 100);
  sim.submit(0, 0, 100);
  sim.run_to_completion();
  ASSERT_EQ(sim.completions().size(), 2u);
  for (const SimCompletion& done : sim.completions()) {
    EXPECT_EQ(done.queueing(), 0);
    EXPECT_EQ(done.finish, 100);
  }
}

TEST(SimClusterTest, PushQueuesBeyondCapacityFifo) {
  SimCluster sim(
      base_params(1, DispatchMode::kPush, PolicyKind::kRoundRobin, 1));
  sim.submit(0, 0, 100);
  sim.submit(0, 0, 100);
  sim.submit(0, 0, 100);
  sim.run_to_completion();
  ASSERT_EQ(sim.completions().size(), 3u);
  EXPECT_EQ(sim.completions()[0].queueing(), 0);
  EXPECT_EQ(sim.completions()[1].queueing(), 100);
  EXPECT_EQ(sim.completions()[2].queueing(), 200);
}

TEST(SimClusterTest, PullNeverExceedsAnyHostCapacity) {
  SimClusterParams params =
      base_params(2, DispatchMode::kPull, PolicyKind::kRoundRobin, 7);
  SimCluster sim(params);
  for (int i = 0; i < 8; ++i) {
    sim.submit(0, 0, 50);
  }
  sim.run_to_completion();
  ASSERT_EQ(sim.completions().size(), 8u);
  for (const std::size_t peak : peak_concurrency(sim.completions(), 2)) {
    EXPECT_LE(peak, 1u);
  }
}

TEST(SimClusterTest, PullBindsLateToTheIdleHost) {
  SimClusterParams params =
      base_params(2, DispatchMode::kPull, PolicyKind::kRoundRobin, 7);
  SimCluster sim(params);
  sim.occupy(0, 1, 10'000);  // host 0 busy for a long time
  sim.submit(1, 3, 50);
  ASSERT_FALSE(sim.decisions().empty());
  EXPECT_EQ(sim.decisions().back().host, 1u);
  sim.run_to_completion();
}

TEST(SimClusterTest, DeterministicReplayFromSeed) {
  const auto workload = make_workload(99);
  SimClusterParams params =
      base_params(4, DispatchMode::kPush, PolicyKind::kLeastLoaded, 99);
  params.defaults.jitter = 0.2;
  SimCluster first(params);
  SimCluster second(params);
  feed(first, workload);
  feed(second, workload);
  first.run_to_completion();
  second.run_to_completion();
  ASSERT_EQ(first.decisions().size(), second.decisions().size());
  for (std::size_t i = 0; i < first.decisions().size(); ++i) {
    EXPECT_EQ(first.decisions()[i].host, second.decisions()[i].host);
    EXPECT_EQ(first.decisions()[i].seq, second.decisions()[i].seq);
  }
  ASSERT_EQ(first.completions().size(), second.completions().size());
  for (std::size_t i = 0; i < first.completions().size(); ++i) {
    EXPECT_EQ(first.completions()[i].finish, second.completions()[i].finish);
    EXPECT_EQ(first.completions()[i].host, second.completions()[i].host);
  }
}

TEST(SimClusterTest, JitterStreamDependsOnSeed) {
  const auto workload = make_workload(5);
  SimClusterParams params =
      base_params(2, DispatchMode::kPush, PolicyKind::kRoundRobin, 5);
  params.defaults.jitter = 0.3;
  SimClusterParams other = params;
  other.seed = 6;
  SimCluster a(params);
  SimCluster b(other);
  feed(a, workload);
  feed(b, workload);
  a.run_to_completion();
  b.run_to_completion();
  bool any_difference = false;
  for (std::size_t i = 0; i < a.completions().size(); ++i) {
    any_difference |= a.completions()[i].finish != b.completions()[i].finish;
  }
  EXPECT_TRUE(any_difference);
}

TEST(SimClusterTest, ForcedRouteWhenNoHostIsHealthy) {
  SimCluster sim(
      base_params(2, DispatchMode::kPush, PolicyKind::kRoundRobin, 1));
  sim.crash_host(0, 0);
  sim.set_healthy(1, false);
  // The forced route recovers host 0 (healthy, not crashed), as
  // Host::force_recover does; otherwise the second submission, queued
  // behind the first on host 0's single slot (base_params), never runs.
  sim.submit(0, 0, 10);
  sim.submit(0, 1, 10);
  EXPECT_EQ(sim.forced_routes(), 1u);
  EXPECT_FALSE(sim.host_crashed(0));
  ASSERT_EQ(sim.decisions().size(), 3u);  // crash event + two routes
  EXPECT_TRUE(sim.decisions()[1].forced);
  EXPECT_EQ(sim.decisions()[1].host, 0u);
  EXPECT_FALSE(sim.decisions()[2].forced);
  EXPECT_EQ(sim.decisions()[2].host, 0u);
  sim.run_to_completion();
  EXPECT_EQ(sim.completions().size(), 2u);
}

TEST(SimClusterTest, StolenBacklogRedispatchesExactlyOnce) {
  SimCluster sim(
      base_params(2, DispatchMode::kPush, PolicyKind::kLeastLoaded, 3));
  sim.occupy(0, 1, 1'000'000);
  sim.occupy(1, 1, 1'000'000);
  // Both hosts busy: these queue. LeastLoaded alternates the backlog.
  sim.submit(10, 0, 50);
  sim.submit(10, 1, 50);
  sim.submit(10, 2, 50);
  sim.set_healthy(0, false);
  const std::vector<std::uint64_t> stolen = sim.steal_backlog(0);
  EXPECT_FALSE(stolen.empty());
  for (const std::uint64_t seq : stolen) {
    sim.redispatch(seq, 20);
  }
  sim.run_to_completion();
  // 2 occupy + 3 submissions, each completed exactly once.
  EXPECT_EQ(sim.completions().size(), 5u);
  EXPECT_TRUE(unique_seqs(sim.completions()));
  // Re-dispatch went through the policy again, to the healthy host.
  for (const std::uint64_t seq : stolen) {
    for (const SimCompletion& done : sim.completions()) {
      if (done.seq == seq) {
        EXPECT_EQ(done.host, 1u);
      }
    }
  }
  EXPECT_THROW(sim.redispatch(stolen.front(), 30), std::logic_error);
}

TEST(SimClusterTest, TimeCannotGoBackwards) {
  SimCluster sim(
      base_params(1, DispatchMode::kPush, PolicyKind::kRoundRobin, 1));
  sim.submit(100, 0, 10);
  EXPECT_THROW(sim.submit(50, 0, 10), std::logic_error);
}

TEST(SimClusterTest, SplitIndicesPartitionsTheSchedule) {
  const auto workload = make_workload(17);
  SimClusterParams params =
      base_params(4, DispatchMode::kPush, PolicyKind::kRoundRobin, 17);
  const auto split = split_indices(workload.times, workload.functions, params,
                                   50 * util::kMicrosecond);
  ASSERT_EQ(split.size(), 4u);
  std::set<std::uint64_t> seen;
  for (const auto& slice : split) {
    for (const std::uint64_t index : slice) {
      EXPECT_TRUE(seen.insert(index).second) << "index assigned twice";
    }
  }
  EXPECT_EQ(seen.size(), workload.size());
}

// The E18 shape, deterministically: under a 90/10 short/long mix, push +
// round-robin convoys short requests behind long ones on the host they
// were early-bound to, while pull binds each request to a host that is
// idle NOW. Pull's tail queueing must be strictly better.
TEST(SimClusterTest, PullBeatsPushTailUnderSkew) {
  test_harness::WorkloadParams shape;
  shape.count = 600;
  shape.long_fraction = 0.1;
  const auto workload = make_workload(23, shape);

  SimClusterParams push =
      base_params(4, DispatchMode::kPush, PolicyKind::kRoundRobin, 23);
  SimClusterParams pull = push;
  pull.dispatch = DispatchMode::kPull;

  SimCluster push_sim(push);
  SimCluster pull_sim(pull);
  feed(push_sim, workload);
  feed(pull_sim, workload);
  push_sim.run_to_completion();
  pull_sim.run_to_completion();

  const util::Nanos push_p99 = push_sim.queueing_histogram().p99();
  const util::Nanos pull_p99 = pull_sim.queueing_histogram().p99();
  EXPECT_LT(pull_p99, push_p99)
      << "pull p99 queueing " << pull_p99 << " should beat push " << push_p99;
}

}  // namespace
}  // namespace horse::cluster
