// Unit tests for the cluster decision core shared by ClusterScheduler and
// SimCluster: pure functions and one single-threaded ledger, so no
// threads, no clocks, no sleeps.
#include "cluster/decisions.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace horse::cluster {
namespace {

using MaybeEwma = std::optional<util::Nanos>;

util::Nanos estimate(const std::vector<MaybeEwma>& hosts) {
  return estimate_queue_delay(hosts,
                              [](const MaybeEwma& ewma) { return ewma; });
}

HostSnapshot healthy_host(HostId id) {
  HostSnapshot snapshot;
  snapshot.host = id;
  return snapshot;
}

/// A policy that answers a fixed index, however many candidates it sees.
class FixedIndexPolicy final : public LoadBalancePolicy {
 public:
  explicit FixedIndexPolicy(std::size_t index) : index_(index) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fixed";
  }
  [[nodiscard]] std::size_t select(const std::vector<HostSnapshot>& /*hosts*/,
                                   faas::FunctionId /*function*/) override {
    ++calls;
    return index_;
  }
  int calls = 0;

 private:
  std::size_t index_;
};

TEST(DecisionCoreTest, LedgerDeliversFirstSightingAndSuppressesSecond) {
  OrphanLedger ledger;
  EXPECT_TRUE(ledger.adopt(7, /*redispatched=*/false));
  EXPECT_TRUE(ledger.adopt(9, /*redispatched=*/false));
  EXPECT_EQ(ledger.size(), 2u);
  EXPECT_TRUE(ledger.deliver(7)) << "first sighting delivers";
  EXPECT_EQ(ledger.size(), 2u) << "key stays until its second sighting";
  EXPECT_FALSE(ledger.deliver(7)) << "second sighting is suppressed";
  EXPECT_EQ(ledger.size(), 1u);
  EXPECT_TRUE(ledger.deliver(9));
  EXPECT_FALSE(ledger.deliver(9));
  EXPECT_EQ(ledger.size(), 0u) << "every key retired";
  EXPECT_TRUE(ledger.deliver(7)) << "a retired key is no longer deduped";
}

TEST(DecisionCoreTest, LedgerIgnoresKeysItNeverAdopted) {
  OrphanLedger ledger;
  EXPECT_TRUE(ledger.deliver(3));
  EXPECT_TRUE(ledger.deliver(3));
  EXPECT_EQ(ledger.size(), 0u);
}

TEST(DecisionCoreTest, LedgerDoesNotAdoptRedispatchedCopies) {
  OrphanLedger ledger;
  EXPECT_FALSE(ledger.adopt(5, /*redispatched=*/true));
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_TRUE(ledger.deliver(5));
  EXPECT_TRUE(ledger.deliver(5));
}

TEST(DecisionCoreTest, ShedBoundaries) {
  constexpr util::Nanos kNow = 1'000;
  // No slack left: shed whatever the estimate.
  EXPECT_TRUE(sheds_on_slack(kNow, kNow, 0));
  EXPECT_TRUE(sheds_on_slack(kNow - 1, kNow, 0));
  // Slack 100: the estimate must EXCEED it to shed.
  EXPECT_FALSE(sheds_on_slack(kNow + 100, kNow, 0));
  EXPECT_FALSE(sheds_on_slack(kNow + 100, kNow, 100));
  EXPECT_TRUE(sheds_on_slack(kNow + 100, kNow, 101));
}

TEST(DecisionCoreTest, EstimateIsMinimumOverHealthyHosts) {
  EXPECT_EQ(estimate({}), 0);
  EXPECT_EQ(estimate({std::nullopt, std::nullopt}), 0)
      << "no healthy host: estimate 0";
  EXPECT_EQ(estimate({std::nullopt, 40, 25, std::nullopt, 30}), 25);
  EXPECT_EQ(estimate({900, 0}), 0) << "a healthy host at 0 vetoes the shed";
}

TEST(DecisionCoreTest, RouteWithNoHealthyHostForcesHostZero) {
  FixedIndexPolicy policy(0);
  const Route route = route_to_healthy(policy, {}, 1);
  EXPECT_TRUE(route.forced);
  EXPECT_EQ(route.host, 0u);
  EXPECT_EQ(policy.calls, 0) << "the policy never sees an empty vector";
}

TEST(DecisionCoreTest, RouteReturnsTheCandidatesClusterWideId) {
  FixedIndexPolicy policy(1);
  const Route route =
      route_to_healthy(policy, {healthy_host(2), healthy_host(5)}, 1);
  EXPECT_FALSE(route.forced);
  EXPECT_EQ(route.host, 5u);
}

TEST(DecisionCoreTest, OutOfRangePolicyIndexClampsToFirstHealthyHost) {
  FixedIndexPolicy policy(7);
  const Route route =
      route_to_healthy(policy, {healthy_host(3), healthy_host(1)}, 1);
  EXPECT_FALSE(route.forced);
  EXPECT_EQ(route.host, 3u);
}

TEST(DecisionCoreTest, EwmaStepMovesAnEighthTowardTheSample) {
  EXPECT_EQ(ewma_step(0, 800), 100);
  EXPECT_EQ(ewma_step(800, 800), 800);
  // Negative deltas pull the estimate down, truncating toward zero.
  EXPECT_EQ(ewma_step(800, 0), 700);
  EXPECT_EQ(ewma_step(100, 95), 100) << "-5/8 truncates to 0";
  EXPECT_EQ(ewma_step(100, 84), 98);
}

}  // namespace
}  // namespace horse::cluster
