// Tests of the benchmark's own generators and measurement helpers.
#include <gtest/gtest.h>

#include <numeric>

#include "ledger.hpp"
#include "plan.hpp"

namespace e2e {
namespace {

bool same_request(const horse::workloads::Request& a,
                  const horse::workloads::Request& b) {
  return a.header == b.header && a.payload == b.payload &&
         a.threshold == b.threshold;
}

bool same_schedule(const WorkloadPlan& a, const WorkloadPlan& b) {
  if (a.schedule.size() != b.schedule.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    const Arrival& x = a.schedule[i];
    const Arrival& y = b.schedule[i];
    if (x.gap != y.gap || x.logical != y.logical || x.target != y.target ||
        x.variant != y.variant) {
      return false;
    }
  }
  return true;
}

bool same_requests(const WorkloadPlan& a, const WorkloadPlan& b) {
  if (a.requests.size() != b.requests.size()) {
    return false;
  }
  for (std::size_t t = 0; t < a.requests.size(); ++t) {
    for (std::size_t v = 0; v < a.requests[t].size(); ++v) {
      if (!same_request(a.requests[t][v], b.requests[t][v])) {
        return false;
      }
    }
  }
  return true;
}

class PlanTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanTest, SameSeedGivesIdenticalPlan) {
  const WorkloadPlan a = make_plan(GetParam(), 7);
  const WorkloadPlan b = make_plan(GetParam(), 7);
  EXPECT_TRUE(same_schedule(a, b));
  EXPECT_TRUE(same_requests(a, b));
  ASSERT_EQ(a.functions.size(), b.functions.size());
  for (std::size_t i = 0; i < a.functions.size(); ++i) {
    EXPECT_EQ(a.functions[i].name, b.functions[i].name);
    EXPECT_EQ(a.functions[i].kind, b.functions[i].kind);
    EXPECT_EQ(a.functions[i].vcpus, b.functions[i].vcpus);
    EXPECT_EQ(a.functions[i].memory_mb, b.functions[i].memory_mb);
    EXPECT_EQ(a.functions[i].impl_seed, b.functions[i].impl_seed);
    EXPECT_EQ(a.functions[i].provision, b.functions[i].provision);
  }
  EXPECT_EQ(a.fingerprints, b.fingerprints);
}

TEST_P(PlanTest, DifferentSeedGivesDifferentPlan) {
  const WorkloadPlan a = make_plan(GetParam(), 7);
  const WorkloadPlan b = make_plan(GetParam(), 8);
  EXPECT_FALSE(same_schedule(a, b));
  EXPECT_FALSE(same_requests(a, b));
  bool implementations_differ = false;
  for (std::size_t i = 0; i < a.functions.size(); ++i) {
    implementations_differ |=
        a.functions[i].impl_seed != b.functions[i].impl_seed;
  }
  EXPECT_TRUE(implementations_differ);
}

TEST_P(PlanTest, ReferencesComeFromAFreshImplementation) {
  const WorkloadPlan plan = make_plan(GetParam(), 3);
  if (plan.has_chains()) {
    GTEST_SKIP() << "chain references are covered by ChainsGateSomeRequests";
  }
  for (std::size_t t = 0; t < plan.functions.size(); ++t) {
    const auto impl = make_impl(plan.functions[t]);
    for (std::size_t v = 0; v < plan.requests[t].size(); ++v) {
      EXPECT_TRUE(same_response(impl->invoke(plan.requests[t][v]),
                                plan.expected[t][v].response));
      EXPECT_EQ(fingerprint(plan.requests[t][v]), plan.fingerprints[t][v]);
    }
  }
}

TEST_P(PlanTest, MeanGapMatchesNominalRate) {
  const WorkloadPlan plan = make_plan(GetParam(), 11);
  double total = 0;
  for (const Arrival& arrival : plan.schedule) {
    total += static_cast<double>(arrival.gap);
  }
  const double mean_gap = total / static_cast<double>(plan.schedule.size());
  EXPECT_NEAR(mean_gap, 1e9 / plan.rate_per_s, 0.05 * 1e9 / plan.rate_per_s);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PlanTest,
                         ::testing::ValuesIn(workload_names()));

TEST(PlanTest, UnknownWorkloadThrows) {
  EXPECT_THROW((void)make_plan("nope", 1), std::invalid_argument);
}

TEST(PlanTest, RulesAreHitAndMissed) {
  const WorkloadPlan plan = make_plan("ull_steady", 5);
  std::size_t allowed[2] = {0, 0};
  std::size_t total[2] = {0, 0};
  for (std::size_t t = 0; t < plan.functions.size(); ++t) {
    const Kind kind = plan.functions[t].kind;
    if (kind != Kind::kNat && kind != Kind::kFirewall) {
      continue;
    }
    const int k = kind == Kind::kNat ? 0 : 1;
    for (const Expected& expected : plan.expected[t]) {
      allowed[k] += expected.response.allowed ? 1 : 0;
      ++total[k];
    }
  }
  for (int k = 0; k < 2; ++k) {
    ASSERT_GT(total[k], 0U);
    EXPECT_GT(allowed[k], total[k] / 2);
    EXPECT_LT(allowed[k], total[k]);
  }
}

TEST(PlanTest, ChainsGateSomeRequests) {
  const WorkloadPlan plan = make_plan("chain_fused", 5);
  std::size_t early = 0;
  std::size_t full = 0;
  for (std::size_t c = 0; c < plan.chains.size(); ++c) {
    for (const Expected& expected : plan.expected[c]) {
      if (!plan.chains[c].gated) {
        EXPECT_EQ(expected.stages, 3U);
      }
      (expected.stages == 1 ? early : full) += 1;
    }
  }
  EXPECT_GT(early, 0U);
  EXPECT_GT(full, early);
}

TEST(PlanTest, AzureLogicalTimeIsOrderedWithinALap) {
  const WorkloadPlan plan = make_plan("azure_mix", 2);
  ASSERT_GT(plan.tick, 0);
  for (std::size_t i = 1; i < plan.schedule.size(); ++i) {
    EXPECT_LE(plan.schedule[i - 1].logical, plan.schedule[i].logical);
  }
  EXPECT_LT(plan.schedule.back().logical, plan.logical_span);
}

TEST(PercentileTest, NearestRankWithSampleCounts) {
  std::vector<double> values(100);
  std::iota(values.rbegin(), values.rend(), 1.0);  // 100, 99, ..., 1
  Percentile median = percentile(values, 0.5);
  EXPECT_EQ(median.value, 50.0);
  EXPECT_EQ(median.samples, 100U);
  EXPECT_EQ(median.beyond, 50U);
  Percentile p99 = percentile(values, 0.99);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.beyond, 1U);
  EXPECT_EQ(percentile(values, 0.0).value, 1.0);
  EXPECT_EQ(percentile(values, 1.0).value, 100.0);
  EXPECT_EQ(percentile(values, 1.0).beyond, 0U);
}

TEST(PercentileTest, EmptyHasNoSamples) {
  const Percentile none = percentile({}, 0.9);
  EXPECT_EQ(none.samples, 0U);
  EXPECT_EQ(none.value, 0.0);
}

TEST(PercentileTest, WindowedPercentileIgnoresAFewSpoiledWindows) {
  // Five windows of four samples; one window hit a 1000x stall.
  std::vector<double> ordered;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 4; ++i) {
      ordered.push_back(w == 2 ? 1000.0 * i : static_cast<double>(i + w));
    }
  }
  ordered.push_back(1e9);  // partial trailing window: ignored
  // Per-window p50s: 2, 3, 2000, 5, 6 -> median 5, lower quartile 3.
  EXPECT_EQ(windowed_percentile(ordered, 4, 0.5, 0.5), 5.0);
  EXPECT_EQ(windowed_percentile(ordered, 4, 0.5, 0.25), 3.0);
  // Per-window maxima: 4, 5, 4000, 7, 8 -> median 7.
  EXPECT_EQ(windowed_percentile(ordered, 4, 1.0, 0.5), 7.0);
  // Fewer values than one window: plain percentile.
  EXPECT_EQ(windowed_percentile({3, 1, 2}, 4, 0.5, 0.25), 2.0);
}

TEST(MatchCompletionsTest, KthStampBelongsToKthSeqOfItsHost) {
  // Outcomes arrive in arbitrary order; host 0 ran seqs 1, 3, 4 and host 1
  // ran seqs 2, 5.
  const std::vector<Completion> completions = {
      {4, 0}, {2, 1}, {1, 0}, {5, 1}, {3, 0}};
  const std::vector<std::vector<Nanos>> stamps = {{100, 300, 400}, {200, 500}};
  std::string error;
  const std::vector<Nanos> done = match_completions(completions, stamps, error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(done, (std::vector<Nanos>{400, 200, 100, 500, 300}));
}

TEST(MatchCompletionsTest, CountMismatchIsAnError) {
  std::string error;
  const auto done =
      match_completions({{1, 0}, {2, 0}}, {{10}, {}}, error);
  EXPECT_TRUE(done.empty());
  EXPECT_FALSE(error.empty());
  error.clear();
  (void)match_completions({{1, 3}}, {{10}}, error);
  EXPECT_FALSE(error.empty());
}

TEST(SelfTimeTest, ChildrenAreSubtractedOnceAndClippedToTheParent) {
  const std::vector<Span> spans = {
      {0, -1, 0, 100},  // root
      {1, 0, 10, 20},
      {2, 0, 15, 30},   // overlaps the previous child
      {3, 0, 90, 120},  // sticks out of the root
      {4, 2, 16, 18},   // grandchild: only its parent loses time
  };
  const std::vector<Nanos> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 20 - 10);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 15 - 2);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 2);
}

TEST(SelfTimeTest, LayersPlusResidualSumToTheRoot) {
  const std::vector<Span> spans = {
      {0, -1, 1000, 2000}, {1, 0, 1000, 1100}, {2, 0, 1100, 1300},
      {3, 0, 1300, 1350},  {4, 0, 1400, 1700}, {5, 4, 1400, 1500},
  };
  const std::vector<Nanos> self = self_times(spans);
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), Nanos{0}), 1000);
  EXPECT_EQ(self[0], 1000 - 100 - 200 - 50 - 300);
}

}  // namespace
}  // namespace e2e
