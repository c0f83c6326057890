#include "faas/keepalive_policy.hpp"

#include <gtest/gtest.h>

#include "faas/platform.hpp"
#include "workloads/array_filter.hpp"

namespace horse::faas {
namespace {

KeepAlivePolicyConfig minute_bins() {
  KeepAlivePolicyConfig config;
  config.bin_width = 60 * util::kSecond;
  config.num_bins = 240;
  config.min_samples = 4;
  return config;
}

TEST(KeepAlivePolicyTest, ValidatesConfig) {
  KeepAlivePolicyConfig config;
  config.bin_width = 0;
  EXPECT_THROW(HybridHistogramPolicy{config}, std::invalid_argument);
  config = {};
  config.num_bins = 0;
  EXPECT_THROW(HybridHistogramPolicy{config}, std::invalid_argument);
  config = {};
  config.head_percentile = 99.0;
  config.tail_percentile = 5.0;
  EXPECT_THROW(HybridHistogramPolicy{config}, std::invalid_argument);
}

TEST(KeepAlivePolicyTest, UnknownFunctionFallsBack) {
  HybridHistogramPolicy policy(minute_bins());
  const auto decision = policy.decide(42);
  EXPECT_FALSE(decision.from_histogram);
  EXPECT_EQ(decision.keep_alive, policy.config().fallback_keep_alive);
  EXPECT_EQ(decision.prewarm_window, 0);
}

TEST(KeepAlivePolicyTest, TooFewSamplesFallsBack) {
  HybridHistogramPolicy policy(minute_bins());
  policy.record_invocation(0, 0);
  policy.record_invocation(0, 60 * util::kSecond);
  EXPECT_EQ(policy.sample_count(0), 1u);  // one gap from two arrivals
  EXPECT_FALSE(policy.decide(0).from_histogram);
}

TEST(KeepAlivePolicyTest, RegularPatternTightensWindows) {
  HybridHistogramPolicy policy(minute_bins());
  // Strict 5-minute period, 20 gaps.
  for (int i = 0; i <= 20; ++i) {
    policy.record_invocation(0, static_cast<util::Nanos>(i) * 5 * 60 *
                                    util::kSecond);
  }
  const auto decision = policy.decide(0);
  EXPECT_TRUE(decision.from_histogram);
  // All mass in the 5-minute bin: pre-warm just under 5 min (head cutoff
  // 6 min bin edge x 0.9 for a 5-min gap falls in bin 5 → edge 6 min).
  EXPECT_GT(decision.prewarm_window, 4 * 60 * util::kSecond);
  // Keep-alive covers the remaining window but is far below 4 hours.
  EXPECT_LT(decision.keep_alive, 10 * 60 * util::kSecond);
  EXPECT_GT(decision.keep_alive, 0);
}

TEST(KeepAlivePolicyTest, FrequentInvocationsGiveZeroPrewarm) {
  HybridHistogramPolicy policy(minute_bins());
  // Sub-minute gaps: everything lands in bin 0.
  for (int i = 0; i < 30; ++i) {
    policy.record_invocation(0,
                             static_cast<util::Nanos>(i) * 10 * util::kSecond);
  }
  const auto decision = policy.decide(0);
  ASSERT_TRUE(decision.from_histogram);
  // head cutoff = 1 bin edge (1 min) * 0.9; keep-alive small too.
  EXPECT_LE(decision.prewarm_window, 60 * util::kSecond);
  EXPECT_LE(decision.keep_alive, 5 * 60 * util::kSecond);
}

TEST(KeepAlivePolicyTest, OobDominatedFallsBack) {
  KeepAlivePolicyConfig config = minute_bins();
  config.num_bins = 10;  // anything over 10 minutes is OOB
  HybridHistogramPolicy policy(config);
  for (int i = 0; i < 20; ++i) {
    // 1-hour gaps: all OOB.
    policy.record_invocation(0, static_cast<util::Nanos>(i) * 3600 *
                                    util::kSecond);
  }
  EXPECT_EQ(policy.oob_count(0), 19u);
  const auto decision = policy.decide(0);
  EXPECT_FALSE(decision.from_histogram);
  EXPECT_EQ(decision.keep_alive, config.fallback_keep_alive);
}

TEST(KeepAlivePolicyTest, BimodalPatternSpansBothModes) {
  HybridHistogramPolicy policy(minute_bins());
  util::Nanos now = 0;
  // Alternating 2-minute and 30-minute gaps.
  for (int i = 0; i < 20; ++i) {
    now += (i % 2 == 0 ? 2 : 30) * 60 * util::kSecond;
    policy.record_invocation(0, now);
  }
  const auto decision = policy.decide(0);
  ASSERT_TRUE(decision.from_histogram);
  // Pre-warm keyed to the short mode, keep-alive reaching the long mode.
  EXPECT_LE(decision.prewarm_window, 3 * 60 * util::kSecond);
  EXPECT_GE(decision.prewarm_window + decision.keep_alive,
            30 * 60 * util::kSecond);
}

TEST(KeepAlivePolicyTest, FunctionsTrackedIndependently) {
  HybridHistogramPolicy policy(minute_bins());
  for (int i = 0; i < 10; ++i) {
    policy.record_invocation(0, static_cast<util::Nanos>(i) * 60 * util::kSecond);
    policy.record_invocation(1, static_cast<util::Nanos>(i) * 3600 *
                                    util::kSecond);
  }
  EXPECT_EQ(policy.sample_count(0), 9u);
  EXPECT_EQ(policy.sample_count(1), 9u);
  const auto fast = policy.decide(0);
  const auto slow = policy.decide(1);
  ASSERT_TRUE(fast.from_histogram);
  ASSERT_TRUE(slow.from_histogram);
  EXPECT_LT(fast.prewarm_window + fast.keep_alive,
            slow.prewarm_window + slow.keep_alive);
}

TEST(KeepAlivePolicyTest, PlatformIntegrationAdaptsEviction) {
  PlatformConfig config;
  config.num_cpus = 4;
  config.adaptive_keep_alive = true;
  config.keep_alive_policy.min_samples = 2;
  Platform platform(config);

  FunctionSpec spec;
  spec.name = "filter";
  spec.implementation = std::make_shared<workloads::ArrayFilterFunction>();
  spec.sandbox.num_vcpus = 1;
  spec.sandbox.memory_mb = 1;
  spec.sandbox.ull = true;
  const auto id = *platform.registry().add(std::move(spec));

  workloads::Request request;
  request.payload = {1, 2, 3};
  request.threshold = 1;

  // Three invocations 30 s apart: a tight pattern the histogram learns.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(platform.invoke(id, request, StartMode::kCold).has_value());
    platform.advance_time(30 * util::kSecond);
  }
  const auto decision = platform.keep_alive_decision(id);
  ASSERT_TRUE(decision.from_histogram);
  // The pool override must follow the decision on the next advance.
  platform.advance_time(1);
  EXPECT_EQ(platform.keep_alive_for(id), decision.keep_alive);
  // With a ~1-minute learned window, a 2-hour idle evicts the sandbox.
  platform.advance_time(2 * 3600 * util::kSecond);
  EXPECT_EQ(platform.pooled(id), 0u);
}

}  // namespace
}  // namespace horse::faas
