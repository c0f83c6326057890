// Property-based sweeps for 𝒫²𝒮ℳ: for any sorted A and B, merging must
// produce exactly std::merge's multiset in sorted order, regardless of
// list sizes or credit ranges (tie density).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/p2sm.hpp"
#include "util/rng.hpp"

namespace horse::core {
namespace {

struct P2smCase {
  std::size_t a_size;
  std::size_t b_size;
  std::uint64_t credit_range;  // small range = many ties
  std::size_t rounds = 10;     // independently drawn (A, B) pairs per case
};

std::string case_name(const ::testing::TestParamInfo<P2smCase>& info) {
  const auto& param = info.param;
  std::string name = "A" + std::to_string(param.a_size) + "_B" +
                     std::to_string(param.b_size) + "_R" +
                     std::to_string(param.credit_range);
  // merge() issues its splices sequentially on the calling thread.
  return name + "_seq";
}

class P2smPropertyTest : public ::testing::TestWithParam<P2smCase> {};

TEST_P(P2smPropertyTest, MergeEqualsReferenceMerge) {
  const auto& param = GetParam();
  util::Xoshiro256 rng(1000 + param.a_size * 7 + param.b_size * 13 +
                       param.credit_range);

  for (std::size_t round = 0; round < param.rounds; ++round) {
    std::vector<std::unique_ptr<sched::Vcpu>> storage;
    sched::VcpuList a;
    sched::RunQueue b(0);
    std::vector<sched::Credit> expected;

    for (std::size_t i = 0; i < param.b_size; ++i) {
      auto vcpu = std::make_unique<sched::Vcpu>();
      vcpu->credit = static_cast<sched::Credit>(rng.bounded(param.credit_range));
      expected.push_back(vcpu->credit);
      util::LockGuard guard(b.lock());
      b.insert_sorted(*vcpu);
      storage.push_back(std::move(vcpu));
    }
    std::vector<sched::Credit> a_credits;
    for (std::size_t i = 0; i < param.a_size; ++i) {
      a_credits.push_back(
          static_cast<sched::Credit>(rng.bounded(param.credit_range)));
    }
    std::sort(a_credits.begin(), a_credits.end());
    for (const sched::Credit credit : a_credits) {
      auto vcpu = std::make_unique<sched::Vcpu>();
      vcpu->credit = credit;
      expected.push_back(credit);
      a.push_back(*vcpu);
      storage.push_back(std::move(vcpu));
    }
    std::sort(expected.begin(), expected.end());

    P2smIndex index;
    index.rebuild(a, b);

    // Invariants of the precomputed structures.
    ASSERT_EQ(index.array_b_size(), param.b_size);
    std::size_t run_total = 0;
    P2smIndex::AnchorIndex prev_anchor =
        std::numeric_limits<P2smIndex::AnchorIndex>::min();
    for (const auto& [anchor, run] : index.runs()) {
      ASSERT_GT(anchor, prev_anchor);  // strictly increasing anchors
      ASSERT_GE(anchor, P2smIndex::kBeforeHead);
      ASSERT_LT(anchor, static_cast<P2smIndex::AnchorIndex>(param.b_size));
      ASSERT_GE(run.count, 1u);
      ASSERT_NE(run.head, nullptr);
      ASSERT_NE(run.tail, nullptr);
      run_total += run.count;
      prev_anchor = anchor;
    }
    ASSERT_EQ(run_total, param.a_size);

    ASSERT_TRUE(index.merge(a, b).is_ok());

    std::vector<sched::Credit> actual;
    for (const sched::Vcpu& vcpu : b.list()) {
      actual.push_back(vcpu.credit);
    }
    ASSERT_EQ(actual, expected) << "round " << round;
    ASSERT_EQ(b.size(), expected.size());
    ASSERT_TRUE(b.is_sorted());
    ASSERT_EQ(a.size(), 0u);
    b.list().clear();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, P2smPropertyTest,
    ::testing::Values(
        // Corner sizes.
        P2smCase{1, 0, 100},
        P2smCase{1, 1, 100},
        P2smCase{36, 0, 100},
        P2smCase{1, 128, 100},
        // Paper-shaped: up to 36 vCPUs into a populated queue.
        P2smCase{36, 64, 1'000},
        // Tie-dense (range 4 over 100 elements).
        P2smCase{50, 50, 4},
        // All-distinct (huge range).
        P2smCase{64, 64, 1'000'000'000},
        // Large lists.
        P2smCase{512, 1024, 10'000},
        P2smCase{1024, 64, 500}),
    case_name);

/// Randomized sweep: 1000+ independently seeded (A, B) shapes, each merged
/// once and compared against std::merge of the credit sequences. Sizes and
/// tie density are drawn per seed, so the sweep covers the corner cases the
/// fixed table above cannot enumerate (empty A runs before the head, long
/// tie chains straddling a run boundary, single-element B, ...).
TEST(P2smRandomizedSweepTest, ThousandSeedsMatchStdMerge) {
  constexpr std::uint64_t kSeeds = 1024;

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    util::Xoshiro256 rng(0x5EEDBA5E * seed + seed);
    const std::size_t a_size = 1 + rng.bounded(24);
    const std::size_t b_size = rng.bounded(48);
    // Mix tie-dense and sparse credit spaces across seeds.
    const std::uint64_t credit_range =
        (seed % 4 == 0) ? 1 + rng.bounded(6) : 1 + rng.bounded(5'000);

    std::vector<std::unique_ptr<sched::Vcpu>> storage;
    sched::VcpuList a;
    sched::RunQueue b(0);
    std::vector<sched::Credit> a_credits;
    std::vector<sched::Credit> b_credits;

    for (std::size_t i = 0; i < b_size; ++i) {
      auto vcpu = std::make_unique<sched::Vcpu>();
      vcpu->credit = static_cast<sched::Credit>(rng.bounded(credit_range));
      b_credits.push_back(vcpu->credit);
      util::LockGuard guard(b.lock());
      b.insert_sorted(*vcpu);
      storage.push_back(std::move(vcpu));
    }
    for (std::size_t i = 0; i < a_size; ++i) {
      a_credits.push_back(
          static_cast<sched::Credit>(rng.bounded(credit_range)));
    }
    std::sort(a_credits.begin(), a_credits.end());
    for (const sched::Credit credit : a_credits) {
      auto vcpu = std::make_unique<sched::Vcpu>();
      vcpu->credit = credit;
      a.push_back(*vcpu);
      storage.push_back(std::move(vcpu));
    }

    std::sort(b_credits.begin(), b_credits.end());
    std::vector<sched::Credit> expected;
    std::merge(a_credits.begin(), a_credits.end(), b_credits.begin(),
               b_credits.end(), std::back_inserter(expected));

    P2smIndex index;
    index.rebuild(a, b);
    ASSERT_TRUE(index.merge(a, b).is_ok()) << "seed " << seed;

    std::vector<sched::Credit> actual;
    for (const sched::Vcpu& vcpu : b.list()) {
      actual.push_back(vcpu.credit);
    }
    ASSERT_EQ(actual, expected) << "seed " << seed;
    ASSERT_TRUE(b.check_invariants(/*require_sorted=*/true).is_ok())
        << "seed " << seed;
    ASSERT_EQ(a.size(), 0u) << "seed " << seed;
    b.list().clear();
  }
}

/// Incremental-maintenance property: a sequence of random insert/remove
/// operations on A must leave the index equivalent to a fresh rebuild.
class P2smIncrementalPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(P2smIncrementalPropertyTest, IncrementalMatchesRebuild) {
  util::Xoshiro256 rng(GetParam());
  std::vector<std::unique_ptr<sched::Vcpu>> storage;
  sched::VcpuList a;
  sched::RunQueue b(0);

  for (int i = 0; i < 20; ++i) {
    auto vcpu = std::make_unique<sched::Vcpu>();
    vcpu->credit = static_cast<sched::Credit>(rng.bounded(200));
    util::LockGuard guard(b.lock());
    b.insert_sorted(*vcpu);
    storage.push_back(std::move(vcpu));
  }

  P2smIndex index;
  index.rebuild(a, b);  // empty A to start

  std::vector<sched::Vcpu*> in_a;
  for (int op = 0; op < 200; ++op) {
    const bool insert = in_a.empty() || rng.bounded(3) != 0;
    if (insert) {
      auto vcpu = std::make_unique<sched::Vcpu>();
      vcpu->credit = static_cast<sched::Credit>(rng.bounded(200));
      ASSERT_TRUE(index.insert_into_a(a, *vcpu, b).is_ok());
      in_a.push_back(vcpu.get());
      storage.push_back(std::move(vcpu));
    } else {
      const auto victim = rng.bounded(in_a.size());
      ASSERT_TRUE(index.remove_from_a(a, *in_a[victim]).is_ok());
      in_a.erase(in_a.begin() + static_cast<std::ptrdiff_t>(victim));
    }

    // A stays sorted.
    sched::Credit prev = std::numeric_limits<sched::Credit>::min();
    std::size_t count = 0;
    for (const sched::Vcpu& vcpu : a) {
      ASSERT_GE(vcpu.credit, prev);
      prev = vcpu.credit;
      ++count;
    }
    ASSERT_EQ(count, in_a.size());

    // Index equivalent to a fresh rebuild over the same A/B.
    P2smIndex reference;
    sched::VcpuList a_copy;  // rebuild() only reads A, reuse it directly
    reference.rebuild(a, b);
    ASSERT_EQ(reference.run_count(), index.run_count()) << "op " << op;
    auto expected_it = reference.runs().begin();
    for (const auto& [anchor, run] : index.runs()) {
      ASSERT_EQ(anchor, expected_it->anchor);
      ASSERT_EQ(run.count, expected_it->run.count);
      ASSERT_EQ(run.head, expected_it->run.head);
      ASSERT_EQ(run.tail, expected_it->run.tail);
      ++expected_it;
    }
  }
  b.list().clear();
  a.clear();
}

INSTANTIATE_TEST_SUITE_P(Seeds, P2smIncrementalPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 77u, 1234u));

}  // namespace
}  // namespace horse::core
