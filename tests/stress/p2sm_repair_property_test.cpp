// Property test for 𝒫²𝒮ℳ delta repair: 1024 seeds of random queue
// mutations (sorted inserts, targeted removes, head pops) interleaved
// with repair(), each repair checked for EXACT equivalence against a
// reference index freshly rebuilt from the live A and B.
//
// Equivalence is two-sided:
//   * the full structural audit (arrayB/creditsB vs the live queue, run
//     partition of A, anchor monotonicity) must pass after every repair;
//   * the repaired run table must equal the reference's entry-for-entry —
//     same anchors, same head/tail hook identities, same counts — and the
//     snapshots must agree on length.
// Both repair cadences run per seed from the same mutation sequence:
// stepwise (repair after every mutation, delta = 1) and batched (repair
// every k mutations, k random within the journal window), because the
// two exercise different shift/merge interleavings in the run table.
// Every scenario ends with a real merge, checked against std::sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "core/p2sm.hpp"
#include "sched/run_queue.hpp"
#include "util/rng.hpp"

namespace horse::core {
namespace {

enum class Cadence { kStepwise, kBatched };

/// The repaired index must be indistinguishable from one rebuilt from
/// scratch over the same A and B.
void expect_equivalent_to_fresh_rebuild(P2smIndex& subject,
                                        sched::VcpuList& a,
                                        sched::RunQueue& b,
                                        std::uint64_t seed, int step) {
  ASSERT_TRUE(subject.audit(a, b).is_ok())
      << "seed " << seed << " step " << step;
  P2smIndex reference;
  reference.rebuild(a, b);
  const auto subject_runs = subject.runs();
  const auto reference_runs = reference.runs();
  ASSERT_EQ(subject_runs.size(), reference_runs.size())
      << "seed " << seed << " step " << step;
  ASSERT_EQ(subject.array_b_size(), reference.array_b_size())
      << "seed " << seed << " step " << step;
  auto sub_it = subject_runs.begin();
  auto ref_it = reference_runs.begin();
  for (; sub_it != subject_runs.end(); ++sub_it, ++ref_it) {
    ASSERT_EQ(sub_it->anchor, ref_it->anchor)
        << "seed " << seed << " step " << step;
    ASSERT_EQ(sub_it->run.head, ref_it->run.head)
        << "seed " << seed << " step " << step;
    ASSERT_EQ(sub_it->run.tail, ref_it->run.tail)
        << "seed " << seed << " step " << step;
    ASSERT_EQ(sub_it->run.count, ref_it->run.count)
        << "seed " << seed << " step " << step;
  }
}

void run_scenario(std::uint64_t seed, Cadence cadence) {
  util::Xoshiro256 rng(seed);
  std::vector<std::unique_ptr<sched::Vcpu>> storage;
  auto make_vcpu = [&storage](sched::Credit credit) -> sched::Vcpu& {
    auto vcpu = std::make_unique<sched::Vcpu>();
    vcpu->id = static_cast<sched::VcpuId>(storage.size());
    vcpu->credit = credit;
    storage.push_back(std::move(vcpu));
    return *storage.back();
  };

  sched::RunQueue b(0);
  std::vector<sched::Vcpu*> b_members;  // shadow set for targeted removes
  const std::size_t b_initial = rng.bounded(24);
  for (std::size_t i = 0; i < b_initial; ++i) {
    sched::Vcpu& vcpu = make_vcpu(static_cast<sched::Credit>(rng.bounded(500)));
    b.insert_sorted(vcpu);
    b_members.push_back(&vcpu);
  }

  sched::VcpuList a;
  const std::size_t a_size = 1 + rng.bounded(10);
  for (std::size_t i = 0; i < a_size; ++i) {
    sched::Vcpu& vcpu = make_vcpu(static_cast<sched::Credit>(rng.bounded(500)));
    auto it = a.begin();
    while (it != a.end() && it->credit <= vcpu.credit) {
      ++it;
    }
    a.insert(it, vcpu);
  }

  P2smIndex subject;
  subject.rebuild(a, b);

  // Batched cadence repairs every k-th mutation; k stays well inside the
  // journal window so repair is always entitled to succeed.
  const std::size_t batch =
      cadence == Cadence::kStepwise
          ? 1
          : 1 + rng.bounded(sched::RunQueue::kJournalCapacity / 2);
  constexpr int kSteps = 20;
  std::size_t pending = 0;
  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t op = rng.bounded(3);
    if (op == 0 || b_members.empty()) {
      sched::Vcpu& vcpu =
          make_vcpu(static_cast<sched::Credit>(rng.bounded(500)));
      b.insert_sorted(vcpu);
      b_members.push_back(&vcpu);
    } else if (op == 1) {
      const std::size_t victim = rng.bounded(b_members.size());
      b.remove(*b_members[victim]);
      b_members.erase(b_members.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    } else {
      sched::Vcpu* popped = b.pop_front();
      ASSERT_NE(popped, nullptr);
      b_members.erase(std::find(b_members.begin(), b_members.end(), popped));
    }
    if (++pending < batch) {
      continue;
    }
    pending = 0;
    ASSERT_TRUE(subject.repair(a, b).is_ok())
        << "seed " << seed << " step " << step;
    expect_equivalent_to_fresh_rebuild(subject, a, b, seed, step);
    if (::testing::Test::HasFatalFailure()) {
      return;  // ASSERTs in the helper only abort the helper itself
    }
  }
  if (pending > 0) {
    ASSERT_TRUE(subject.repair(a, b).is_ok()) << "seed " << seed;
    expect_equivalent_to_fresh_rebuild(subject, a, b, seed, kSteps);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(subject.stats().repairs, 0u) << "seed " << seed;
  EXPECT_EQ(subject.stats().repair_fallbacks, 0u) << "seed " << seed;
  EXPECT_EQ(subject.stats().rebuilds, 1u) << "seed " << seed;

  // The repaired index must still drive a correct O(1) splice.
  std::vector<sched::Credit> expected;
  for (const sched::Vcpu& vcpu : a) {
    expected.push_back(vcpu.credit);
  }
  for (const sched::Vcpu& vcpu : b.list()) {
    expected.push_back(vcpu.credit);
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_TRUE(subject.merge(a, b).is_ok()) << "seed " << seed;
  std::vector<sched::Credit> actual;
  for (const sched::Vcpu& vcpu : b.list()) {
    actual.push_back(vcpu.credit);
  }
  ASSERT_EQ(actual, expected) << "seed " << seed;
  ASSERT_TRUE(b.is_sorted()) << "seed " << seed;
  b.list().clear();  // unlink before vcpu storage is freed
}

TEST(P2smRepairPropertyTest, StepwiseRepairMatchesFreshRebuild1024Seeds) {
  for (std::uint64_t seed = 1; seed <= 1024; ++seed) {
    run_scenario(seed, Cadence::kStepwise);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(P2smRepairPropertyTest, BatchedRepairMatchesFreshRebuild1024Seeds) {
  for (std::uint64_t seed = 1; seed <= 1024; ++seed) {
    run_scenario(seed, Cadence::kBatched);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace horse::core
