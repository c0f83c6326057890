// 1024-seed crash/recover property sweep: a seeded host crash, declared
// death (backlog + in-flight orphans stolen and re-dispatched through
// the dedup ledger), and warm rejoin are injected into a seeded workload
// — and every submission still produces EXACTLY one outcome, a
// completion XOR a typed rejection, never zero, never twice. Zombie
// completions (the dead host always finishes what it started) are
// suppressed by the ledger, not surfaced. Runs through the deterministic
// SimCluster, so a failing seed replays the exact decision sequence; the
// sweep also re-runs every seed and pins the decision log, completions,
// rejections and suppression count bit-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "cluster/sim_cluster.hpp"
#include "cluster_harness.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace horse::cluster {
namespace {

constexpr std::uint64_t kSeeds = 1024;
constexpr std::size_t kHosts = 3;
constexpr std::size_t kSubmissions = 60;

/// The crash schedule drawn for one seed (its own RNG stream, so the
/// workload shape and the failure schedule vary independently).
struct CrashPlan {
  HostId victim = 0;
  std::size_t crash_index = 0;    // crash just before this submission
  std::size_t declare_index = 0;  // detector verdict before this one
  std::size_t recover_index = 0;  // warm rejoin before this one
};

CrashPlan plan_for(std::uint64_t seed) {
  util::Xoshiro256 rng(seed ^ 0xc4a5'1dea'd0'5eedULL);
  CrashPlan plan;
  plan.victim = static_cast<HostId>(rng.bounded(kHosts));
  plan.crash_index = kSubmissions / 4 + rng.bounded(kSubmissions / 8);
  plan.declare_index = plan.crash_index + 1 + rng.bounded(4);
  plan.recover_index =
      (3 * kSubmissions) / 4 + rng.bounded(kSubmissions / 8);
  return plan;
}

struct RunResult {
  std::vector<SimDecision> decisions;
  std::vector<SimCompletion> completions;
  std::vector<SimRejection> rejections;
  std::uint64_t duplicates_suppressed = 0;
  std::size_t forced_routes = 0;
  std::size_t orphan_ledger = 0;
};

RunResult run_seed(std::uint64_t seed, DispatchMode dispatch) {
  test_harness::WorkloadParams shape;
  shape.count = kSubmissions;
  // A quarter of the traffic arrives as 3-stage workflow chains, so the
  // crash/steal/re-dispatch machinery is exercised against hop cursors:
  // an orphaned chain resumes from the frontier its dead host reached,
  // never re-executing completed stages.
  shape.chain_fraction = 0.25;
  const test_harness::SeededWorkload workload =
      test_harness::make_workload(seed, shape);
  const CrashPlan plan = plan_for(seed);

  SimClusterParams params;
  params.num_hosts = kHosts;
  params.dispatch = dispatch;
  params.policy = PolicyKind::kRoundRobin;
  params.seed = seed;
  params.defaults.slots = 2;
  params.defaults.jitter = 0.15;
  // Heterogeneous host speeds: when a slow host dies, the re-dispatched
  // orphan on a faster host can finish BEFORE the victim's zombie, so the
  // dedup ledger is exercised in both landing orders (and resumed chains
  // become observable on delivered completions).
  params.hosts = {params.defaults, params.defaults, params.defaults};
  params.hosts[0].speed = 1.4;
  params.hosts[2].speed = 0.8;
  SimCluster sim(params);

  for (std::size_t i = 0; i < workload.size(); ++i) {
    const util::Nanos at = workload.times[i];
    if (i == plan.crash_index) {
      sim.crash_host(plan.victim, at);
    }
    if (i == plan.declare_index) {
      for (const std::uint64_t seq : sim.declare_dead(plan.victim, at)) {
        sim.redispatch(seq, at);
      }
    }
    if (i == plan.recover_index) {
      sim.recover_host(plan.victim, at, /*rehydrated_warm_slots=*/2);
    }
    // Every 5th submission carries a loose deadline, so the admission /
    // expiry paths interleave with the crash machinery too.
    const util::Nanos deadline =
        i % 5 == 0 ? at + 10 * util::kMillisecond : 0;
    test_harness::submit_one(sim, workload, i, deadline);
  }
  sim.run_to_completion();

  RunResult result;
  result.decisions = sim.decisions();
  result.completions = sim.completions();
  result.rejections = sim.rejections();
  result.duplicates_suppressed = sim.duplicates_suppressed();
  result.forced_routes = sim.forced_routes();
  result.orphan_ledger = sim.orphan_ledger_size();
  return result;
}

/// The tentpole invariant: completions and rejections partition the
/// submitted sequence space.
void assert_exactly_once(const RunResult& result, std::uint64_t seed,
                         const char* label) {
  std::set<std::uint64_t> seen;
  for (const SimCompletion& done : result.completions) {
    ASSERT_TRUE(seen.insert(done.seq).second)
        << label << " seed " << seed << ": seq " << done.seq
        << " completed twice (zombie leaked past the ledger)";
  }
  for (const SimRejection& rejection : result.rejections) {
    ASSERT_NE(rejection.reject, faas::SubmissionReject::kNone)
        << label << " seed " << seed << ": untyped rejection";
    ASSERT_TRUE(seen.insert(rejection.seq).second)
        << label << " seed " << seed << ": seq " << rejection.seq
        << " produced two outcomes";
  }
  ASSERT_EQ(seen.size(), kSubmissions)
      << label << " seed " << seed << ": lost submissions";
  for (std::uint64_t seq = 0; seq < kSubmissions; ++seq) {
    ASSERT_TRUE(seen.contains(seq))
        << label << " seed " << seed << ": seq " << seq << " vanished";
  }
  // Chain completions must carry a cursor inside the stage list; the
  // delivered execution ran exactly the stages [chain_hop, chain_stages),
  // so a cursor at or past the end would mean a stage ran twice or a
  // chain completed with nothing left to run.
  for (const SimCompletion& done : result.completions) {
    if (done.chain_stages > 0) {
      ASSERT_LT(done.chain_hop, done.chain_stages)
          << label << " seed " << seed << ": seq " << done.seq
          << " chain cursor past the last stage";
    }
  }
}

bool same_decisions(const std::vector<SimDecision>& a,
                    const std::vector<SimDecision>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].seq != b[i].seq || a[i].time != b[i].time ||
        a[i].function != b[i].function || a[i].host != b[i].host ||
        a[i].forced != b[i].forced || a[i].kind != b[i].kind ||
        a[i].candidates.size() != b[i].candidates.size()) {
      return false;
    }
  }
  return true;
}

bool same_completions(const std::vector<SimCompletion>& a,
                      const std::vector<SimCompletion>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].seq != b[i].seq || a[i].host != b[i].host ||
        a[i].start != b[i].start || a[i].finish != b[i].finish ||
        a[i].chain_hop != b[i].chain_hop ||
        a[i].chain_stages != b[i].chain_stages) {
      return false;
    }
  }
  return true;
}

class CrashRecoveryProperty : public ::testing::TestWithParam<DispatchMode> {};

TEST_P(CrashRecoveryProperty, EverySubmissionHasExactlyOneOutcome) {
  const DispatchMode dispatch = GetParam();
  std::uint64_t runs_with_suppression = 0;
  std::uint64_t resumed_chains = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const RunResult result = run_seed(seed, dispatch);
    assert_exactly_once(result, seed, to_string(dispatch).data());
    for (const SimCompletion& done : result.completions) {
      resumed_chains += done.chain_stages > 0 && done.chain_hop > 0 ? 1 : 0;
    }
    // The decision log carries the full lifecycle: one crash, one
    // declared death, one rejoin, in that order.
    std::vector<SimEventKind> lifecycle;
    for (const SimDecision& decision : result.decisions) {
      if (decision.kind != SimEventKind::kDispatch) {
        lifecycle.push_back(decision.kind);
      }
    }
    ASSERT_EQ(lifecycle.size(), 3u) << "seed " << seed;
    EXPECT_EQ(lifecycle[0], SimEventKind::kCrash) << "seed " << seed;
    EXPECT_EQ(lifecycle[1], SimEventKind::kDeclareDead) << "seed " << seed;
    EXPECT_EQ(lifecycle[2], SimEventKind::kRejoin) << "seed " << seed;
    runs_with_suppression += result.duplicates_suppressed > 0 ? 1 : 0;
    // Both outcomes of every orphan have landed, so the ledger is empty.
    ASSERT_EQ(result.orphan_ledger, 0u) << "seed " << seed;
  }
  // The sweep must actually exercise the dedup ledger: with ~15 virtual
  // submissions between crash and declaration, a decent fraction of
  // seeds orphan at least one in-flight task whose zombie then lands.
  EXPECT_GT(runs_with_suppression, kSeeds / 16)
      << "crash schedule almost never produced a zombie — the sweep is "
         "not testing orphan recovery";
  // The sweep must actually resume chains mid-way: at least some orphaned
  // chains were re-dispatched from an advanced hop cursor (completed
  // stages skipped, not re-executed).
  EXPECT_GT(resumed_chains, 0u)
      << "no orphaned chain ever resumed from a non-zero hop cursor";
}

TEST_P(CrashRecoveryProperty, SeedReplayIsBitIdentical) {
  const DispatchMode dispatch = GetParam();
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const RunResult first = run_seed(seed, dispatch);
    const RunResult second = run_seed(seed, dispatch);
    ASSERT_TRUE(same_decisions(first.decisions, second.decisions))
        << "seed " << seed << ": decision log diverged on replay";
    ASSERT_TRUE(same_completions(first.completions, second.completions))
        << "seed " << seed << ": completions diverged on replay";
    ASSERT_EQ(first.rejections.size(), second.rejections.size())
        << "seed " << seed;
    ASSERT_EQ(first.duplicates_suppressed, second.duplicates_suppressed)
        << "seed " << seed;
    ASSERT_EQ(first.forced_routes, second.forced_routes) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(CrashSweep, CrashRecoveryProperty,
                         ::testing::Values(DispatchMode::kPush,
                                           DispatchMode::kPull),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace horse::cluster
