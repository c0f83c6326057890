// Workflow chains as one routed unit across the cluster layer.
//
// The deterministic half pins SimCluster's chain semantics exactly
// (jitter 0, hand-placed crash times): an orphaned chain is re-dispatched
// from the hop cursor its dead host had reached — completed stages are
// skipped, the zombie completion is suppressed, and the chain keeps its
// ONE deadline through the re-dispatch. The threaded half drives real
// chains end-to-end through ClusterScheduler: registered on every host,
// submitted as one seq, executed with platform-side fusion.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "cluster/scheduler.hpp"
#include "cluster/sim_cluster.hpp"
#include "cluster_harness.hpp"
#include "util/time.hpp"
#include "workloads/array_filter.hpp"
#include "workloads/nat.hpp"

namespace horse::cluster {
namespace {

constexpr util::Nanos kUs = util::kMicrosecond;

/// Two hosts, exact virtual time. Host 0 runs at half speed (factor 2.0)
/// so a re-dispatched orphan on host 1 finishes BEFORE the slow victim's
/// zombie — the delivered completion is the resume, the zombie is the
/// suppressed duplicate. (With homogeneous speeds the zombie always wins
/// the ledger race: it started earlier and loses no work to the steal.)
SimClusterParams two_host_params() {
  SimClusterParams params;
  params.num_hosts = 2;
  params.policy = PolicyKind::kRoundRobin;
  params.defaults.slots = 1;
  params.defaults.jitter = 0.0;  // exact virtual time: no RNG on services
  params.hosts = {params.defaults, params.defaults};
  params.hosts[0].speed = 2.0;
  return params;
}

TEST(ChainSimTest, OrphanedChainResumesFromHopCursor) {
  SimCluster sim(two_host_params());
  // Stages 100/200/300 µs nominal; on the speed-2.0 victim the stage
  // boundaries land at 200, 600, 1200 µs after start.
  sim.submit_chain(0, /*function=*/0, {100 * kUs, 200 * kUs, 300 * kUs});
  ASSERT_EQ(sim.decisions().size(), 1u);
  const HostId victim = sim.decisions()[0].host;
  ASSERT_EQ(victim, 0u) << "round-robin must open on host 0";

  // Crash at 250 µs — inside stage 1, with stage 0 complete. The stolen
  // copy's cursor must land at hop 1: stage 0 is never re-executed, and
  // the re-dispatch carries only the remaining 500 µs of nominal work.
  sim.crash_host(victim, 250 * kUs);
  const auto orphans = sim.declare_dead(victim, 250 * kUs);
  ASSERT_EQ(orphans.size(), 1u);
  sim.redispatch(orphans[0], 250 * kUs);
  sim.run_to_completion();

  ASSERT_EQ(sim.completions().size(), 1u);
  const SimCompletion& done = sim.completions()[0];
  EXPECT_EQ(done.seq, 0u);
  EXPECT_EQ(done.host, 1u);  // forced off the dead host
  EXPECT_EQ(done.chain_hop, 1u);
  EXPECT_EQ(done.chain_stages, 3u);
  EXPECT_EQ(done.start, 250 * kUs);
  EXPECT_EQ(done.finish, 250 * kUs + 500 * kUs);  // stages 1+2 only
  // The dead host still finished its copy (zombie at 1200 µs, well after
  // the resume landed); the ledger ate it.
  EXPECT_EQ(sim.duplicates_suppressed(), 1u);
}

TEST(ChainSimTest, CursorAdvancesStageByStage) {
  // Declaring death at each window between stage boundaries yields the
  // matching cursor — the boundary walk is exact, not approximate. On the
  // speed-2.0 victim the boundaries sit at 200/600/1200 µs; every case is
  // placed so the host-1 resume (nominal speed) beats the zombie, making
  // the cursor observable on the delivered completion.
  const std::vector<util::Nanos> stages = {100 * kUs, 200 * kUs, 300 * kUs};
  struct Case {
    util::Nanos declare_at;
    std::uint32_t expected_hop;
  };
  const Case cases[] = {{100 * kUs, 0}, {200 * kUs, 1}, {599 * kUs, 1},
                        {600 * kUs, 2}, {700 * kUs, 2}};
  for (const Case& c : cases) {
    SimCluster sim(two_host_params());
    sim.submit_chain(0, 0, stages);
    const HostId victim = sim.decisions()[0].host;
    ASSERT_EQ(victim, 0u);
    sim.crash_host(victim, c.declare_at);
    const auto orphans = sim.declare_dead(victim, c.declare_at);
    ASSERT_EQ(orphans.size(), 1u) << "declare at " << c.declare_at;
    sim.redispatch(orphans[0], c.declare_at);
    sim.run_to_completion();
    ASSERT_EQ(sim.completions().size(), 1u) << "declare at " << c.declare_at;
    const SimCompletion& done = sim.completions()[0];
    EXPECT_EQ(done.host, 1u) << "declare at " << c.declare_at;
    EXPECT_EQ(done.chain_hop, c.expected_hop)
        << "declare at " << c.declare_at;
    util::Nanos remaining = 0;
    for (std::size_t i = c.expected_hop; i < stages.size(); ++i) {
      remaining += stages[i];
    }
    EXPECT_EQ(done.finish - done.start, remaining)
        << "declare at " << c.declare_at
        << ": re-dispatch did not carry exactly the remaining stages";
    EXPECT_EQ(sim.duplicates_suppressed(), 1u)
        << "declare at " << c.declare_at;
  }
}

TEST(ChainSimTest, ChainKeepsItsOneDeadlineAcrossRedispatch) {
  SimCluster sim(two_host_params());
  const util::Nanos deadline = 800 * kUs;
  sim.submit_chain(0, 0, {100 * kUs, 200 * kUs, 300 * kUs}, deadline);
  const HostId victim = sim.decisions()[0].host;
  ASSERT_EQ(victim, 0u);
  sim.crash_host(victim, 250 * kUs);
  for (const std::uint64_t seq : sim.declare_dead(victim, 250 * kUs)) {
    sim.redispatch(seq, 250 * kUs);
  }
  sim.run_to_completion();
  ASSERT_EQ(sim.completions().size(), 1u);
  const SimCompletion& done = sim.completions()[0];
  // One deadline for the whole chain, preserved verbatim through the
  // steal + re-dispatch — and met BY the resume (250 + 500 = 750 <
  // 800 µs) where the slow zombie (1200 µs) would have blown it.
  EXPECT_EQ(done.chain_hop, 1u);
  EXPECT_EQ(done.deadline, deadline);
  EXPECT_TRUE(done.met_deadline());
}

TEST(ChainSimTest, StageSplitPreservesTotalService) {
  // The harness feeds chains by splitting one nominal service across
  // stages; SimCluster draws ONE jitter factor on the total, so a chain
  // and a plain submission with equal totals keep identical finish times.
  const auto split = test_harness::stage_split(1'000'001, 3);
  ASSERT_EQ(split.size(), 3u);
  EXPECT_EQ(split[0] + split[1] + split[2], 1'000'001);

  SimClusterParams params = two_host_params();
  params.defaults.jitter = 0.15;
  params.seed = 42;
  SimCluster chain_sim(params);
  SimCluster plain_sim(params);
  chain_sim.submit_chain(0, 0, test_harness::stage_split(900 * kUs, 3));
  plain_sim.submit(0, 0, 900 * kUs);
  chain_sim.run_to_completion();
  plain_sim.run_to_completion();
  ASSERT_EQ(chain_sim.completions().size(), 1u);
  ASSERT_EQ(plain_sim.completions().size(), 1u);
  EXPECT_EQ(chain_sim.completions()[0].finish,
            plain_sim.completions()[0].finish)
      << "chain jitter must be one draw on the total, not per-stage";
}

// ---------------------------------------------------------------------
// Real-threaded half: chains through ClusterScheduler.

faas::FunctionSpec nat_spec() {
  faas::FunctionSpec spec;
  spec.name = "nat";
  spec.implementation = std::make_shared<workloads::NatFunction>(16);
  spec.sandbox.name = "nat-sb";
  spec.sandbox.num_vcpus = 1;
  spec.sandbox.memory_mb = 1;
  spec.sandbox.ull = true;
  return spec;
}

faas::FunctionSpec filter_spec() {
  faas::FunctionSpec spec;
  spec.name = "filter";
  spec.implementation = std::make_shared<workloads::ArrayFilterFunction>();
  spec.sandbox.name = "filter-sb";
  spec.sandbox.num_vcpus = 1;
  spec.sandbox.memory_mb = 1;
  spec.sandbox.ull = true;
  return spec;
}

workloads::Request chain_request() {
  workloads::Request request;
  request.header = "src=10.2.3.4 dst=10.0.0.1 port=443 proto=tcp";
  request.payload = {5, 10, 15};
  request.threshold = 7;
  return request;
}

TEST(ChainClusterTest, ChainsAndPlainSubmissionsShareOneOutcomeSpace) {
  ClusterConfig config;
  config.num_hosts = 3;
  config.workers_per_host = 2;
  config.platform.num_cpus = 4;
  ClusterScheduler cluster(config);
  const auto nat = cluster.register_function(nat_spec);
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(nat);
  ASSERT_TRUE(filter);
  faas::WorkflowSpec spec;
  spec.name = "nat-filter";
  spec.stages = {*nat, *filter};
  const auto workflow = cluster.register_workflow(spec);
  ASSERT_TRUE(workflow) << workflow.status().to_report();

  constexpr int kChains = 30;
  constexpr int kPlain = 30;
  for (int i = 0; i < kChains; ++i) {
    cluster.submit_chain(*workflow, chain_request(), faas::StartMode::kCold);
  }
  for (int i = 0; i < kPlain; ++i) {
    cluster.submit(*filter, chain_request(), faas::StartMode::kCold);
  }
  const auto outcomes = cluster.drain();
  ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kChains + kPlain));
  std::set<std::uint64_t> seqs;
  int chains_seen = 0;
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.is_ok()) << outcome.status.to_report();
    ASSERT_TRUE(seqs.insert(outcome.seq).second)
        << "seq " << outcome.seq << " produced two outcomes";
    if (outcome.workflow != faas::kNoWorkflow) {
      ++chains_seen;
      EXPECT_EQ(outcome.workflow, *workflow);
      EXPECT_EQ(outcome.chain_stages, 2u);
      EXPECT_EQ(outcome.chain_first_hop, 0u);
      // Both stages really ran: the filter's indexes ride the final
      // response (payload {5,10,15} over threshold 7 → positions 1, 2).
      EXPECT_EQ(outcome.record.response.indexes,
                (std::vector<std::int32_t>{1, 2}));
    }
  }
  EXPECT_EQ(chains_seen, kChains);
}

TEST(ChainClusterTest, PullQueueFullShedNamesTheWorkflow) {
  ClusterConfig config;
  config.num_hosts = 1;
  config.workers_per_host = 1;
  config.dispatch = DispatchMode::kPull;
  config.pull_queue_capacity = 1;
  config.platform.num_cpus = 2;
  ClusterScheduler cluster(config);
  const auto gate = std::make_shared<test_harness::GatedFunction>();
  const auto gated = cluster.register_function([&gate] {
    faas::FunctionSpec spec = filter_spec();
    spec.name = "gated";
    spec.implementation = gate;
    spec.sandbox.name = "gated-sb";
    return spec;
  });
  const auto nat = cluster.register_function(nat_spec);
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(gated && nat && filter);
  faas::WorkflowSpec spec;
  spec.name = "nat-filter";
  spec.stages = {*nat, *filter};
  const auto workflow = cluster.register_workflow(spec);
  ASSERT_TRUE(workflow) << workflow.status().to_report();

  // The only worker is held inside the gate, so the first deadline chain
  // fills the 1-deep pull queue and the second is shed kQueueFull.
  cluster.submit(*gated, workloads::Request{}, faas::StartMode::kCold);
  gate->wait_entered();
  const util::Nanos deadline = util::monotonic_now() + 10 * util::kSecond;
  cluster.submit_chain(*workflow, chain_request(), faas::StartMode::kCold,
                       deadline);
  cluster.submit_chain(*workflow, chain_request(), faas::StartMode::kCold,
                       deadline);
  gate->open();
  const auto outcomes = cluster.drain();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(cluster.counters().shed_queue_full, 1u);
  int queue_full = 0;
  for (const auto& outcome : outcomes) {
    if (outcome.reject == faas::SubmissionReject::kQueueFull) {
      ++queue_full;
      EXPECT_EQ(outcome.workflow, *workflow);
      EXPECT_EQ(outcome.chain_first_hop, 0u);
      EXPECT_EQ(outcome.function, *nat);
    }
  }
  EXPECT_EQ(queue_full, 1);
}

TEST(ChainClusterTest, UnknownWorkflowRefusedTyped) {
  ClusterConfig config;
  config.num_hosts = 2;
  config.workers_per_host = 1;
  config.platform.num_cpus = 2;
  ClusterScheduler cluster(config);
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(filter);
  cluster.submit_chain(/*workflow=*/99, chain_request(),
                       faas::StartMode::kCold);
  const auto outcomes = cluster.drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].status.is_ok());
  EXPECT_EQ(outcomes[0].status.code(), util::StatusCode::kNotFound);
}

TEST(ChainClusterTest, WorkflowRegistrationAgreesAcrossHosts) {
  ClusterConfig config;
  config.num_hosts = 3;
  config.workers_per_host = 1;
  config.platform.num_cpus = 2;
  ClusterScheduler cluster(config);
  const auto nat = cluster.register_function(nat_spec);
  const auto filter = cluster.register_function(filter_spec);
  ASSERT_TRUE(nat && filter);
  faas::WorkflowSpec first;
  first.name = "wf-first";
  first.stages = {*nat, *filter};
  faas::WorkflowSpec second;
  second.name = "wf-second";
  second.stages = {*filter, *nat, *filter};
  const auto id_first = cluster.register_workflow(first);
  const auto id_second = cluster.register_workflow(second);
  ASSERT_TRUE(id_first);
  ASSERT_TRUE(id_second);
  EXPECT_NE(*id_first, *id_second);
  // Duplicate names are refused cluster-wide, same contract as the
  // single-host registry.
  faas::WorkflowSpec duplicate = first;
  EXPECT_FALSE(cluster.register_workflow(duplicate).has_value());
}

}  // namespace
}  // namespace horse::cluster
