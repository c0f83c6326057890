// Deterministic virtual-time cluster model (the tests/cluster/ harness).
//
// The real ClusterScheduler runs jthread worker pools, so its interleavings
// are not replayable. This model is: one thread, virtual nanoseconds, and a
// single seeded RNG stream drawn in submission order. Given the same
// (params, seed, submission sequence) it produces the same decision log,
// the same per-host assignment, and the same latency numbers — which is
// what lets the property tests sweep 1024 seeds and re-run any failure
// from its seed alone.
//
// The model exercises the REAL policy objects (cluster/load_balance.hpp):
// policies see HostSnapshots built from modelled hosts exactly the way the
// real scheduler builds them from Dispatcher counters, so a policy bug
// caught here is a policy bug in production.
//
// Dispatch modes mirror the real scheduler:
//   * push — early binding: the policy picks a host at submit time; the
//     task queues there even if the host is busy (head-of-line blocking is
//     faithfully modelled — this is what E18 measures).
//   * pull — late binding: a task is bound only when some host has a free
//     slot; until then it waits in a shared FIFO. The idle-host choice is
//     deterministic (most free slots, then lowest id), standing in for
//     "whichever idle worker reached the queue first".
//
// Controllability for tests: per-host speed/overhead/jitter/slots,
// set_healthy() between submissions (quarantine modelling), occupy() to
// pre-load a host with synthetic work, set_warm_slots() to steer the
// warm-aware policy. Every decision records the candidate snapshot vector
// it was made from, so invariants ("never picked a strictly-more-loaded
// host") are checked against the exact evidence the policy saw.
//
// Crash mirror (the real scheduler's §5.7 model in virtual time):
// crash_host() kills a host wholesale — out of rotation, warm slots gone,
// but tasks already started STILL finish (the dispatcher-always-finishes
// rule) and surface as zombie completions. declare_dead() steals the
// queued backlog AND the in-flight orphans (the caller re-dispatches, as
// the scheduler does) and registers the orphan seqs in a dedup ledger:
// exactly one of {zombie, re-dispatched copy} lands in completions(); the
// other bumps duplicates_suppressed(). recover_host() models restart +
// warm rejoin (rehydrated warm slots restored). All three log typed
// events (SimEventKind) into the decision log, so a seed's crash/recover
// schedule replays bit-identically with everything else.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/load_balance.hpp"
#include "cluster/scheduler.hpp"
#include "metrics/histogram.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace horse::cluster {

struct SimHostParams {
  /// Concurrent task capacity (the modelled worker-slot count).
  std::size_t slots = 4;
  /// Multiplier on every task's nominal service time (host speed).
  double speed = 1.0;
  /// Fixed per-task overhead added after scaling.
  util::Nanos overhead = 0;
  /// Relative service-time jitter (stddev of a clamped normal around 1.0);
  /// 0 disables the RNG draw entirely.
  double jitter = 0.0;
  /// Modelled warm-pool slots reported to the MostWarmSlots policy.
  std::size_t warm_slots = 0;
};

struct SimClusterParams {
  std::size_t num_hosts = 1;
  DispatchMode dispatch = DispatchMode::kPush;
  PolicyKind policy = PolicyKind::kRoundRobin;
  std::uint64_t seed = 1;
  /// Cluster-style admission control, mirrored in virtual time: acts only
  /// on deadline-carrying submissions (sheds when the per-host queueing
  /// EWMA exceeds the remaining slack; expires stale tasks at dequeue).
  bool admission = true;
  /// Pull-mode shared-queue bound; 0 = unbounded. A deadline submission
  /// arriving at a full queue is rejected kQueueFull.
  std::size_t pull_queue_capacity = 0;
  /// Host i uses hosts[i] when provided, `defaults` otherwise.
  SimHostParams defaults;
  std::vector<SimHostParams> hosts;
};

/// What a decision-log entry records: a routing decision, or one of the
/// crash-tolerance lifecycle events (which carry host + time only).
enum class SimEventKind : std::uint8_t {
  kDispatch,
  kCrash,
  kDeclareDead,
  kRejoin,
};

/// One routing decision (or lifecycle event), with the evidence it was
/// made from.
struct SimDecision {
  std::uint64_t seq = 0;
  util::Nanos time = 0;
  faas::FunctionId function = 0;
  /// Cluster-wide id of the chosen host.
  HostId host = 0;
  /// The healthy-only snapshot vector handed to the policy (empty for
  /// pull-mode bindings, which are slot-availability driven, and for
  /// forced routes).
  std::vector<HostSnapshot> candidates;
  /// No healthy host existed; the ladder forced host 0.
  bool forced = false;
  /// kDispatch for routing decisions; crash/declare-dead/rejoin events
  /// interleave in the same log so seed replay covers the full schedule.
  SimEventKind kind = SimEventKind::kDispatch;
};

struct SimCompletion {
  std::uint64_t seq = 0;
  faas::FunctionId function = 0;
  HostId host = 0;
  util::Nanos arrival = 0;
  util::Nanos start = 0;
  util::Nanos finish = 0;
  util::Nanos deadline = 0;  // absolute; 0 = none
  /// Chain accounting (submit_chain submissions; both 0 for plain tasks):
  /// the hop cursor this EXECUTION started from — nonzero means an
  /// orphan-recovery re-dispatch resumed mid-chain — and the chain's
  /// total stage count. This execution ran stages [chain_hop,
  /// chain_stages), which is what the no-stage-re-executed sweep checks.
  std::uint32_t chain_hop = 0;
  std::uint32_t chain_stages = 0;

  [[nodiscard]] util::Nanos queueing() const noexcept { return start - arrival; }
  [[nodiscard]] util::Nanos latency() const noexcept { return finish - arrival; }
  /// A completion with a deadline counts toward goodput iff it finished
  /// in time.
  [[nodiscard]] bool met_deadline() const noexcept {
    return deadline == 0 || finish <= deadline;
  }
};

/// A typed refusal in virtual time — the model's SubmissionOutcome-with-
/// reject. Every submission yields exactly one completion XOR rejection
/// (the property the 1024-seed sweep pins).
struct SimRejection {
  std::uint64_t seq = 0;
  faas::FunctionId function = 0;
  util::Nanos time = 0;
  faas::SubmissionReject reject = faas::SubmissionReject::kNone;
};

class SimCluster {
 public:
  explicit SimCluster(SimClusterParams params);

  /// Submit one invocation at virtual time `at` (non-decreasing across
  /// calls) with nominal service time `service`. Completions due before
  /// `at` are processed first, so snapshots reflect the state at `at`.
  void submit(util::Nanos at, faas::FunctionId function, util::Nanos service);

  /// Deadline-carrying submit (`deadline` absolute virtual time; 0 =
  /// none). With admission on, may shed (kQueueShed/kQueueFull) at submit
  /// or expire (kDeadlineExpired) at dequeue — each recorded in
  /// rejections() exactly once.
  void submit(util::Nanos at, faas::FunctionId function, util::Nanos service,
              util::Nanos deadline);

  /// Submit a workflow chain as ONE routed unit (the submit_chain mirror):
  /// `function` is the chain's entry-stage identity (what routing sees),
  /// `stage_services` the nominal per-stage service times. One jitter
  /// draw scales the whole chain, so chain and plain submissions each
  /// consume exactly one draw and the RNG stream stays aligned with the
  /// submission sequence. The chain carries one seq and one deadline;
  /// declare_dead() advances an in-flight chain orphan's hop cursor past
  /// the stages its dying host completed, so the re-dispatched copy runs
  /// only the remainder — no stage ever executes twice across the
  /// surviving outcome.
  void submit_chain(util::Nanos at, faas::FunctionId function,
                    const std::vector<util::Nanos>& stage_services,
                    util::Nanos deadline = 0);

  /// Advance virtual time, processing completions (and pull bindings) due
  /// by `now`. submit() calls this implicitly.
  void advance_to(util::Nanos now);

  /// Run every outstanding task to completion; returns virtual end time.
  util::Nanos run_to_completion();

  /// Mark a host (un)healthy. Push dispatch skips unhealthy hosts; pull
  /// workers on an unhealthy host stop pulling. Queued push-mode work
  /// stays put until steal_backlog().
  void set_healthy(HostId host, bool healthy);

  /// Take an unhealthy host's queued-but-unstarted push backlog, as the
  /// scheduler's quarantine sweep does. The caller re-submits.
  [[nodiscard]] std::vector<std::uint64_t> steal_backlog(HostId host);

  /// Re-dispatch a stolen task (by its original seq) at time `at`.
  void redispatch(std::uint64_t seq, util::Nanos at);

  // --- crash mirror --------------------------------------------------------

  /// Kill a host wholesale at `at`: out of rotation, warm slots gone.
  /// Tasks it already started still run to completion (zombies); its
  /// queued backlog stays put until declare_dead().
  void crash_host(HostId host, util::Nanos at);

  /// The failure detector's verdict, in virtual time: steal the dead
  /// host's queued backlog AND its in-flight orphans into the stolen set,
  /// register the orphan seqs in the dedup ledger, and return every seq
  /// for the caller to redispatch() — exactly what the scheduler does at
  /// declared death. Orphans' zombie completions are then deduped:
  /// exactly one outcome per seq survives.
  [[nodiscard]] std::vector<std::uint64_t> declare_dead(HostId host,
                                                        util::Nanos at);

  /// Restart + warm rejoin: the host re-enters rotation with
  /// `rehydrated_warm_slots` modelled warm slots (the SnapshotManager
  /// rehydration, seen through the MostWarmSlots policy's eyes).
  void recover_host(HostId host, util::Nanos at,
                    std::size_t rehydrated_warm_slots);

  [[nodiscard]] bool host_crashed(HostId host) const {
    return hosts_.at(host).crashed;
  }
  /// Zombie completions dropped by the dedup ledger (each orphaned seq
  /// completes exactly once; the other sighting lands here).
  [[nodiscard]] std::uint64_t duplicates_suppressed() const noexcept {
    return duplicates_suppressed_;
  }
  /// Orphaned seqs still awaiting their second sighting (the dedup ledger
  /// size); 0 once every zombie and copy has landed.
  [[nodiscard]] std::size_t orphan_ledger_size() const noexcept {
    return orphan_seqs_.size();
  }

  /// Pre-load `count` synthetic tasks of `service` each onto a host at the
  /// current virtual time, bypassing the policy (occupancy control).
  void occupy(HostId host, std::size_t count, util::Nanos service);

  void set_warm_slots(HostId host, std::size_t warm);

  [[nodiscard]] const std::vector<SimDecision>& decisions() const noexcept {
    return decisions_;
  }
  [[nodiscard]] const std::vector<SimCompletion>& completions() const noexcept {
    return completions_;
  }
  [[nodiscard]] const std::vector<SimRejection>& rejections() const noexcept {
    return rejections_;
  }
  [[nodiscard]] std::vector<std::uint64_t> dispatch_counts() const;
  [[nodiscard]] std::size_t forced_routes() const noexcept { return forced_; }
  [[nodiscard]] util::Nanos now() const noexcept { return now_; }

  /// Per-host end-to-end latency histograms (arrival → finish).
  [[nodiscard]] std::vector<metrics::Histogram> latency_by_host() const;
  /// Merged queueing-delay histogram (arrival → start).
  [[nodiscard]] metrics::Histogram queueing_histogram() const;

 private:
  struct Task {
    std::uint64_t seq = 0;
    faas::FunctionId function = 0;
    util::Nanos arrival = 0;
    /// Post-jitter nominal service time (host speed applied at start).
    /// For chains: the sum of the REMAINING stages from `hop`.
    util::Nanos service = 0;
    util::Nanos deadline = 0;  // absolute; 0 = none
    bool redispatched = false;
    /// Chain mirror: post-jitter nominal per-stage services (empty =
    /// plain task), the hop cursor (first stage still to run), and the
    /// virtual time the current execution started (set by start_on; what
    /// declare_dead uses to place the dying host's stage boundaries).
    std::vector<util::Nanos> stage_services;
    std::uint32_t hop = 0;
    util::Nanos started_at = 0;
  };

  struct SimHost {
    SimHostParams params;
    bool healthy = true;
    bool crashed = false;
    std::size_t in_flight = 0;
    std::deque<Task> queue;  // push-mode backlog
    /// Tasks started but not finished, keyed by seq (pre-scaling service
    /// copies) — the in-flight set declare_dead() steals orphans from.
    std::unordered_map<std::uint64_t, Task> running;
    std::uint64_t dispatched = 0;
    /// Virtual-time queueing EWMA (α = 1/8), the admission estimate —
    /// the mirror of Host::queueing_ewma().
    util::Nanos queueing_ewma = 0;
  };

  struct Finish {
    util::Nanos time = 0;
    std::uint64_t order = 0;  // ties resolve in schedule order
    HostId host = 0;
    Task task;
    bool operator>(const Finish& other) const noexcept {
      return time != other.time ? time > other.time : order > other.order;
    }
  };

  [[nodiscard]] HostSnapshot snapshot_of(HostId id) const;
  /// Shared tail of submit()/submit_chain(): admission (deadline-slack
  /// shed, bounded pull queue), then dispatch by mode.
  void admit_or_dispatch(Task task, util::Nanos at);
  void start_on(HostId id, Task task, util::Nanos at);
  void push_dispatch(Task task, util::Nanos at);
  void pull_try_bind(util::Nanos at);
  void complete_due(util::Nanos now);
  [[nodiscard]] util::Nanos jittered(util::Nanos service);
  /// Expire-at-dequeue: records a kDeadlineExpired rejection and returns
  /// true when `task`'s deadline has passed at `at`.
  bool expire_if_due(const Task& task, util::Nanos at);
  void record_rejection(const Task& task, util::Nanos at,
                        faas::SubmissionReject reject);
  /// Suppress an orphan's second outcome and drop its seq from the ledger.
  void retire_orphan(std::uint64_t seq);
  /// Min queueing EWMA over healthy hosts (the admission estimate).
  [[nodiscard]] util::Nanos queue_delay_estimate() const;

  SimClusterParams params_;
  std::unique_ptr<LoadBalancePolicy> policy_;
  util::Xoshiro256 rng_;
  std::vector<SimHost> hosts_;
  std::deque<Task> shared_queue_;  // pull-mode FIFO
  std::priority_queue<Finish, std::vector<Finish>, std::greater<>> finishes_;
  std::vector<SimDecision> decisions_;
  std::vector<SimCompletion> completions_;
  std::vector<SimRejection> rejections_;
  std::vector<Task> stolen_;  // parked between steal_backlog and redispatch
  /// Dedup ledger, mirroring the scheduler's: seqs orphaned off dead
  /// hosts, and which of those already delivered their one completion. A
  /// seq leaves both sets at its second sighting (retire_orphan).
  std::unordered_set<std::uint64_t> orphan_seqs_;
  std::unordered_set<std::uint64_t> delivered_orphans_;
  std::uint64_t duplicates_suppressed_ = 0;
  util::Nanos now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_order_ = 0;
  std::size_t forced_ = 0;
};

/// Route a whole arrival schedule through a SimCluster policy and split it
/// into one per-host schedule (macro_trace_sim's cluster mode: each slice
/// then drives an independent single-host SimServer). `service_hint` is
/// the nominal per-invocation service time used to model occupancy while
/// routing.
[[nodiscard]] std::vector<std::vector<std::uint64_t>> split_indices(
    const std::vector<util::Nanos>& times,
    const std::vector<faas::FunctionId>& functions, SimClusterParams params,
    util::Nanos service_hint);

}  // namespace horse::cluster
