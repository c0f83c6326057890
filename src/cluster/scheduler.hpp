// Multi-host cluster scheduler over N simulated Hosts.
//
// The control plane's top layer: N Hosts (each a full single-host
// Platform + worker pool) behind one submission front door, with two
// dispatch disciplines:
//
//   * PUSH — submit() consults the pluggable LoadBalancePolicy over
//     healthy-host snapshots and commits the request to the chosen
//     host's local queue immediately (faabric-style early binding).
//   * PULL — submit() appends to one shared bounded queue; idle hosts
//     pull the next request the moment a worker frees up (Hiku-style
//     late binding). No request is ever committed to a host without a
//     free slot, which is what flattens tail latency under skew: a
//     burst on a hot function can never convoy behind one host's
//     backlog while other hosts sit idle.
//
// Cluster-level state is tiny and reconstructable (Dirigent): the
// scheduler owns only the policy object, the monotonic submit counter,
// the per-host policy-decision counters, and fault counters. Everything
// in stats() — occupancy, completions, health — is recomputed from the
// hosts' own atomics at call time; quarantining a host writes one flag
// on the host, not a parallel registry here.
//
// The decisions themselves (admission estimate and shed rule, queueing
// EWMA, healthy-host routing, orphan ledger) live in cluster/decisions.hpp,
// shared with SimCluster; this class adds the locks, atomics and threads.
//
// Health & degradation ladder (extends DESIGN.md §5.2 to the cluster):
// a host whose cluster.host_stall fault fires parks its workers. The
// health sweep (every `health_check_interval` submissions, on the
// background sweeper's timer tick, at drain start, and while drain
// waits) quarantines it: out of policy rotation, queued backlog stolen
// and re-dispatched EXACTLY ONCE to healthy hosts (re-dispatched
// submissions are exempt from the dispatch fault sites, so a request
// can be re-routed at most once per stall and once per drop). When
// quarantines leave a single healthy host the cluster degrades to
// single-host routing (sticky `degraded_single_host` flag); when none
// remain, the bottom rung force-recovers one host and routes there
// (`forced_routes`) — requests are never dropped.
//
// Crash tolerance (DESIGN.md §5.7) extends the ladder to hosts that
// DIE rather than stall:
//   * Failure detection — per-host leases (HostLease). A host renews by
//     making completion progress or answering a liveness probe; a
//     non-responsive host misses its lease deadline, and after
//     `missed_to_death` consecutive misses the sweep declares it dead.
//     A background sweeper thread ticks every `sweep_period` so an IDLE
//     cluster notices dead hosts too.
//   * Exactly-once orphan recovery — declared death steals both the
//     dead host's queued backlog AND its in-flight set. In-flight
//     orphans are re-dispatched through the OrphanLedger, keyed on the
//     submission's idempotency key; drain() suppresses each key's second
//     outcome (zombie or copy) as kDuplicateSuppressed. Property: every
//     submission completes exactly once XOR is shed with a typed outcome.
//   * Rejoin — quarantine is no longer sticky. Unhealthy hosts get
//     half-open liveness probes on a full-jitter util::Backoff
//     schedule; a probe that answers (stall cleared, or crashed host
//     restart()ed) rehydrates the host's warm pools for its top-k
//     recently-invoked functions (Platform::rehydrate — post-failover
//     traffic resumes kWarm/kHorse, not kCold) and only THEN returns
//     it to rotation. `hosts_quarantined` is a gauge (decrements on
//     rejoin); `degraded_single_host` stays sticky as a "this
//     happened" flag but no longer blocks recovery.
//
// Fault sites: cluster.host_stall, cluster.host_crash (see host.hpp)
// and cluster.dispatch_drop — a modelled lost dispatch, detected and
// retried through the policy immediately (the retry is the
// re-dispatch; `dispatch_drops` counts the losses).
//
// Lock hierarchy (extends the platform's, left before right):
//   health sweep mutex → cluster dispatch mutex → host dispatcher worker
//   mutex → [Platform: shard → resume → manager → queue → load]
// The health mutex also directly precedes the platform shard mutexes on
// the rejoin path (rehydration runs under the sweep so a half-rejoined
// host is never routed to); the host's in-flight set has its own leaf
// mutex below all of these. drain() polls host counters with no lock
// held while waiting; its merge takes the health mutex only to consult
// the dedup ledger.
//
// Thread-safety: submit() from any thread; drain() single-drainer, and
// it must not run concurrently with submit() (same contract as
// Invoker::drain). register/provision/ensure_snapshot/advance_time are
// setup/driver calls, not hot paths.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/decisions.hpp"
#include "cluster/host.hpp"
#include "cluster/load_balance.hpp"
#include "faas/platform.hpp"
#include "faas/submission.hpp"
#include "metrics/histogram.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"

namespace horse::cluster {

enum class DispatchMode : std::uint8_t { kPush, kPull };

[[nodiscard]] constexpr std::string_view to_string(DispatchMode mode) noexcept {
  return mode == DispatchMode::kPush ? "push" : "pull";
}

[[nodiscard]] util::Expected<DispatchMode> parse_dispatch_mode(
    std::string_view name);

/// Cluster-level admission control. Enabled by default, but it only acts
/// on submissions that carry a deadline — deadline-free traffic is never
/// shed, so pre-overload callers see byte-identical behaviour.
struct ClusterAdmissionConfig {
  bool enabled = true;
  /// CoDel-style sojourn cap forwarded to every host's dispatcher: tasks
  /// queued longer than this expire at dequeue. 0 disables (per-task
  /// deadlines are always honoured regardless).
  util::Nanos max_sojourn = 0;
};

/// Lease/heartbeat failure detector + rejoin knobs.
struct FailureDetectorConfig {
  /// Lease a renewing host holds. A healthy host renews by making
  /// completion progress or answering a liveness probe; once the lease
  /// expires with neither, each subsequent sweep past the deadline
  /// counts one missed heartbeat. 0 = every no-progress sweep of a
  /// non-responsive host is a miss (deterministic tests).
  util::Nanos lease_duration = 5 * util::kMillisecond;
  /// Consecutive missed heartbeats before a host is declared dead.
  std::size_t missed_to_death = 3;
  /// Background sweeper period — the time-based fallback that lets an
  /// IDLE cluster notice dead hosts (submission-driven sweeps only fire
  /// under traffic). 0 disables the sweeper thread.
  util::Nanos sweep_period = 1 * util::kMillisecond;
  /// Half-open probe schedule for unhealthy hosts: full-jitter
  /// util::Backoff over the consecutive-failed-probe streak.
  util::Nanos probe_backoff_base = 1 * util::kMillisecond;
  util::Nanos probe_backoff_cap = 50 * util::kMillisecond;
  /// Warm rejoin: rehydrate this many most-recently-invoked functions,
  /// this many pooled sandboxes each, before re-entering rotation.
  /// rehydrate_top_k = 0 disables rehydration (rejoin lands cold).
  std::size_t rehydrate_top_k = 4;
  std::size_t rehydrate_per_function = 1;
};

struct ClusterConfig {
  std::size_t num_hosts = 1;
  /// Worker slots per host; 0 = max(2, platform.num_cpus / 2).
  std::size_t workers_per_host = 0;
  DispatchMode dispatch = DispatchMode::kPush;
  PolicyKind policy = PolicyKind::kRoundRobin;
  /// Shared pull-queue bound; producers block when full (backpressure).
  std::size_t pull_queue_capacity = 4096;
  /// Submissions between health sweeps (drain always sweeps too).
  std::size_t health_check_interval = 64;
  ClusterAdmissionConfig admission;
  FailureDetectorConfig health;
  /// Per-host platform template; host i runs it with seed + i*7919.
  faas::PlatformConfig platform;
};

/// Cluster-level lifetime counters (host counters live on the hosts).
struct ClusterCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Stall faults fired across hosts (cluster.host_stall).
  std::uint64_t host_stalls = 0;
  /// GAUGE: hosts currently out of rotation (quarantined or declared
  /// dead). Increments on quarantine/declared death, decrements when a
  /// half-open probe rejoins the host or a forced route recovers it —
  /// quarantine is no longer sticky.
  std::uint64_t hosts_quarantined = 0;
  /// Backlog submissions re-routed off quarantined hosts (each exactly
  /// once per stall).
  std::uint64_t redispatched = 0;
  /// cluster.dispatch_drop faults fired (each retried exactly once).
  std::uint64_t dispatch_drops = 0;
  /// Times the cluster found ZERO healthy hosts and force-recovered one.
  std::uint64_t forced_routes = 0;
  // --- overload control ----------------------------------------------------
  /// Submissions shed at admission (estimated queue delay already past the
  /// deadline's slack, pull queue full, or a spurious-shed fault). Every
  /// shed produces a typed outcome in drain(); completed + shed covers
  /// every submission.
  std::uint64_t shed = 0;
  /// Subset of `shed`: the bounded pull queue refused (try_push).
  std::uint64_t shed_queue_full = 0;
  /// Tasks expired at dequeue by host dispatchers (deadline / sojourn).
  /// These DO count toward `completed` (the host recorded the outcome).
  std::uint64_t expired = 0;
  /// admission.spurious_shed fault fires (each one also counts in shed).
  std::uint64_t spurious_sheds = 0;
  // --- crash tolerance -----------------------------------------------------
  /// Host crash events (cluster.host_crash fires + bench crash() calls).
  std::uint64_t host_crashes = 0;
  /// Lease deadlines missed by non-responsive hosts (detector ticks).
  std::uint64_t missed_heartbeats = 0;
  /// Hosts the failure detector declared dead (cumulative).
  std::uint64_t hosts_declared_dead = 0;
  /// Half-open liveness probes sent to unhealthy hosts.
  std::uint64_t probes = 0;
  /// Hosts returned to rotation by a successful probe (cumulative).
  std::uint64_t hosts_rejoined = 0;
  /// In-flight submissions re-dispatched off declared-dead hosts. Each
  /// adds one EXTRA expected outcome (the zombie completion) to drain's
  /// accounting; the duplicate is suppressed at merge.
  std::uint64_t orphans_redispatched = 0;
  /// Late zombie completions dropped by the dedup ledger
  /// (kDuplicateSuppressed — counted, typed, never surfaced).
  std::uint64_t duplicates_suppressed = 0;
  /// Gauge: orphaned keys still in the dedup ledger, i.e. awaiting their
  /// second outcome. Back to 0 once every zombie and copy has been drained.
  std::uint64_t orphan_ledger = 0;
  /// Sandboxes restored into warm pools by rejoin rehydration (summed
  /// over host platforms).
  std::uint64_t rehydrated_sandboxes = 0;
  /// Sticky: the quarantine ladder reached single-host routing ("this
  /// happened" flag; does NOT block rejoin).
  bool degraded_single_host = false;
};

struct HostStats {
  HostId host = 0;
  bool healthy = true;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t policy_decisions = 0;
  std::uint64_t stall_faults = 0;
  /// Crash model: is the host currently dead, and how often has it died.
  bool crashed = false;
  std::uint64_t crash_faults = 0;
  std::size_t queued = 0;
  std::size_t in_flight = 0;
  std::size_t free_slots = 0;
  /// Tasks this host expired at dequeue (deadline / sojourn cap).
  std::uint64_t expired = 0;
  /// The host's queue-delay EWMA the admission check reads.
  util::Nanos queueing_ewma = 0;
  /// Pooled warm sandboxes on the host (all functions).
  std::size_t pool_sandboxes = 0;
  /// Reserved-queue paused-sandbox occupancy (from the host platform's
  /// consistent control-plane snapshot).
  std::size_t ull_paused = 0;
  metrics::Histogram dispatch_latency;
};

struct ClusterStats {
  std::vector<HostStats> hosts;
  ClusterCounters counters;
  PolicyKind policy = PolicyKind::kRoundRobin;
  DispatchMode dispatch = DispatchMode::kPush;
};

class ClusterScheduler {
 public:
  explicit ClusterScheduler(ClusterConfig config);
  ~ClusterScheduler();

  ClusterScheduler(const ClusterScheduler&) = delete;
  ClusterScheduler& operator=(const ClusterScheduler&) = delete;

  [[nodiscard]] std::size_t num_hosts() const noexcept {
    return hosts_.size();
  }
  [[nodiscard]] Host& host(std::size_t index) { return *hosts_[index]; }
  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return config_;
  }

  /// Register the same function on every host. The factory is invoked
  /// once per host (each Platform needs its own workload instance — a
  /// function's implementation state is only serialised within one
  /// host). All hosts must agree on the id.
  [[nodiscard]] util::Expected<faas::FunctionId> register_function(
      const std::function<faas::FunctionSpec()>& make_spec);

  /// Fan-out to every host.
  util::Status provision(faas::FunctionId function, std::size_t count);
  util::Status ensure_snapshot(faas::FunctionId function);
  void advance_time(util::Nanos delta);

  /// Fire-and-collect (push: policy + host queue; pull: shared queue).
  void submit(faas::FunctionId function, workloads::Request request,
              faas::StartMode mode);

  /// Deadline-carrying submit: `deadline` is an absolute monotonic
  /// timestamp (0 = none). Deadline submissions pass admission control —
  /// when the cluster's estimated queue delay already exceeds the
  /// remaining slack (or the pull queue is full) the submission is shed
  /// with a typed outcome instead of queueing toward certain expiry.
  void submit(faas::FunctionId function, workloads::Request request,
              faas::StartMode mode, util::Nanos deadline);

  /// Register the same workflow chain on every host (stage ids must
  /// already agree across hosts — register_function guarantees that).
  /// All hosts must agree on the workflow id.
  [[nodiscard]] util::Expected<faas::WorkflowId> register_workflow(
      const faas::WorkflowSpec& spec);

  /// Submit a workflow chain as ONE routed unit: one submission, one
  /// idempotency key, one deadline. The chain is dispatched under its
  /// entry stage's identity; the executing host advances the hop cursor
  /// as stages complete, so orphan recovery re-dispatches a mid-chain
  /// casualty from its frontier and never re-executes completed stages.
  void submit_chain(faas::WorkflowId workflow, workloads::Request request,
                    faas::StartMode mode, util::Nanos deadline = 0);

  /// The admission check's queue-delay estimate (estimate_queue_delay
  /// over the hosts' dispatch-latency EWMAs).
  [[nodiscard]] util::Nanos queue_delay_estimate() const;

  /// Wait for every accepted submission and take the outcomes (from all
  /// hosts; order is per-host arbitrary — sort by .seq if needed).
  /// Runs health sweeps while waiting so stalled hosts cannot wedge it.
  [[nodiscard]] std::vector<faas::SubmissionOutcome> drain();

  /// Quarantine stalled hosts and re-dispatch their backlog (also runs
  /// periodically from submit() and from drain()).
  void check_health();

  [[nodiscard]] ClusterCounters counters() const;
  /// Recomputed from host state at call time (nothing cached).
  [[nodiscard]] ClusterStats stats() const;

  /// Detection latency of the most recent declared death: declared-dead
  /// instant minus the host's crashed_at() (0 = no death declared yet).
  [[nodiscard]] util::Nanos last_detection_latency() const noexcept {
    return last_detection_latency_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-host lease state (all fields under health_mutex_).
  struct HostLease {
    /// Monotonic deadline of the current lease (0 = not yet armed).
    util::Nanos deadline = 0;
    /// Host completion count at the last renewal (progress detector).
    std::uint64_t last_completed = 0;
    /// Consecutive missed heartbeats; reset on renewal.
    std::size_t missed = 0;
    /// Consecutive failed half-open probes (backoff attempt number).
    std::size_t probe_streak = 0;
    /// Earliest instant the next half-open probe may fire.
    util::Nanos next_probe = 0;
  };

  /// Common front door for submit()/submit_chain(): assign seq + key,
  /// run the periodic health check, apply admission (spurious-shed fault
  /// site, deadline-slack shed), then dispatch.
  void admit_and_dispatch(faas::Submission task);
  void dispatch(faas::Submission task);
  /// Healthy-host selection + policy bookkeeping; handles the
  /// degradation ladder. Returns the chosen host.
  Host& select_host_locked(faas::FunctionId function);
  /// Record a typed shed outcome (never a silent drop): the submission is
  /// refused here, at the cluster front door, and its outcome surfaces
  /// from drain() like any completion.
  void record_shed(const faas::Submission& task, faas::SubmissionReject reject,
                   std::string_view detail);
  /// Failure-detector verdict (health_mutex_ held): mark the host dead,
  /// steal its backlog + in-flight set, re-dispatch orphans through the
  /// ledger, and arm the half-open probe schedule.
  void declare_dead_locked(std::size_t index, util::Nanos now);
  /// Successful half-open probe (health_mutex_ held): rehydrate warm
  /// pools, return the host to rotation, reset its lease.
  void rejoin_locked(std::size_t index, util::Nanos now);
  /// Guarded decrement of the hosts_quarantined_ gauge (never
  /// underflows — a forced route may recover a host that was never
  /// counted into the gauge).
  void gauge_decrement_quarantined();

  ClusterConfig config_;
  std::unique_ptr<LoadBalancePolicy> policy_;
  std::unique_ptr<faas::SharedTaskQueue> pull_queue_;  // pull mode only
  std::vector<std::unique_ptr<Host>> hosts_;

  mutable std::mutex health_mutex_;
  mutable std::mutex dispatch_mutex_;
  std::vector<std::uint64_t> policy_decisions_;  // per host, dispatch lock
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> hosts_quarantined_{0};
  std::atomic<std::uint64_t> redispatched_{0};
  std::atomic<std::uint64_t> dispatch_drops_{0};
  std::atomic<std::uint64_t> forced_routes_{0};
  std::atomic<bool> degraded_single_host_{false};

  // Shed bookkeeping: outcomes buffered here until drain() merges them
  // with host completions. shed_count_ is an atomic so drain's
  // termination check (completed + shed >= submitted) needs no lock.
  mutable std::mutex shed_mutex_;
  std::vector<faas::SubmissionOutcome> shed_outcomes_;
  std::atomic<std::uint64_t> shed_count_{0};
  std::atomic<std::uint64_t> shed_queue_full_{0};
  std::atomic<std::uint64_t> spurious_sheds_{0};

  // --- crash tolerance (DESIGN.md §5.7) ------------------------------------
  /// Per-host leases; indexed like hosts_. Guarded by health_mutex_.
  std::vector<HostLease> leases_;
  /// Keys of in-flight submissions stolen off declared-dead hosts
  /// (health_mutex_); orphan_ledger_ holds its size for counters().
  OrphanLedger orphans_;
  std::atomic<std::uint64_t> orphan_ledger_{0};
  /// Half-open probe schedule; rng state guarded by health_mutex_.
  util::Backoff probe_backoff_;
  util::Xoshiro256 probe_rng_;

  std::atomic<std::uint64_t> missed_heartbeats_{0};
  std::atomic<std::uint64_t> hosts_declared_dead_{0};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> hosts_rejoined_{0};
  std::atomic<std::uint64_t> orphans_redispatched_{0};
  std::atomic<std::uint64_t> duplicates_suppressed_{0};
  std::atomic<util::Nanos> last_detection_latency_{0};

  /// Background sweeper: the time-based health-sweep fallback. Declared
  /// LAST so it stops before any state it sweeps is torn down; the dtor
  /// additionally stops it before closing the pull queue.
  std::jthread sweeper_;
};

}  // namespace horse::cluster
