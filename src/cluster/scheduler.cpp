#include "cluster/scheduler.hpp"

#include <chrono>
#include <condition_variable>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "cluster/decisions.hpp"
#include "util/fault_injection.hpp"

namespace horse::cluster {

util::Expected<DispatchMode> parse_dispatch_mode(std::string_view name) {
  if (name == "push") {
    return DispatchMode::kPush;
  }
  if (name == "pull") {
    return DispatchMode::kPull;
  }
  return util::Status{util::StatusCode::kInvalidArgument,
                      "unknown dispatch mode (expected push | pull)"};
}

ClusterScheduler::ClusterScheduler(ClusterConfig config)
    : config_(std::move(config)),
      policy_(make_policy(config_.policy)),
      probe_backoff_(util::BackoffPolicy{config_.health.probe_backoff_base,
                                         config_.health.probe_backoff_cap}),
      // Decorrelated from the per-host platform streams (they offset by
      // id * 7919); same cluster seed → same probe schedule.
      probe_rng_(config_.platform.seed + 0x9e3779b9ULL) {
  if (config_.num_hosts == 0) {
    config_.num_hosts = 1;
  }
  if (config_.workers_per_host == 0) {
    config_.workers_per_host = std::max<std::size_t>(
        2, config_.platform.num_cpus / 2);
  }
  if (config_.dispatch == DispatchMode::kPull) {
    pull_queue_ =
        std::make_unique<faas::SharedTaskQueue>(config_.pull_queue_capacity);
  }
  hosts_.reserve(config_.num_hosts);
  const util::Nanos max_sojourn =
      config_.admission.enabled ? config_.admission.max_sojourn : 0;
  for (std::size_t i = 0; i < config_.num_hosts; ++i) {
    hosts_.push_back(std::make_unique<Host>(i, config_.platform,
                                            config_.workers_per_host,
                                            pull_queue_.get(), max_sojourn));
  }
  policy_decisions_.assign(hosts_.size(), 0);
  leases_.resize(hosts_.size());
  if (config_.health.sweep_period > 0) {
    // Time-based health-sweep fallback: submission-driven sweeps only run
    // under traffic, so an idle cluster would never notice a dead host.
    sweeper_ = std::jthread([this](const std::stop_token& stoken) {
      const auto period = std::chrono::nanoseconds(config_.health.sweep_period);
      std::mutex mutex;
      std::condition_variable_any wakeup;
      std::unique_lock lock(mutex);
      while (!stoken.stop_requested()) {
        // The predicate never passes: the wait ends on the period elapsing
        // or on request_stop (which also makes the loop exit).
        wakeup.wait_for(lock, stoken, period, [] { return false; });
        if (stoken.stop_requested()) {
          break;
        }
        check_health();
      }
    });
  }
}

ClusterScheduler::~ClusterScheduler() {
  // Sweeper first: a health sweep must not run against hosts mid-teardown
  // or re-dispatch into a closing pull queue.
  if (sweeper_.joinable()) {
    sweeper_.request_stop();
    sweeper_.join();
  }
  if (pull_queue_) {
    // Unblocks every pull worker; remaining queued tasks are drained and
    // executed before the hosts (declared after the queue, destroyed
    // first) join their workers.
    pull_queue_->close();
  }
}

util::Expected<faas::FunctionId> ClusterScheduler::register_function(
    const std::function<faas::FunctionSpec()>& make_spec) {
  bool first = true;
  faas::FunctionId agreed = 0;
  for (auto& host : hosts_) {
    auto result = host->platform().registry().add(make_spec());
    if (!result) {
      return result.status();
    }
    if (first) {
      agreed = *result;
      first = false;
    } else if (*result != agreed) {
      return util::Status{
          util::StatusCode::kInternal,
          "cluster: hosts disagree on function id (registries diverged)"};
    }
  }
  return agreed;
}

util::Expected<faas::WorkflowId> ClusterScheduler::register_workflow(
    const faas::WorkflowSpec& spec) {
  bool first = true;
  faas::WorkflowId agreed = 0;
  for (auto& host : hosts_) {
    auto result = host->platform().registry().add_workflow(spec);
    if (!result) {
      return result.status();
    }
    if (first) {
      agreed = *result;
      first = false;
    } else if (*result != agreed) {
      return util::Status{
          util::StatusCode::kInternal,
          "cluster: hosts disagree on workflow id (registries diverged)"};
    }
  }
  return agreed;
}

util::Status ClusterScheduler::provision(faas::FunctionId function,
                                         std::size_t count) {
  for (auto& host : hosts_) {
    if (auto status = host->platform().provision(function, count);
        !status.is_ok()) {
      return status;
    }
  }
  return util::Status::ok();
}

util::Status ClusterScheduler::ensure_snapshot(faas::FunctionId function) {
  for (auto& host : hosts_) {
    if (auto status = host->platform().ensure_snapshot(function);
        !status.is_ok()) {
      return status;
    }
  }
  return util::Status::ok();
}

void ClusterScheduler::advance_time(util::Nanos delta) {
  for (auto& host : hosts_) {
    host->platform().advance_time(delta);
  }
}

void ClusterScheduler::submit(faas::FunctionId function,
                              workloads::Request request,
                              faas::StartMode mode) {
  submit(function, std::move(request), mode, 0);
}

void ClusterScheduler::submit(faas::FunctionId function,
                              workloads::Request request, faas::StartMode mode,
                              util::Nanos deadline) {
  faas::Submission task;
  task.function = function;
  task.mode = mode;
  task.request = std::move(request);
  task.deadline = deadline;
  admit_and_dispatch(std::move(task));
}

void ClusterScheduler::submit_chain(faas::WorkflowId workflow,
                                    workloads::Request request,
                                    faas::StartMode mode,
                                    util::Nanos deadline) {
  faas::Submission task;
  task.workflow = workflow;
  task.hop = 0;
  // Mirror the entry stage in `function` so routing policies and the
  // per-shard dispatch paths see the chain under its first stage's
  // identity. Unknown workflows keep function 0 and surface a typed
  // NotFound outcome at the executing host — same late-failure contract
  // as an unknown function id.
  const auto spec =
      hosts_.front()->platform().registry().find_workflow(workflow);
  task.function = spec ? (*spec)->stages.front() : 0;
  task.mode = mode;
  task.request = std::move(request);
  task.deadline = deadline;
  admit_and_dispatch(std::move(task));
}

void ClusterScheduler::admit_and_dispatch(faas::Submission task) {
  const std::uint64_t seq =
      submitted_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (config_.health_check_interval != 0 &&
      seq % config_.health_check_interval == 0) {
    check_health();
  }
  task.enqueued_at = util::monotonic_now();
  task.seq = seq;
  // Idempotency key, assigned exactly once at the front door and carried
  // through every re-dispatch: the orphan ledger dedups on it. A chain
  // carries ONE key (and one deadline) end-to-end — re-dispatches move
  // its hop cursor, never mint a new identity.
  task.key = seq;
  if (config_.admission.enabled) {
    // Fault site first: a spurious shed exercises the whole typed-refusal
    // path (outcome, counters, drain accounting) without real overload.
    if (HORSE_FAULT_POINT("admission.spurious_shed")) {
      spurious_sheds_.fetch_add(1, std::memory_order_relaxed);
      record_shed(task, faas::SubmissionReject::kQueueShed,
                  "admission: spurious shed (fault injection)");
      return;
    }
    if (task.deadline != 0 &&
        sheds_on_slack(task.deadline, task.enqueued_at,
                       queue_delay_estimate())) {
      record_shed(task, faas::SubmissionReject::kQueueShed,
                  "admission: estimated queue delay exceeds deadline slack");
      return;
    }
  }
  dispatch(std::move(task));
}

util::Nanos ClusterScheduler::queue_delay_estimate() const {
  return estimate_queue_delay(hosts_, [](const std::unique_ptr<Host>& host) {
    return host->healthy() ? std::optional(host->queueing_ewma())
                           : std::nullopt;
  });
}

void ClusterScheduler::record_shed(const faas::Submission& task,
                                   faas::SubmissionReject reject,
                                   std::string_view detail) {
  faas::SubmissionOutcome outcome;
  outcome.function = task.function;
  outcome.mode = task.mode;
  outcome.seq = task.seq;
  outcome.key = task.key;
  outcome.workflow = task.workflow;
  outcome.chain_first_hop = task.hop;
  outcome.status = util::Status{reject == faas::SubmissionReject::kQueueFull
                                    ? util::StatusCode::kResourceExhausted
                                    : util::StatusCode::kUnavailable,
                                std::string(detail)};
  outcome.reject = reject;
  {
    std::lock_guard lock(shed_mutex_);
    shed_outcomes_.push_back(std::move(outcome));
  }
  // After the push: once shed_count_ makes drain's termination arithmetic
  // add up, the outcome must already be mergeable.
  shed_count_.fetch_add(1, std::memory_order_acq_rel);
}

void ClusterScheduler::dispatch(faas::Submission task) {
  if (!task.redispatched && HORSE_FAULT_POINT("cluster.dispatch_drop")) {
    // Modelled lost dispatch: the request never reaches its host, the
    // frontend detects the loss and retries. The retry is marked
    // redispatched, which exempts it from this site — exactly once.
    dispatch_drops_.fetch_add(1, std::memory_order_relaxed);
    task.redispatched = true;
  }
  if (config_.dispatch == DispatchMode::kPull) {
    // Deadline traffic must not convoy behind a full queue: a full pull
    // queue means every host is busy AND the buffer is exhausted, so the
    // submission is shed (typed kQueueFull) instead of blocking. Deadline-
    // free and re-dispatched tasks keep the blocking backpressure push —
    // they have no slack to protect, and re-dispatched tasks must never
    // be lost (exactly-once re-dispatch is a structural property).
    if (config_.admission.enabled && task.deadline != 0 &&
        !task.redispatched) {
      faas::Submission meta;  // shed outcome needs only the identity fields
      meta.function = task.function;
      meta.mode = task.mode;
      meta.seq = task.seq;
      meta.key = task.key;
      meta.workflow = task.workflow;
      meta.hop = task.hop;
      if (!pull_queue_->try_push(std::move(task))) {
        shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
        record_shed(meta, faas::SubmissionReject::kQueueFull,
                    "admission: pull queue full");
      }
      return;
    }
    pull_queue_->push(std::move(task));
    return;
  }
  std::lock_guard lock(dispatch_mutex_);
  select_host_locked(task.function).submit(std::move(task));
}

Host& ClusterScheduler::select_host_locked(faas::FunctionId function) {
  const bool want_warm = config_.policy == PolicyKind::kMostWarmSlots;
  std::vector<HostSnapshot> healthy;
  healthy.reserve(hosts_.size());
  for (auto& host : hosts_) {
    if (host->healthy()) {
      healthy.push_back(host->snapshot(function, want_warm));
    }
  }
  const Route route = route_to_healthy(*policy_, healthy, function);
  if (route.forced) {
    // Bottom ladder rung: the stall model means host 0 works again once
    // its workers are unparked (a crashed host's restart is forced too).
    forced_routes_.fetch_add(1, std::memory_order_relaxed);
    hosts_.front()->force_recover();
    // The recovered host leaves the out-of-rotation set, so the gauge
    // comes down with it (identity: quarantine events == gauge + rejoins
    // + forced routes).
    gauge_decrement_quarantined();
  } else if (healthy.size() == 1 && hosts_.size() > 1) {
    // One rung above: the cluster has gracefully degraded to single-host
    // dispatch (sticky, observable; routing still works).
    degraded_single_host_.store(true, std::memory_order_release);
  }
  policy_decisions_[route.host]++;
  return *hosts_[route.host];
}

void ClusterScheduler::check_health() {
  std::lock_guard guard(health_mutex_);
  const util::Nanos now = util::monotonic_now();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    Host& host = *hosts_[i];
    HostLease& lease = leases_[i];
    if (!host.healthy()) {
      // Out of rotation: half-open probe on the backoff schedule. A host
      // that answers (stall cleared, or crashed host restart()ed) is
      // rehydrated and rejoined; one that doesn't backs off further.
      if (now >= lease.next_probe) {
        probes_.fetch_add(1, std::memory_order_relaxed);
        if (host.probe()) {
          rejoin_locked(i, now);
        } else {
          ++lease.probe_streak;
          lease.next_probe =
              now + probe_backoff_.delay(lease.probe_streak, probe_rng_);
        }
      }
      continue;
    }
    // Lease renewal: completion progress or a live (responsive) process
    // both count as a heartbeat — only a CRASHED host can ever miss, so
    // stall semantics are untouched by the detector.
    const std::uint64_t completed = host.completed();
    if (completed != lease.last_completed || host.responsive()) {
      lease.last_completed = completed;
      lease.missed = 0;
      lease.deadline = now + config_.health.lease_duration;
    } else if (now >= lease.deadline) {
      ++lease.missed;
      missed_heartbeats_.fetch_add(1, std::memory_order_relaxed);
      lease.deadline = now + config_.health.lease_duration;
      if (lease.missed >= config_.health.missed_to_death) {
        declare_dead_locked(i, now);
        continue;
      }
    }
    // Stall fast path (PR5 semantics): a stalled host is still responsive,
    // so it is quarantined immediately rather than waiting out a lease.
    if (host.stalled()) {
      hosts_quarantined_.fetch_add(1, std::memory_order_relaxed);
      std::vector<faas::Submission> backlog = host.quarantine();
      for (auto& task : backlog) {
        // Exactly once: steal_pending removed these from the stalled
        // host atomically, and the redispatched flag exempts them from
        // the drop/stall fault sites on the way back in.
        task.redispatched = true;
        redispatched_.fetch_add(1, std::memory_order_relaxed);
        dispatch(std::move(task));
      }
      lease.probe_streak = 1;
      lease.next_probe = now + probe_backoff_.delay(1, probe_rng_);
    }
  }
}

void ClusterScheduler::declare_dead_locked(std::size_t index, util::Nanos now) {
  Host& host = *hosts_[index];
  HostLease& lease = leases_[index];
  hosts_declared_dead_.fetch_add(1, std::memory_order_relaxed);
  hosts_quarantined_.fetch_add(1, std::memory_order_relaxed);
  host.mark_dead();
  const util::Nanos crashed_at = host.crashed_at();
  if (crashed_at != 0 && now > crashed_at) {
    last_detection_latency_.store(now - crashed_at,
                                  std::memory_order_relaxed);
  }
  // Queued backlog first: these never started, so plain exactly-once
  // re-dispatch (same as the stall path) covers them.
  for (auto& task : host.dispatcher().steal_pending()) {
    task.redispatched = true;
    redispatched_.fetch_add(1, std::memory_order_relaxed);
    dispatch(std::move(task));
  }
  // In-flight orphans: the dispatcher always finishes a dequeued task, so
  // each of these WILL surface a late (zombie) completion. Adopt the key
  // in the ledger and re-dispatch a copy — drain() keeps whichever outcome
  // lands first and suppresses the other. A copy from an earlier death is
  // not adopted: a third outcome would break the drain arithmetic
  // (submitted + orphans_redispatched).
  for (auto& task : host.take_inflight()) {
    if (!orphans_.adopt(task.key, task.redispatched)) {
      continue;
    }
    orphan_ledger_.store(orphans_.size(), std::memory_order_relaxed);
    orphans_redispatched_.fetch_add(1, std::memory_order_relaxed);
    task.redispatched = true;
    dispatch(std::move(task));
  }
  lease.probe_streak = 1;
  lease.next_probe = now + probe_backoff_.delay(1, probe_rng_);
}

void ClusterScheduler::rejoin_locked(std::size_t index, util::Nanos now) {
  Host& host = *hosts_[index];
  HostLease& lease = leases_[index];
  if (config_.health.rehydrate_top_k != 0) {
    // Warm rejoin BEFORE re-entering rotation (the health mutex keeps the
    // half-rejoined host invisible to routing): restore pooled sandboxes
    // for the top-k recently-invoked functions so post-failover traffic
    // resumes kWarm/kHorse instead of kCold. Best-effort — a failed
    // restore must not keep an otherwise-live host out of the cluster.
    (void)host.rehydrate_warm(config_.health.rehydrate_top_k,
                              config_.health.rehydrate_per_function);
  }
  host.force_recover();
  gauge_decrement_quarantined();
  hosts_rejoined_.fetch_add(1, std::memory_order_relaxed);
  lease.missed = 0;
  lease.probe_streak = 0;
  lease.last_completed = host.completed();
  lease.deadline = now + config_.health.lease_duration;
}

void ClusterScheduler::gauge_decrement_quarantined() {
  std::uint64_t current = hosts_quarantined_.load(std::memory_order_relaxed);
  while (current > 0 &&
         !hosts_quarantined_.compare_exchange_weak(
             current, current - 1, std::memory_order_relaxed)) {
  }
}

std::vector<faas::SubmissionOutcome> ClusterScheduler::drain() {
  while (true) {
    check_health();
    // Each in-flight orphan re-dispatched off a declared-dead host yields
    // exactly TWO host outcomes (the zombie completion plus the copy), so
    // the target grows with the ledger. Both terms are re-read every
    // iteration — the sweep above can declare further deaths mid-drain.
    const std::uint64_t target =
        submitted_.load(std::memory_order_acquire) +
        orphans_redispatched_.load(std::memory_order_acquire);
    // Shed submissions never reach a host; their typed outcomes complete
    // the accounting (completed + shed == submitted + orphans when idle).
    std::uint64_t done = shed_count_.load(std::memory_order_acquire);
    for (const auto& host : hosts_) {
      done += host->completed();
    }
    if (done >= target) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<faas::SubmissionOutcome> out;
  {
    // Ledger consultation only — no dispatching happens under this hold,
    // so the health → dispatch lock edge is not exercised here.
    std::lock_guard guard(health_mutex_);
    for (auto& host : hosts_) {
      for (auto& outcome : host->dispatcher().take_outcomes()) {
        // An orphan's later outcome (zombie or re-dispatched copy) is a
        // typed kDuplicateSuppressed — counted, never surfaced, so every
        // submission completes exactly once.
        if (orphans_.deliver(outcome.key)) {
          out.push_back(std::move(outcome));
        }
      }
    }
    orphan_ledger_.store(orphans_.size(), std::memory_order_relaxed);
    duplicates_suppressed_.store(orphans_.suppressed(),
                                 std::memory_order_relaxed);
  }
  {
    std::lock_guard lock(shed_mutex_);
    for (auto& outcome : shed_outcomes_) {
      out.push_back(std::move(outcome));
    }
    shed_outcomes_.clear();
  }
  return out;
}

ClusterCounters ClusterScheduler::counters() const {
  ClusterCounters counters;
  counters.submitted = submitted_.load(std::memory_order_acquire);
  for (const auto& host : hosts_) {
    counters.completed += host->completed();
    counters.host_stalls += host->stall_faults();
    counters.expired += host->expired();
    counters.host_crashes += host->crash_faults();
    counters.rehydrated_sandboxes +=
        host->platform().counters().rehydrated_sandboxes;
  }
  counters.shed = shed_count_.load(std::memory_order_acquire);
  counters.shed_queue_full =
      shed_queue_full_.load(std::memory_order_relaxed);
  counters.spurious_sheds = spurious_sheds_.load(std::memory_order_relaxed);
  counters.hosts_quarantined =
      hosts_quarantined_.load(std::memory_order_relaxed);
  counters.redispatched = redispatched_.load(std::memory_order_relaxed);
  counters.dispatch_drops = dispatch_drops_.load(std::memory_order_relaxed);
  counters.forced_routes = forced_routes_.load(std::memory_order_relaxed);
  counters.missed_heartbeats =
      missed_heartbeats_.load(std::memory_order_relaxed);
  counters.hosts_declared_dead =
      hosts_declared_dead_.load(std::memory_order_relaxed);
  counters.probes = probes_.load(std::memory_order_relaxed);
  counters.hosts_rejoined = hosts_rejoined_.load(std::memory_order_relaxed);
  counters.orphans_redispatched =
      orphans_redispatched_.load(std::memory_order_relaxed);
  counters.duplicates_suppressed =
      duplicates_suppressed_.load(std::memory_order_relaxed);
  counters.orphan_ledger = orphan_ledger_.load(std::memory_order_relaxed);
  counters.degraded_single_host =
      degraded_single_host_.load(std::memory_order_acquire);
  return counters;
}

ClusterStats ClusterScheduler::stats() const {
  ClusterStats stats;
  stats.policy = config_.policy;
  stats.dispatch = config_.dispatch;
  stats.counters = counters();
  stats.hosts.reserve(hosts_.size());
  std::vector<std::uint64_t> decisions;
  {
    std::lock_guard lock(dispatch_mutex_);
    decisions = policy_decisions_;
  }
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const Host& host = *hosts_[i];
    HostStats entry;
    entry.host = host.id();
    entry.healthy = host.healthy();
    entry.dispatched = host.dispatched();
    entry.completed = host.completed();
    entry.policy_decisions = decisions[i];
    entry.stall_faults = host.stall_faults();
    entry.crashed = host.crashed();
    entry.crash_faults = host.crash_faults();
    entry.expired = host.expired();
    entry.queueing_ewma = host.queueing_ewma();
    const HostSnapshot snapshot = host.snapshot(0, false);
    entry.queued = snapshot.queued;
    entry.in_flight = snapshot.in_flight;
    entry.free_slots = snapshot.free_slots;
    const faas::ControlPlaneSnapshot plane =
        host.platform().control_plane_snapshot();
    for (const std::size_t occupancy : plane.shard_pool_occupancy) {
      entry.pool_sandboxes += occupancy;
    }
    for (const auto& queue : plane.ull.occupancy) {
      entry.ull_paused += queue.paused;
    }
    entry.dispatch_latency = host.dispatch_latency();
    stats.hosts.push_back(std::move(entry));
  }
  return stats;
}

}  // namespace horse::cluster
