#include "cluster/host.hpp"

#include <utility>

#include "cluster/decisions.hpp"
#include "util/fault_injection.hpp"

namespace horse::cluster {

namespace {

faas::PlatformConfig per_host_config(faas::PlatformConfig config, HostId id) {
  // Decorrelate the per-host RNG streams (backoff jitter, keep-alive
  // sampling) while keeping the whole cluster replayable from one seed.
  config.seed = config.seed + id * 7919;
  return config;
}

}  // namespace

Host::Host(HostId id, faas::PlatformConfig platform_config, std::size_t workers,
           faas::TaskSource* pull_source, util::Nanos max_sojourn)
    : id_(id),
      pull_mode_(pull_source != nullptr),
      platform_(per_host_config(std::move(platform_config), id)),
      dispatcher_([&] {
        faas::Dispatcher::Options options;
        options.workers = workers;
        options.source = pull_source;
        options.max_sojourn = max_sojourn;
        options.executor = [this](faas::Submission task,
                                  faas::SubmissionOutcome& outcome) {
          run_task(std::move(task), outcome);
        };
        options.router = [this](faas::FunctionId function) {
          return platform_.shard_of(function);
        };
        return options;
      }()) {}

void Host::submit(faas::Submission task) {
  // Re-dispatched submissions are exempt: a task stolen off a stalled host
  // must not stall its rescue host too, or an always-armed stall site
  // would steal/re-dispatch the same task forever without executing it.
  // Same for crashes — re-dispatched orphans must land somewhere.
  if (!task.redispatched && healthy()) {
    if (HORSE_FAULT_POINT("cluster.host_crash")) {
      crash();
    } else if (HORSE_FAULT_POINT("cluster.host_stall")) {
      stall();
    }
  }
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  // The task is accepted even when the stall just fired: it sits in the
  // parked dispatcher's queue until the health sweep steals it — exactly
  // the "requests queued on a stalled host" the fault tests exercise.
  dispatcher_.submit(std::move(task));
}

HostSnapshot Host::snapshot(faas::FunctionId function,
                            bool include_warm) const {
  HostSnapshot snapshot;
  snapshot.host = id_;
  snapshot.healthy = healthy();
  snapshot.free_slots = dispatcher_.free_slots();
  snapshot.queued = dispatcher_.pending();
  snapshot.in_flight = dispatcher_.in_flight();
  snapshot.capacity = dispatcher_.capacity();
  snapshot.dispatched = dispatched();
  if (include_warm) {
    snapshot.warm_slots = platform_.pooled(function);
  }
  return snapshot;
}

std::vector<faas::Submission> Host::quarantine() {
  healthy_.store(false, std::memory_order_release);
  std::vector<faas::Submission> backlog = dispatcher_.steal_pending();
  // Restart the workers: in-flight work finishes, and a later forced
  // route (all-hosts-down ladder rung) can still make progress. The host
  // stays out of policy rotation until force_recover().
  dispatcher_.resume();
  return backlog;
}

void Host::force_recover() {
  crashed_.store(false, std::memory_order_release);
  stalled_.store(false, std::memory_order_release);
  healthy_.store(true, std::memory_order_release);
  dispatcher_.resume();
}

void Host::crash() {
  // Order matters: probes must start failing before the warm state goes,
  // so a concurrent health sweep never sees a responsive host with an
  // empty pool mid-crash.
  crashed_.store(true, std::memory_order_release);
  crashed_at_.store(util::monotonic_now(), std::memory_order_release);
  crash_count_.fetch_add(1, std::memory_order_relaxed);
  dispatcher_.pause();
  // A dead host's warm state is gone. Workers mid-task keep running (the
  // dispatcher always finishes a dequeued task) — those become the
  // zombie completions the orphan ledger dedups.
  platform_.clear_warm_pools();
}

void Host::restart() {
  crashed_.store(false, std::memory_order_release);
  stalled_.store(false, std::memory_order_release);
  dispatcher_.resume();
  // healthy_ is NOT touched: if the scheduler declared this host dead,
  // only its half-open probe path may put it back in rotation (and
  // rehydrate it first).
}

void Host::mark_dead() {
  healthy_.store(false, std::memory_order_release);
  // No dispatcher_.resume(), unlike quarantine(): the workers are not
  // merely parked behind a stall — the host is gone until restart().
}

bool Host::probe() {
  if (crashed()) {
    return false;
  }
  // Alive (possibly stalled-and-recovered, possibly restarted after a
  // crash): clear the stall and get the workers moving again. The caller
  // flips healthy_ once rehydration is done.
  stalled_.store(false, std::memory_order_release);
  dispatcher_.resume();
  return true;
}

std::vector<faas::Submission> Host::take_inflight() {
  std::vector<faas::Submission> orphans;
  std::lock_guard lock(inflight_mutex_);
  orphans.reserve(inflight_.size());
  for (auto& [key, task] : inflight_) {
    orphans.push_back(std::move(task));
  }
  inflight_.clear();
  return orphans;
}

util::Status Host::rehydrate_warm(std::size_t top_k,
                                  std::size_t per_function) {
  util::Status first_error = util::Status::ok();
  for (const faas::FunctionId function : platform_.recently_invoked(top_k)) {
    const util::Status status = platform_.rehydrate(function, per_function);
    if (!status.is_ok() && first_error.is_ok()) {
      first_error = status;  // keep going: partial warmth beats none
    }
  }
  return first_error;
}

metrics::Histogram Host::dispatch_latency() const {
  std::lock_guard lock(latency_mutex_);
  return dispatch_latency_;
}

void Host::run_task(faas::Submission task, faas::SubmissionOutcome& outcome) {
  // Register the task in the in-flight set BEFORE any fault probe: if the
  // crash fires right here, this task is already tracked, so it becomes
  // the guaranteed orphan/zombie pair the dedup ledger exists for.
  {
    std::lock_guard lock(inflight_mutex_);
    inflight_.insert_or_assign(task.key, task);
  }
  // Pull mode has no submit path on the host, so the stall/crash is
  // probed at task pickup instead: the host finishes this task, then
  // stops pulling. Re-dispatched tasks are exempt, as on the push path.
  if (pull_mode_) {
    if (!task.redispatched && healthy()) {
      if (HORSE_FAULT_POINT("cluster.host_crash")) {
        crash();
      } else if (HORSE_FAULT_POINT("cluster.host_stall")) {
        stall();
      }
    }
    dispatched_.fetch_add(1, std::memory_order_relaxed);
  }
  outcome.host = id_;
  {
    std::lock_guard lock(latency_mutex_);
    dispatch_latency_.record(outcome.queueing);
  }
  // Queue-delay EWMA for the scheduler's admission estimate.
  // Benign race: two workers updating concurrently lose at most one
  // sample's weight — it is an estimate, not an account.
  const util::Nanos prev = queueing_ewma_.load(std::memory_order_relaxed);
  queueing_ewma_.store(ewma_step(prev, outcome.queueing),
                       std::memory_order_relaxed);
  faas::InvokeControls controls;
  controls.now = util::monotonic_now();
  controls.deadline = task.deadline;
  if (task.workflow != faas::kNoWorkflow) {
    // Chain submission: resume from the hop cursor and keep the in-flight
    // copy's cursor at the frontier as stages complete. If this host is
    // declared dead mid-chain, take_inflight() hands the scheduler the
    // advanced copy, so the re-dispatch resumes where we stopped and
    // completed stages never re-execute. The callback runs under the
    // executing shard's mutex; inflight_mutex_ is a leaf, so this nesting
    // is always safe.
    controls.hop = task.hop;
    controls.on_hop = [this, &task](std::uint32_t hop,
                                    faas::FunctionId function) {
      std::lock_guard lock(inflight_mutex_);
      const auto it = inflight_.find(task.key);
      if (it != inflight_.end()) {
        it->second.hop = hop;
        it->second.function = function;
      }
    };
    outcome.workflow = task.workflow;
    outcome.chain_first_hop = task.hop;
    auto result = platform_.invoke_chain(
        task.workflow, std::move(task.request), task.mode, controls);
    outcome.chain_stages = controls.hops_completed;
    if (result) {
      outcome.record = std::move(result->record);
    } else {
      outcome.status = result.status();
      outcome.reject = controls.reject;
    }
  } else {
    auto result = platform_.invoke(task.function, std::move(task.request),
                                   task.mode, controls);
    if (result) {
      outcome.record = std::move(*result);
    } else {
      outcome.status = result.status();
      outcome.reject = controls.reject;
    }
  }
  // Done (the outcome is about to be recorded): leave the in-flight set.
  // If the health sweep stole the set first, this erase is a no-op and
  // the completion surfaces as a zombie the ledger dedups.
  {
    std::lock_guard lock(inflight_mutex_);
    inflight_.erase(task.key);
  }
}

void Host::stall() {
  stalled_.store(true, std::memory_order_release);
  stall_count_.fetch_add(1, std::memory_order_relaxed);
  dispatcher_.pause();
}

}  // namespace horse::cluster
