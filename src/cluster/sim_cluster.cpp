#include "cluster/sim_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace horse::cluster {

SimCluster::SimCluster(SimClusterParams params)
    : params_(std::move(params)),
      policy_(make_policy(params_.policy)),
      rng_(params_.seed) {
  if (params_.num_hosts == 0) {
    params_.num_hosts = 1;
  }
  hosts_.resize(params_.num_hosts);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    hosts_[i].params =
        i < params_.hosts.size() ? params_.hosts[i] : params_.defaults;
    if (hosts_[i].params.slots == 0) {
      hosts_[i].params.slots = 1;
    }
  }
}

HostSnapshot SimCluster::snapshot_of(HostId id) const {
  const SimHost& host = hosts_[id];
  HostSnapshot snap;
  snap.host = id;
  snap.healthy = host.healthy;
  snap.queued = host.queue.size();
  snap.in_flight = host.in_flight;
  snap.capacity = host.params.slots;
  snap.free_slots = host.params.slots > host.in_flight + host.queue.size()
                        ? host.params.slots - host.in_flight - host.queue.size()
                        : 0;
  snap.warm_slots = host.params.warm_slots;
  snap.dispatched = host.dispatched;
  return snap;
}

util::Nanos SimCluster::jittered(util::Nanos service) {
  // One draw per task, taken in submission order, so the RNG stream (and
  // therefore every downstream decision) is a pure function of the seed
  // and the submission sequence.
  const double jitter = params_.defaults.jitter;
  if (jitter <= 0.0) {
    return service;
  }
  const double factor = std::max(0.05, rng_.normal(1.0, jitter));
  return static_cast<util::Nanos>(static_cast<double>(service) * factor);
}

util::Nanos SimCluster::queue_delay_estimate() const {
  util::Nanos best = 0;
  bool any = false;
  for (const SimHost& host : hosts_) {
    if (!host.healthy) {
      continue;
    }
    if (!any || host.queueing_ewma < best) {
      best = host.queueing_ewma;
      any = true;
    }
  }
  return any ? best : 0;
}

void SimCluster::retire_orphan(std::uint64_t seq) {
  // Second sighting: both the zombie and the copy have landed, and a copy
  // is never orphaned again, so the seq can never be seen a third time.
  ++duplicates_suppressed_;
  orphan_seqs_.erase(seq);
  delivered_orphans_.erase(seq);
}

void SimCluster::record_rejection(const Task& task, util::Nanos at,
                                  faas::SubmissionReject reject) {
  // The ledger covers rejections too: if an orphan's re-dispatched copy
  // expires at dequeue AFTER its zombie already completed (or vice
  // versa), the second typed outcome is suppressed — exactly one outcome
  // per seq, whatever its kind.
  if (orphan_seqs_.contains(task.seq) &&
      !delivered_orphans_.insert(task.seq).second) {
    retire_orphan(task.seq);
    return;
  }
  SimRejection rejection;
  rejection.seq = task.seq;
  rejection.function = task.function;
  rejection.time = at;
  rejection.reject = reject;
  rejections_.push_back(rejection);
}

bool SimCluster::expire_if_due(const Task& task, util::Nanos at) {
  if (!params_.admission || task.deadline == 0 || at < task.deadline) {
    return false;
  }
  record_rejection(task, at, faas::SubmissionReject::kDeadlineExpired);
  return true;
}

void SimCluster::start_on(HostId id, Task task, util::Nanos at) {
  SimHost& host = hosts_[id];
  task.started_at = at;
  // In-flight registration BEFORE the service field is rewritten below:
  // the stolen copy keeps the nominal (pre-scaling) service time so a
  // re-dispatched orphan re-scales on its rescue host, as in reality.
  host.running.emplace(task.seq, task);
  // Same α = 1/8 update the real Host applies at task pickup.
  host.queueing_ewma += ((at - task.arrival) - host.queueing_ewma) / 8;
  ++host.in_flight;
  // Chains scale stage-by-stage so the finish time equals the last stage
  // boundary exactly — declare_dead's hop arithmetic and the finish heap
  // must place the same boundaries or a completed stage could look
  // un-run (and re-execute) after an orphan re-dispatch.
  util::Nanos scaled = 0;
  if (task.stage_services.empty()) {
    scaled = static_cast<util::Nanos>(
        static_cast<double>(task.service) * host.params.speed);
  } else {
    for (std::size_t i = task.hop; i < task.stage_services.size(); ++i) {
      scaled += static_cast<util::Nanos>(
          static_cast<double>(task.stage_services[i]) * host.params.speed);
    }
  }
  Finish finish;
  finish.time = at + host.params.overhead + scaled;
  finish.order = next_order_++;
  finish.host = id;
  finish.task = std::move(task);
  // Overwrite service with the actual run span so completion can recover
  // start = finish.time - service without carrying a separate field.
  finish.task.service = finish.time - at;
  finishes_.push(std::move(finish));
}

void SimCluster::push_dispatch(Task task, util::Nanos at) {
  std::vector<HostSnapshot> candidates;
  std::vector<HostId> healthy;
  candidates.reserve(hosts_.size());
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i].healthy) {
      candidates.push_back(snapshot_of(i));
      healthy.push_back(i);
    }
  }
  SimDecision decision;
  decision.seq = task.seq;
  decision.time = at;
  decision.function = task.function;
  HostId chosen = 0;
  if (healthy.empty()) {
    // Ladder bottom: never drop — force host 0, as the real scheduler
    // force-recovers it.
    decision.forced = true;
    ++forced_;
  } else {
    const std::size_t index = policy_->select(candidates, task.function);
    chosen = healthy[index < healthy.size() ? index : 0];
    decision.candidates = std::move(candidates);
  }
  decision.host = chosen;
  decisions_.push_back(std::move(decision));

  SimHost& host = hosts_[chosen];
  ++host.dispatched;
  if (host.in_flight < host.params.slots) {
    // Starting now IS the dequeue; a task whose deadline has already
    // passed is expired instead of run (the slot stays free).
    if (expire_if_due(task, at)) {
      return;
    }
    start_on(chosen, std::move(task), at);
  } else {
    host.queue.push_back(std::move(task));
  }
}

void SimCluster::pull_try_bind(util::Nanos at) {
  while (!shared_queue_.empty()) {
    // Late binding: the task goes to a host that has a free slot RIGHT
    // NOW. Deterministic stand-in for "first idle worker at the queue":
    // most free slots, then lowest id.
    HostId best = 0;
    std::size_t best_free = 0;
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      if (!hosts_[i].healthy) {
        continue;
      }
      const SimHost& host = hosts_[i];
      const std::size_t free =
          host.params.slots > host.in_flight ? host.params.slots - host.in_flight
                                             : 0;
      if (free > best_free) {
        best_free = free;
        best = i;
      }
    }
    if (best_free == 0) {
      return;  // every healthy host is saturated; tasks wait unbound
    }
    Task task = std::move(shared_queue_.front());
    shared_queue_.pop_front();
    // Expire-at-dequeue: a stale task is refused before binding a slot;
    // the loop keeps draining so fresh work behind it still binds now.
    if (expire_if_due(task, at)) {
      continue;
    }
    SimDecision decision;
    decision.seq = task.seq;
    decision.time = at;
    decision.function = task.function;
    decision.host = best;
    decisions_.push_back(std::move(decision));
    ++hosts_[best].dispatched;
    start_on(best, std::move(task), at);
  }
}

void SimCluster::complete_due(util::Nanos now) {
  while (!finishes_.empty() && finishes_.top().time <= now) {
    Finish finish = finishes_.top();
    finishes_.pop();
    SimHost& host = hosts_[finish.host];
    --host.in_flight;
    host.running.erase(finish.task.seq);  // no-op if declare_dead stole it
    SimCompletion done;
    done.seq = finish.task.seq;
    done.function = finish.task.function;
    done.host = finish.host;
    done.arrival = finish.task.arrival;
    done.finish = finish.time;
    done.start = finish.time - finish.task.service;
    done.deadline = finish.task.deadline;
    done.chain_hop = finish.task.hop;
    done.chain_stages =
        static_cast<std::uint32_t>(finish.task.stage_services.size());
    // Dedup ledger: an orphaned seq delivers exactly one completion —
    // zombie or re-dispatched copy, whichever finishes first; the second
    // sighting is suppressed (the scheduler's drain()-merge mirror).
    if (orphan_seqs_.contains(done.seq) &&
        !delivered_orphans_.insert(done.seq).second) {
      retire_orphan(done.seq);
    } else {
      completions_.push_back(done);
    }
    if (params_.dispatch == DispatchMode::kPush) {
      // The freed slot starts the host's own backlog head (push keeps
      // per-host FIFO order). Unhealthy hosts still finish in-flight work
      // but leave their backlog for steal_backlog(). Stale heads are
      // expired (not run), so the loop keeps dequeuing until a live task
      // takes the slot or the backlog empties.
      while (host.healthy && !host.queue.empty() &&
             host.in_flight < host.params.slots) {
        Task next = std::move(host.queue.front());
        host.queue.pop_front();
        if (expire_if_due(next, finish.time)) {
          continue;
        }
        start_on(finish.host, std::move(next), finish.time);
      }
    } else {
      pull_try_bind(finish.time);
    }
  }
}

void SimCluster::advance_to(util::Nanos now) {
  if (now < now_) {
    throw std::logic_error("SimCluster: time went backwards");
  }
  complete_due(now);
  now_ = now;
}

void SimCluster::submit(util::Nanos at, faas::FunctionId function,
                        util::Nanos service) {
  submit(at, function, service, 0);
}

void SimCluster::submit(util::Nanos at, faas::FunctionId function,
                        util::Nanos service, util::Nanos deadline) {
  advance_to(at);
  Task task;
  task.seq = next_seq_++;
  task.function = function;
  task.arrival = at;
  task.service = jittered(service);  // drawn before any shed: the RNG
                                     // stream stays a pure function of the
                                     // submission sequence
  task.deadline = deadline;
  admit_or_dispatch(std::move(task), at);
}

void SimCluster::submit_chain(util::Nanos at, faas::FunctionId function,
                              const std::vector<util::Nanos>& stage_services,
                              util::Nanos deadline) {
  if (stage_services.empty()) {
    throw std::invalid_argument("SimCluster: chain needs at least one stage");
  }
  advance_to(at);
  Task task;
  task.seq = next_seq_++;
  task.function = function;
  task.arrival = at;
  task.deadline = deadline;
  // ONE jitter draw scales the whole chain (drawn before any shed, like
  // submit): every submission — chain or plain — consumes exactly one
  // draw, keeping the stream a pure function of the submission sequence.
  util::Nanos total = 0;
  for (const util::Nanos service : stage_services) {
    total += service;
  }
  const util::Nanos jittered_total = jittered(total);
  task.stage_services.reserve(stage_services.size());
  if (total == 0) {
    task.stage_services = stage_services;  // all-zero stages stay zero
  } else {
    // Distribute proportionally; the last stage absorbs rounding so the
    // stage boundaries sum to the finish time exactly.
    util::Nanos accumulated = 0;
    for (std::size_t i = 0; i < stage_services.size(); ++i) {
      util::Nanos share;
      if (i + 1 == stage_services.size()) {
        share = jittered_total - accumulated;
      } else {
        share = static_cast<util::Nanos>(
            static_cast<double>(stage_services[i]) *
            static_cast<double>(jittered_total) / static_cast<double>(total));
      }
      task.stage_services.push_back(share);
      accumulated += share;
    }
  }
  task.service = jittered_total;
  admit_or_dispatch(std::move(task), at);
}

void SimCluster::admit_or_dispatch(Task task, util::Nanos at) {
  if (params_.admission && task.deadline != 0) {
    const util::Nanos slack = task.deadline > at ? task.deadline - at : 0;
    if (slack == 0 || queue_delay_estimate() > slack) {
      record_rejection(task, at, faas::SubmissionReject::kQueueShed);
      return;
    }
    if (params_.dispatch == DispatchMode::kPull &&
        params_.pull_queue_capacity != 0 &&
        shared_queue_.size() >= params_.pull_queue_capacity) {
      record_rejection(task, at, faas::SubmissionReject::kQueueFull);
      return;
    }
  }
  if (params_.dispatch == DispatchMode::kPull) {
    shared_queue_.push_back(std::move(task));
    pull_try_bind(at);
  } else {
    push_dispatch(std::move(task), at);
  }
}

util::Nanos SimCluster::run_to_completion() {
  while (!finishes_.empty()) {
    const util::Nanos next = finishes_.top().time;
    complete_due(next);
    now_ = std::max(now_, next);
  }
  return now_;
}

void SimCluster::set_healthy(HostId host, bool healthy) {
  hosts_.at(host).healthy = healthy;
  if (healthy && params_.dispatch == DispatchMode::kPull) {
    pull_try_bind(now_);
  }
}

std::vector<std::uint64_t> SimCluster::steal_backlog(HostId host) {
  std::vector<std::uint64_t> seqs;
  SimHost& victim = hosts_.at(host);
  for (Task& task : victim.queue) {
    seqs.push_back(task.seq);
    task.redispatched = true;
    stolen_.push_back(std::move(task));
  }
  victim.queue.clear();
  return seqs;
}

void SimCluster::redispatch(std::uint64_t seq, util::Nanos at) {
  advance_to(at);
  const auto it =
      std::find_if(stolen_.begin(), stolen_.end(),
                   [seq](const Task& task) { return task.seq == seq; });
  if (it == stolen_.end()) {
    throw std::logic_error("SimCluster: redispatch of a task never stolen");
  }
  Task task = std::move(*it);
  stolen_.erase(it);
  if (params_.dispatch == DispatchMode::kPull) {
    shared_queue_.push_back(std::move(task));
    pull_try_bind(at);
  } else {
    push_dispatch(std::move(task), at);
  }
}

void SimCluster::crash_host(HostId host, util::Nanos at) {
  advance_to(at);
  SimHost& victim = hosts_.at(host);
  victim.crashed = true;
  victim.healthy = false;
  victim.params.warm_slots = 0;  // a dead host's warm state is gone
  SimDecision event;
  event.time = at;
  event.host = host;
  event.kind = SimEventKind::kCrash;
  decisions_.push_back(std::move(event));
}

std::vector<std::uint64_t> SimCluster::declare_dead(HostId host,
                                                    util::Nanos at) {
  advance_to(at);
  SimHost& victim = hosts_.at(host);
  victim.healthy = false;
  std::vector<std::uint64_t> seqs;
  // Queued backlog: never started, so plain exactly-once re-dispatch.
  for (Task& task : victim.queue) {
    seqs.push_back(task.seq);
    task.redispatched = true;
    stolen_.push_back(std::move(task));
  }
  victim.queue.clear();
  // In-flight orphans: their Finish entries stay scheduled (the host
  // always finishes a started task — the zombie), and a fresh copy goes
  // through the ledger so exactly one completion per seq survives.
  // Sorted by seq: unordered_map iteration order must not leak into the
  // stolen set, or seed replay would stop being bit-identical.
  std::vector<Task> orphans;
  orphans.reserve(victim.running.size());
  for (auto& [seq, task] : victim.running) {
    orphans.push_back(std::move(task));
  }
  victim.running.clear();
  std::sort(orphans.begin(), orphans.end(),
            [](const Task& a, const Task& b) { return a.seq < b.seq; });
  for (Task& task : orphans) {
    if (task.redispatched) {
      // A copy already re-dispatched off an earlier death: its zombie IS
      // the surviving outcome; a second copy would make three sightings.
      continue;
    }
    if (!task.stage_services.empty()) {
      // Chain orphan: advance the stolen copy's hop cursor past every
      // stage whose boundary the dying host had reached by `at` — the
      // re-dispatch resumes from the frontier and never re-executes a
      // completed stage. Boundaries are rebuilt with the dying host's own
      // speed/overhead, per-stage, exactly as start_on scheduled them.
      // (advance_to(at) above already completed anything fully done, so
      // at least one stage always remains.)
      util::Nanos boundary = task.started_at + victim.params.overhead;
      std::uint32_t hop = task.hop;
      while (hop < task.stage_services.size()) {
        boundary += static_cast<util::Nanos>(
            static_cast<double>(task.stage_services[hop]) *
            victim.params.speed);
        if (boundary > at) {
          break;
        }
        ++hop;
      }
      task.hop = hop;
      util::Nanos remaining = 0;
      for (std::size_t i = hop; i < task.stage_services.size(); ++i) {
        remaining += task.stage_services[i];
      }
      task.service = remaining;
    }
    orphan_seqs_.insert(task.seq);
    seqs.push_back(task.seq);
    task.redispatched = true;
    stolen_.push_back(std::move(task));
  }
  SimDecision event;
  event.time = at;
  event.host = host;
  event.kind = SimEventKind::kDeclareDead;
  decisions_.push_back(std::move(event));
  return seqs;
}

void SimCluster::recover_host(HostId host, util::Nanos at,
                              std::size_t rehydrated_warm_slots) {
  advance_to(at);
  SimHost& revived = hosts_.at(host);
  revived.crashed = false;
  revived.healthy = true;
  revived.params.warm_slots = rehydrated_warm_slots;
  SimDecision event;
  event.time = at;
  event.host = host;
  event.kind = SimEventKind::kRejoin;
  decisions_.push_back(std::move(event));
  if (params_.dispatch == DispatchMode::kPull) {
    pull_try_bind(at);  // the rejoined host's slots are pullable again
  }
}

void SimCluster::occupy(HostId host, std::size_t count, util::Nanos service) {
  for (std::size_t i = 0; i < count; ++i) {
    Task task;
    task.seq = next_seq_++;
    task.function = 0;
    task.arrival = now_;
    task.service = service;
    SimHost& target = hosts_.at(host);
    ++target.dispatched;
    if (target.in_flight < target.params.slots) {
      start_on(host, std::move(task), now_);
    } else {
      target.queue.push_back(std::move(task));
    }
  }
}

void SimCluster::set_warm_slots(HostId host, std::size_t warm) {
  hosts_.at(host).params.warm_slots = warm;
}

std::vector<std::uint64_t> SimCluster::dispatch_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(hosts_.size());
  for (const SimHost& host : hosts_) {
    out.push_back(host.dispatched);
  }
  return out;
}

std::vector<metrics::Histogram> SimCluster::latency_by_host() const {
  std::vector<metrics::Histogram> out(hosts_.size());
  for (const SimCompletion& done : completions_) {
    out[done.host].record(done.latency());
  }
  return out;
}

metrics::Histogram SimCluster::queueing_histogram() const {
  metrics::Histogram out;
  for (const SimCompletion& done : completions_) {
    out.record(done.queueing());
  }
  return out;
}

std::vector<std::vector<std::uint64_t>> split_indices(
    const std::vector<util::Nanos>& times,
    const std::vector<faas::FunctionId>& functions, SimClusterParams params,
    util::Nanos service_hint) {
  if (times.size() != functions.size()) {
    throw std::invalid_argument("split_indices: times/functions mismatch");
  }
  SimCluster cluster(params);
  for (std::size_t i = 0; i < times.size(); ++i) {
    cluster.submit(times[i], functions[i], service_hint);
  }
  cluster.run_to_completion();
  std::vector<std::vector<std::uint64_t>> out(
      std::max<std::size_t>(1, params.num_hosts));
  for (const SimDecision& decision : cluster.decisions()) {
    // occupy()/redispatch bookkeeping never reaches here: every submitted
    // arrival produced exactly one decision in both modes.
    if (decision.seq < times.size()) {
      out[decision.host].push_back(decision.seq);
    }
  }
  return out;
}

}  // namespace horse::cluster
