#include "core/ull_manager.hpp"

#include <limits>
#include <stdexcept>

#include "util/spinlock.hpp"

namespace horse::core {

namespace {
/// All map/counter mutation happens under this metered guard.
using ManagerLock = metrics::MeteredLock<std::mutex>;
}  // namespace

UllRunQueueManager::UllRunQueueManager(sched::CpuTopology& topology,
                                       const HorseConfig& config)
    : topology_(topology),
      epoch_reclaim_(config.epoch_reclaim),
      branchless_walk_(config.branchless_walk) {
  config.validate();
  if (config.num_ull_runqueues >= topology.num_cpus()) {
    throw std::invalid_argument(
        "UllRunQueueManager: cannot reserve every CPU for uLL");
  }
  const auto n = static_cast<sched::CpuId>(topology.num_cpus());
  for (sched::CpuId i = 0; i < config.num_ull_runqueues; ++i) {
    const sched::CpuId cpu = n - 1 - i;
    topology.reserve_for_ull(cpu);
    ull_cpus_.push_back(cpu);
  }
  occupancy_.assign(ull_cpus_.size(), 0);
}

UllRunQueueManager::~UllRunQueueManager() {
  // Still-tracked nodes are owned by the map; retired ones by the queue
  // reclaimers. Drain the latter too — by the time the manager dies the
  // platform guarantees no resume is in flight, so no reader can be
  // pinned, and leaving garbage for the topology's (later) destruction
  // would just hide leaks from the sanitizer runs.
  for (auto& [id, node] : tracked_) {
    delete node;
  }
  for (const sched::CpuId cpu : ull_cpus_) {
    topology_.queue(cpu).epoch().drain();
  }
}

void UllRunQueueManager::pump_reclaim(sched::CpuId cpu) noexcept {
  topology_.queue(cpu).epoch().try_reclaim();
}

std::size_t& UllRunQueueManager::occupancy_slot(sched::CpuId cpu) {
  for (std::size_t i = 0; i < ull_cpus_.size(); ++i) {
    if (ull_cpus_[i] == cpu) {
      return occupancy_[i];
    }
  }
  throw std::logic_error("ull: occupancy_slot for non-reserved cpu");
}

sched::CpuId UllRunQueueManager::assign(vmm::Sandbox& sandbox) {
  ManagerLock lock(mutex_, meter_);
  // Least-occupied reserved queue, straight from the per-queue counters.
  std::size_t best_slot = 0;
  std::size_t best_count = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < ull_cpus_.size(); ++i) {
    if (occupancy_[i] < best_count) {
      best_slot = i;
      best_count = occupancy_[i];
    }
  }
  const sched::CpuId best = ull_cpus_[best_slot];
  // Re-assign without an intervening untrack releases the old slot first,
  // so the counters always sum to assignments_.size().
  if (const auto it = assignments_.find(sandbox.id());
      it != assignments_.end()) {
    --occupancy_slot(it->second);
  }
  assignments_[sandbox.id()] = best;
  ++occupancy_[best_slot];
  return best;
}

util::Expected<sched::CpuId> UllRunQueueManager::assignment(
    sched::SandboxId id) const {
  ManagerLock lock(mutex_, meter_);
  const auto it = assignments_.find(id);
  if (it == assignments_.end()) {
    return util::Status{util::StatusCode::kNotFound,
                        "ull: sandbox has no queue assignment"};
  }
  return it->second;
}

util::Status UllRunQueueManager::track(vmm::Sandbox& sandbox) {
  sched::CpuId cpu;
  {
    ManagerLock lock(mutex_, meter_);
    const auto it = assignments_.find(sandbox.id());
    if (it == assignments_.end()) {
      return {util::StatusCode::kFailedPrecondition,
              "ull: assign() before track()"};
    }
    if (sandbox.merge_vcpus().size() == 0) {
      return {util::StatusCode::kFailedPrecondition,
              "ull: sandbox has no parked vCPUs (not paused?)"};
    }
    auto* node = new TrackedNode;
    node->sandbox = &sandbox;
    node->cpu = cpu = it->second;
    node->index.set_branchless(branchless_walk_);
    node->retire.owner = node;
    node->retire.destroy = &destroy_node;
    {
      // The build reads the target queue's structure; hold its lock so a
      // concurrent resume splicing into the same queue cannot interleave.
      sched::RunQueue& queue = topology_.queue(node->cpu);
      util::LockGuard guard(queue.lock());
      node->index.rebuild(sandbox.merge_vcpus(), queue);
    }
    TrackedNode*& slot = tracked_[sandbox.id()];
    if (slot != nullptr) {
      // Re-track without an intervening untrack: the old node follows the
      // same retire-or-delete path an untrack would have taken.
      if (epoch_reclaim_) {
        topology_.queue(slot->cpu).epoch().retire(&slot->retire);
      } else {
        delete slot;
      }
    }
    slot = node;
  }
  // Pause-time maintenance is where retired garbage gets freed — off the
  // resume path, holding neither the manager mutex nor any queue lock.
  pump_reclaim(cpu);
  return util::Status::ok();
}

void UllRunQueueManager::untrack(sched::SandboxId id) {
  ManagerLock lock(mutex_, meter_);
  if (const auto it = tracked_.find(id); it != tracked_.end()) {
    TrackedNode* node = it->second;
    // Erase first: after this no new reader can look the node up, so the
    // epoch protocol only has to cover readers already holding a pointer.
    // Those readers were pinned inside lookup(), under this same mutex —
    // i.e. strictly before this retire — so the reclaimer cannot free the
    // node under them.
    tracked_.erase(it);
    if (epoch_reclaim_) {
      topology_.queue(node->cpu).epoch().retire(&node->retire);
    } else {
      delete node;
    }
  }
  if (const auto it = assignments_.find(id); it != assignments_.end()) {
    --occupancy_slot(it->second);
    assignments_.erase(it);
  }
}

std::size_t UllRunQueueManager::refresh() {
  std::size_t refreshed = 0;
  std::vector<sched::CpuId> cpus;
  {
    ManagerLock lock(mutex_, meter_);
    cpus = ull_cpus_;
    for (auto& [id, node] : tracked_) {
      sched::RunQueue& queue = topology_.queue(node->cpu);
      util::LockGuard guard(queue.lock());
      P2smIndex& index = node->index;
      if (index.fresh(queue) && !index.poisoned()) {
        continue;
      }
      // Incremental first: replay the queue's mutation journal in
      // O(runs + delta). This is what kills the rebuild storm — N
      // co-resident indexes used to pay O(N·(|A|+|B|)) per queue mutation.
      if (!index.poisoned() &&
          index.try_repair(node->sandbox->merge_vcpus(), queue)) {
        ++refreshed;
        continue;
      }
      // Journal gap, poisoning, or a failed audit: the O(|A|+|B|) fallback
      // cures every repair failure mode.
      index.rebuild(node->sandbox->merge_vcpus(), queue);
      ++refreshed;
    }
  }
  // The refresh sweep doubles as the reclaim pump for every reserved
  // queue (refresh runs from maintenance ticks, never from a resume).
  for (const sched::CpuId cpu : cpus) {
    pump_reclaim(cpu);
  }
  return refreshed;
}

P2smIndex* UllRunQueueManager::index_of(sched::SandboxId id) {
  ManagerLock lock(mutex_, meter_);
  const auto it = tracked_.find(id);
  return it == tracked_.end() ? nullptr : &it->second->index;
}

util::Expected<UllRunQueueManager::LookupResult> UllRunQueueManager::lookup(
    sched::SandboxId id,
    std::optional<util::EpochReclaimer::ReadGuard>* epoch_pin) {
  ManagerLock lock(mutex_, meter_);
  const auto assigned = assignments_.find(id);
  if (assigned == assignments_.end()) {
    return util::Status{util::StatusCode::kNotFound,
                        "ull: sandbox has no queue assignment"};
  }
  LookupResult result;
  result.cpu = assigned->second;
  const auto it = tracked_.find(id);
  result.index = it == tracked_.end() ? nullptr : &it->second->index;
  // Pin while the node is still in tracked_, i.e. before any untrack can
  // retire it: retire() runs only under this mutex, so once the pin is
  // published here no subsequent retirement of this node can be freed
  // until the caller drops the guard (the reclaimer cannot advance two
  // epochs past a pinned reader). Pin/unpin are lock-free, so this adds
  // two atomics to the mutex hold, never a wait.
  if (epoch_pin != nullptr && epoch_reclaim_ && result.index != nullptr) {
    epoch_pin->emplace(topology_.queue(result.cpu).epoch());
  }
  return result;
}

std::size_t UllRunQueueManager::tracked_count() const {
  ManagerLock lock(mutex_, meter_);
  return tracked_.size();
}

std::vector<UllQueueOccupancy> UllRunQueueManager::occupancy() const {
  ManagerLock lock(mutex_, meter_);
  std::vector<UllQueueOccupancy> out;
  out.reserve(ull_cpus_.size());
  for (std::size_t i = 0; i < ull_cpus_.size(); ++i) {
    out.push_back({ull_cpus_[i], occupancy_[i]});
  }
  return out;
}

UllRunQueueManager::ManagerSnapshot UllRunQueueManager::snapshot() const {
  ManagerLock lock(mutex_, meter_);
  ManagerSnapshot out;
  out.occupancy.reserve(ull_cpus_.size());
  for (std::size_t i = 0; i < ull_cpus_.size(); ++i) {
    out.occupancy.push_back({ull_cpus_[i], occupancy_[i]});
  }
  // Read under the same hold as the occupancy so a reporting row cannot
  // mix counters from different instants (the meter itself is relaxed
  // atomics; the hold pins it relative to assign/untrack).
  out.contention = meter_.snapshot();
  out.tracked = tracked_.size();
  return out;
}

void UllRunQueueManager::bind_engine(sched::CpuId cpu,
                                     HorseResumeEngine* engine) {
  ManagerLock lock(mutex_, meter_);
  engines_[cpu] = engine;
}

void UllRunQueueManager::unbind_engine(const HorseResumeEngine* engine) {
  ManagerLock lock(mutex_, meter_);
  for (auto it = engines_.begin(); it != engines_.end();) {
    it = it->second == engine ? engines_.erase(it) : std::next(it);
  }
}

HorseResumeEngine* UllRunQueueManager::engine_for(sched::CpuId cpu) const {
  ManagerLock lock(mutex_, meter_);
  if (const auto it = engines_.find(cpu); it != engines_.end()) {
    return it->second;
  }
  // Unbound queue (grown after engine construction): any bound engine is
  // correct — its step-② lock is wider than necessary, never narrower.
  for (const sched::CpuId candidate : ull_cpus_) {
    if (const auto it = engines_.find(candidate); it != engines_.end()) {
      return it->second;
    }
  }
  return nullptr;
}

HorseResumeEngine* UllRunQueueManager::engine_for_sandbox(
    sched::SandboxId id) const {
  sched::CpuId cpu;
  {
    ManagerLock lock(mutex_, meter_);
    const auto it = assignments_.find(id);
    if (it == assignments_.end()) {
      cpu = ull_cpus_.front();
    } else {
      cpu = it->second;
    }
  }
  return engine_for(cpu);
}

util::Status UllRunQueueManager::grow() {
  ManagerLock lock(mutex_, meter_);
  // Reserved queues are allocated downward from the top CPU; the next
  // candidate is just below the last one we hold.
  const sched::CpuId candidate = ull_cpus_.back() - 1;
  if (ull_cpus_.size() + 1 >= topology_.num_cpus() || candidate == 0 ||
      topology_.is_reserved(candidate)) {
    return {util::StatusCode::kResourceExhausted,
            "ull: cannot reserve another queue"};
  }
  topology_.reserve_for_ull(candidate);
  ull_cpus_.push_back(candidate);
  occupancy_.push_back(0);
  return util::Status::ok();
}

util::Status UllRunQueueManager::shrink() {
  ManagerLock lock(mutex_, meter_);
  if (ull_cpus_.size() <= 1) {
    return {util::StatusCode::kFailedPrecondition,
            "ull: at least one ull_runqueue must remain"};
  }
  const sched::CpuId victim = ull_cpus_.back();
  if (occupancy_.back() != 0) {
    return {util::StatusCode::kFailedPrecondition,
            "ull: paused sandboxes still assigned to the victim queue"};
  }
  if (!topology_.queue(victim).empty()) {
    return {util::StatusCode::kFailedPrecondition,
            "ull: victim queue still has runnable uLL vCPUs"};
  }
  topology_.unreserve(victim);
  ull_cpus_.pop_back();
  occupancy_.pop_back();
  return util::Status::ok();
}

std::size_t UllRunQueueManager::total_index_bytes() const {
  ManagerLock lock(mutex_, meter_);
  std::size_t total = 0;
  for (const auto& [id, node] : tracked_) {
    total += node->index.memory_bytes() + sizeof(TrackedNode);
  }
  return total;
}

}  // namespace horse::core
