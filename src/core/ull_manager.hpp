// Reserved uLL run-queue management (§4.1.3).
//
// HORSE confines uLL sandboxes to a small set of reserved run queues so
// that 𝒫²𝒮ℳ's precomputed structures only have to track those queues.
// Responsibilities:
//   * reserve the queues in the topology (general placement skips them),
//   * assign each pausing uLL sandbox to the reserved queue with the
//     fewest paused sandboxes ("the choice … considers the number of
//     paused sandboxes already associated with each ull_runqueue to
//     perform load balancing"), tracked with per-queue occupancy counters
//     maintained on assign/untrack — no per-call scan of the tracked set,
//   * own one P2smIndex per paused sandbox. An index goes stale whenever
//     its target queue changes structurally; the owning resume replays the
//     queue journal into that one index before splicing, so the invoke
//     path never sweeps the others (refresh() is the explicit sweep),
//   * map each reserved queue to the HorseResumeEngine bound to it, so
//     the sharded control plane can route a resume to the engine whose
//     step-② lock serialises exactly that queue and nothing else.
//
// Thread-safety: the manager IS internally locked (this changed with the
// sharded control plane; it used to rely on a single engine's
// resume_lock_). A fine-grained mutex guards the assignment/tracking maps
// and the occupancy counters; every P2smIndex build/rebuild additionally
// holds the target queue's lock, so index mutation is serialised against
// concurrent splices into that queue. Raw pointers handed out by
// index_of() stay valid only while the sandbox remains tracked — callers
// rely on the platform invariant that a sandbox is owned by exactly one
// invocation at a time (see DESIGN.md §6, cross-shard invariants).
//
// Lock hierarchy (never acquire right-to-left):
//   shard mutex → engine resume_lock_ → manager mutex → queue lock.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/p2sm.hpp"
#include "metrics/contention.hpp"
#include "sched/topology.hpp"
#include "util/epoch.hpp"
#include "util/status.hpp"
#include "vmm/sandbox.hpp"

namespace horse::core {

class HorseResumeEngine;

/// Paused-sandbox count of one reserved queue (occupancy snapshot).
struct UllQueueOccupancy {
  sched::CpuId cpu = 0;
  std::size_t paused = 0;
};

class UllRunQueueManager {
 public:
  /// Reserves `config.num_ull_runqueues` CPUs, starting from the highest
  /// CPU id (leaving low ids for general work, as pinned-core setups do).
  UllRunQueueManager(sched::CpuTopology& topology, const HorseConfig& config);

  [[nodiscard]] const std::vector<sched::CpuId>& ull_cpus() const noexcept {
    return ull_cpus_;
  }

  ~UllRunQueueManager();

  /// Pause-time assignment: least-occupied reserved queue, decided from
  /// the per-queue counters (O(#queues), not O(#tracked)).
  [[nodiscard]] sched::CpuId assign(vmm::Sandbox& sandbox);

  /// The queue a paused sandbox was assigned to.
  [[nodiscard]] util::Expected<sched::CpuId> assignment(
      sched::SandboxId id) const;

  /// assignment() + index_of() under ONE mutex hold — the resume fast
  /// path's single manager-lock acquisition. `index` is nullptr when the
  /// sandbox is assigned but not tracked (e.g. 𝒫²𝒮ℳ disabled). The
  /// pointer-validity contract of index_of() applies unless the caller
  /// passes `epoch_pin`: then, when epoch reclamation is on and an index
  /// was found, the target queue's epoch is pinned INSIDE the mutex hold,
  /// while the node is still reachable. retire() only ever runs under
  /// this same mutex (untrack/re-track), so a racing untrack either
  /// completed before the lookup (index comes back nullptr) or starts
  /// after the pin is visible — the reclaimer can then never advance far
  /// enough to free the node until the guard is dropped. Pinning after
  /// lookup() returns would leave a window where maintenance pumps free
  /// the node under the caller.
  struct LookupResult {
    sched::CpuId cpu = 0;
    P2smIndex* index = nullptr;
  };
  [[nodiscard]] util::Expected<LookupResult> lookup(
      sched::SandboxId id,
      std::optional<util::EpochReclaimer::ReadGuard>* epoch_pin = nullptr);

  /// Register a paused sandbox and build its 𝒫²𝒮ℳ index against its
  /// assigned queue (under that queue's lock). Requires merge_vcpus to be
  /// populated (post-pause).
  util::Status track(vmm::Sandbox& sandbox);

  /// Drop tracking (after resume or destroy); releases the sandbox's
  /// occupancy slot. With `HorseConfig::epoch_reclaim` the tracked node
  /// (and its 𝒫²𝒮ℳ index) is NOT destroyed here: it is retired lock-free
  /// to the target queue's epoch reclaimer, and freed later by the
  /// try_reclaim() pump in track()/refresh() — the resume path never pays
  /// heap frees under the manager mutex, and a racing reader stays safe
  /// because its pin was published inside lookup(), under this same
  /// mutex, while the node was still tracked.
  void untrack(sched::SandboxId id);

  /// Bring every index whose target queue changed since it was built (or
  /// that is poisoned) back to fresh, taking each target queue's lock
  /// around the work. Tries the O(runs + delta) journal repair() first and
  /// falls back to the O(|A|+|B|) rebuild() only on journal overflow,
  /// poisoning, or a failed audit — per-index outcomes land in P2smStats
  /// (repairs / rebuilds / repair_fallbacks). An explicit maintenance
  /// entry point for benches, tests and scheduler ticks: the resume path
  /// never calls it, it repairs the resuming index alone.
  /// Returns the number of indexes made fresh (repaired + rebuilt).
  std::size_t refresh();

  /// The index for a paused sandbox; nullptr when untracked. See the
  /// header comment for the pointer-validity contract.
  [[nodiscard]] P2smIndex* index_of(sched::SandboxId id);

  [[nodiscard]] std::size_t tracked_count() const;

  /// Total heap footprint of all precomputed structures (§5.2 memory
  /// overhead; the paper measures ≈528 KB for 10 paused uLL sandboxes).
  [[nodiscard]] std::size_t total_index_bytes() const;

  /// Per-queue paused-sandbox counters (control-plane observability; the
  /// macro throughput bench reports these next to its scaling numbers).
  [[nodiscard]] std::vector<UllQueueOccupancy> occupancy() const;

  /// Acquisition accounting for the manager's internal mutex.
  [[nodiscard]] metrics::ContentionStats contention() const noexcept {
    return meter_.snapshot();
  }

  /// Occupancy + contention + tracked count read in ONE critical section.
  /// occupancy() and contention() taken separately can straddle
  /// assign/untrack calls and disagree with each other; reporting paths
  /// that emit them side by side (macro_throughput CSV rows, per-host
  /// cluster stats) must use this so each row is internally consistent.
  struct ManagerSnapshot {
    std::vector<UllQueueOccupancy> occupancy;
    metrics::ContentionStats contention;
    std::size_t tracked = 0;
  };
  [[nodiscard]] ManagerSnapshot snapshot() const;

  // --- engine-per-queue binding (sharded control plane) -------------------

  /// Bind `engine` as the resume engine owning `cpu`'s queue. Engines
  /// bind themselves at construction and unbind at destruction.
  void bind_engine(sched::CpuId cpu, HorseResumeEngine* engine);
  void unbind_engine(const HorseResumeEngine* engine);

  /// The engine bound to a queue; falls back to the first bound engine
  /// when `cpu` has no binding (e.g. a queue added by grow()), nullptr
  /// when no engine is bound at all.
  [[nodiscard]] HorseResumeEngine* engine_for(sched::CpuId cpu) const;

  /// The engine owning the queue a paused sandbox was assigned to, or the
  /// fallback engine when the sandbox is unassigned.
  [[nodiscard]] HorseResumeEngine* engine_for_sandbox(sched::SandboxId id) const;

  // --- adaptive scaling (§4.1.3: "In the case of a high frequency of uLL
  // workload triggers, we can increase the number of ull_runqueue") ------

  /// Reserve one more CPU as a ull_runqueue. Fails with
  /// kResourceExhausted when growing would leave no general CPU.
  util::Status grow();

  /// Release the most recently reserved queue back to general duty.
  /// Fails when only one queue remains or when paused sandboxes are
  /// still assigned to the victim queue (their indexes target it).
  util::Status shrink();

 private:
  /// Heap-allocated tracking record. Owned by tracked_ while live; after
  /// untrack() ownership passes to the target queue's epoch reclaimer
  /// (via `retire`), which destroys it through destroy_node(). The index
  /// lives inline so node + run table share one lifetime.
  struct TrackedNode {
    vmm::Sandbox* sandbox = nullptr;
    sched::CpuId cpu = 0;
    P2smIndex index;
    util::EpochRetireNode retire;
  };
  static void destroy_node(void* owner) noexcept {
    delete static_cast<TrackedNode*>(owner);
  }

  /// Free whatever garbage the reclaimer of `cpu`'s queue has matured.
  /// Maintenance-path only: must not hold any queue lock.
  void pump_reclaim(sched::CpuId cpu) noexcept;

  [[nodiscard]] std::size_t& occupancy_slot(sched::CpuId cpu);

  sched::CpuTopology& topology_;
  mutable std::mutex mutex_;
  mutable metrics::ContentionMeter meter_;
  std::vector<sched::CpuId> ull_cpus_;
  /// Paused-sandbox count per reserved queue, parallel to ull_cpus_;
  /// updated on assign/untrack (and re-assign), consulted by assign() and
  /// shrink() instead of scanning tracked_.
  std::vector<std::size_t> occupancy_;
  std::unordered_map<sched::SandboxId, TrackedNode*> tracked_;
  const bool epoch_reclaim_;
  const bool branchless_walk_;
  std::unordered_map<sched::SandboxId, sched::CpuId> assignments_;
  std::unordered_map<sched::CpuId, HorseResumeEngine*> engines_;
};

}  // namespace horse::core
