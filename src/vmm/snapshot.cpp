#include "vmm/snapshot.hpp"

#include <algorithm>
#include <cstring>

#include "util/fault_injection.hpp"

namespace horse::vmm {

std::uint64_t SnapshotManager::compute_checksum(
    const std::vector<std::byte>& image) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::byte b : image) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

util::Expected<Snapshot> SnapshotManager::take(const Sandbox& sandbox) {
  if (sandbox.state() != SandboxState::kPaused) {
    return util::Status{util::StatusCode::kFailedPrecondition,
                        "snapshot: sandbox must be paused"};
  }
  Snapshot snapshot;
  snapshot.config = sandbox.config();
  snapshot.memory_image = sandbox.guest_memory();
  snapshot.checksum = compute_checksum(snapshot.memory_image);
  return snapshot;
}

void DirtyTracker::mark_range(std::size_t offset, std::size_t length) {
  if (length == 0) {
    return;
  }
  const std::size_t first = offset / kPageSize;
  const std::size_t last = (offset + length - 1) / kPageSize;
  for (std::size_t page = first; page <= last; ++page) {
    dirty_.at(page) = true;
  }
}

void DirtyTracker::write(std::vector<std::byte>& image, std::size_t offset,
                         const std::byte* data, std::size_t length) {
  std::copy(data, data + length,
            image.begin() + static_cast<std::ptrdiff_t>(offset));
  mark_range(offset, length);
}

std::size_t DirtyTracker::dirty_count() const noexcept {
  std::size_t count = 0;
  for (const bool dirty : dirty_) {
    if (dirty) {
      ++count;
    }
  }
  return count;
}

std::vector<std::size_t> DirtyTracker::dirty_pages() const {
  std::vector<std::size_t> pages;
  for (std::size_t page = 0; page < dirty_.size(); ++page) {
    if (dirty_[page]) {
      pages.push_back(page);
    }
  }
  return pages;
}

util::Expected<DeltaSnapshot> SnapshotManager::take_delta(
    const Sandbox& sandbox, const Snapshot& base, const DirtyTracker& tracker) {
  if (sandbox.state() != SandboxState::kPaused) {
    return util::Status{util::StatusCode::kFailedPrecondition,
                        "delta snapshot: sandbox must be paused"};
  }
  const auto& memory = sandbox.guest_memory();
  if (memory.size() != base.memory_image.size()) {
    return util::Status{util::StatusCode::kInvalidArgument,
                        "delta snapshot: image size differs from base"};
  }
  DeltaSnapshot delta;
  delta.base_checksum = base.checksum;
  delta.pages = tracker.dirty_pages();
  delta.page_data.reserve(delta.pages.size() * DirtyTracker::kPageSize);
  for (const std::size_t page : delta.pages) {
    const std::size_t begin = page * DirtyTracker::kPageSize;
    const std::size_t end =
        std::min(begin + DirtyTracker::kPageSize, memory.size());
    delta.page_data.insert(delta.page_data.end(), memory.begin() + begin,
                           memory.begin() + end);
  }
  return delta;
}

util::Expected<RestoreResult> SnapshotManager::restore_incremental(
    const Snapshot& base, const DeltaSnapshot& delta,
    sched::SandboxId next_id) {
  if (delta.base_checksum != base.checksum) {
    return util::Status{util::StatusCode::kFailedPrecondition,
                        "incremental restore: delta does not match base"};
  }
  RestoreResult result;
  util::Stopwatch watch;
  result.sandbox = std::make_unique<Sandbox>(next_id, base.config);
  auto& memory = result.sandbox->guest_memory();
  memory = base.memory_image;
  std::size_t cursor = 0;
  for (const std::size_t page : delta.pages) {
    const std::size_t begin = page * DirtyTracker::kPageSize;
    const std::size_t length =
        std::min(DirtyTracker::kPageSize, memory.size() - begin);
    std::copy(delta.page_data.begin() + static_cast<std::ptrdiff_t>(cursor),
              delta.page_data.begin() +
                  static_cast<std::ptrdiff_t>(cursor + length),
              memory.begin() + static_cast<std::ptrdiff_t>(begin));
    cursor += length;
  }
  result.copy_time = watch.elapsed();
  // Device re-init is the same whether the image came whole or as
  // base+delta; what shrinks with the working set is the (real) copy.
  const double jitter = rng_.normal(1.0, 0.02);
  result.modelled_time = static_cast<util::Nanos>(
      static_cast<double>(profile_.snapshot_restore) *
      std::clamp(jitter, 0.9, 1.1));
  return result;
}

util::Expected<RestoreResult> SnapshotManager::restore(
    const Snapshot& snapshot, sched::SandboxId next_id) {
  // Integrity gate: refuse an image whose checksum drifted from the one
  // recorded at take() time. The fault site flips the computed value —
  // equivalent to a single corrupted byte without damaging the caller's
  // snapshot object. The check reads the whole image, so it is timed as
  // part of the restore.
  util::Stopwatch watch;
  std::uint64_t computed = compute_checksum(snapshot.memory_image);
  if (HORSE_FAULT_POINT("snapshot.restore.corrupt")) {
    computed = ~computed;
  }
  if (computed != snapshot.checksum) {
    return util::Status{util::StatusCode::kInternal,
                        "restore: memory image checksum mismatch "
                        "(snapshot corrupt)"};
  }

  RestoreResult result;
  result.sandbox = std::make_unique<Sandbox>(next_id, snapshot.config);
  auto& memory = result.sandbox->guest_memory();
  memory.resize(snapshot.memory_image.size());
  std::copy(snapshot.memory_image.begin(), snapshot.memory_image.end(),
            memory.begin());
  result.copy_time = watch.elapsed();

  // Device re-init and lazy-mapping latency we cannot execute without a
  // hypervisor: sampled around the profile constant (±2%), matching the
  // paper's observed run-to-run variance.
  const double jitter = rng_.normal(1.0, 0.02);
  result.modelled_time = static_cast<util::Nanos>(
      static_cast<double>(profile_.snapshot_restore) *
      std::clamp(jitter, 0.9, 1.1));
  return result;
}

}  // namespace horse::vmm
