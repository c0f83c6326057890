#include "vmm/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/fault_injection.hpp"

namespace horse::vmm {

namespace {

// xxHash64's primes: odd, so x -> x * P is a bijection on 64-bit words.
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;

std::uint64_t load_word(const std::byte* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

// One lane step (xxHash64's round). For a fixed lane state it is a
// bijection of the word, and for a fixed word a bijection of the state.
// The rotate carries top-bit differences back down before the multiply:
// without it a flipped bit 63 survives every multiply unchanged, and two
// such flips cancel.
std::uint64_t lane_round(std::uint64_t lane, std::uint64_t word) noexcept {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

// Finaliser (MurmurHash3 fmix64), a bijection that spreads every bit of
// the folded state over the result.
std::uint64_t avalanche(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::uint64_t SnapshotManager::compute_checksum(
    const std::vector<std::byte>& image) noexcept {
  // Eight independent lanes over 64-bit words, so the multiplies pipeline
  // instead of serialising one byte at a time. Every round is a bijection
  // of its word for a fixed lane state and of the state for a fixed word,
  // so changing any single byte changes its lane's final state, and each
  // fold step below is a bijection of the lane it folds in.
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kStride = kLanes * sizeof(std::uint64_t);
  std::uint64_t lane[kLanes] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                                0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL,
                                0x452821e638d01377ULL, 0xbe5466cf34e90c6cULL,
                                0xc0ac29b7c97c50ddULL, 0x3f84d5b5b5470917ULL};
  const std::byte* p = image.data();
  const std::size_t size = image.size();
  std::size_t at = 0;
  for (; at + kStride <= size; at += kStride) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lane[l] =
          lane_round(lane[l], load_word(p + at + l * sizeof(std::uint64_t)));
    }
  }
  // Tail: whole words into lane 0, then the last bytes zero-padded into
  // one word. The length is folded in below, so padding is unambiguous.
  for (; at + sizeof(std::uint64_t) <= size; at += sizeof(std::uint64_t)) {
    lane[0] = lane_round(lane[0], load_word(p + at));
  }
  if (at < size) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + at, size - at);
    lane[1] = lane_round(lane[1], word);
  }
  // Each lane goes through a round before it is xored in, so lane
  // differences reach the low bits and cannot cancel bit for bit.
  std::uint64_t hash = static_cast<std::uint64_t>(size);
  for (std::uint64_t l : lane) {
    hash = (hash ^ lane_round(0, l)) * kPrime1 + kPrime4;
  }
  return avalanche(hash);
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
