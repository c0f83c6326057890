// Snapshot / restore path (the paper's `restore` mode, FaaSnap-style).
//
// A snapshot captures the sandbox configuration and its guest-memory
// image. Restore performs a real page-by-page copy into a freshly created
// sandbox (the mechanical part we can execute) and reports the modelled
// device/VMM re-initialisation latency from the profile (the part that
// needs a real hypervisor). Table 1's restore row is the sum of both.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/time.hpp"
#include "vmm/profile.hpp"
#include "vmm/sandbox.hpp"

namespace horse::vmm {

struct Snapshot {
  SandboxConfig config;
  std::vector<std::byte> memory_image;
  std::uint64_t checksum = 0;
};

/// Page-granular dirty tracking over a guest-memory image, the mechanism
/// behind incremental snapshots (and FaaSnap's working-set restores):
/// writes go through `write()`, which marks the containing page.
class DirtyTracker {
 public:
  static constexpr std::size_t kPageSize = 4096;

  explicit DirtyTracker(std::size_t image_bytes)
      : dirty_((image_bytes + kPageSize - 1) / kPageSize, false) {}

  void mark(std::size_t offset) {
    dirty_.at(offset / kPageSize) = true;
  }
  void mark_range(std::size_t offset, std::size_t length);

  /// Write into the image, marking dirtied pages.
  void write(std::vector<std::byte>& image, std::size_t offset,
             const std::byte* data, std::size_t length);

  [[nodiscard]] bool is_dirty(std::size_t page) const {
    return dirty_.at(page);
  }
  [[nodiscard]] std::size_t page_count() const noexcept { return dirty_.size(); }
  [[nodiscard]] std::size_t dirty_count() const noexcept;
  [[nodiscard]] std::vector<std::size_t> dirty_pages() const;

  void clear() noexcept {
    std::fill(dirty_.begin(), dirty_.end(), false);
  }

 private:
  std::vector<bool> dirty_;
};

/// Delta snapshot: the pages that changed since a base snapshot. Restoring
/// applies base + delta; the copy cost scales with the working set, not
/// the image (FaaSnap's observation).
struct DeltaSnapshot {
  std::uint64_t base_checksum = 0;  // identifies the base it applies to
  std::vector<std::size_t> pages;
  std::vector<std::byte> page_data;  // pages.size() * kPageSize bytes
};

struct RestoreResult {
  std::unique_ptr<Sandbox> sandbox;
  // Measured: restore() counts the integrity checksum plus the image
  // copy; restore_incremental() counts the base copy plus the page patch
  // (it compares stored checksums only, so it has no image scan).
  util::Nanos copy_time = 0;
  util::Nanos modelled_time = 0; // modelled: device/VMM reinit latency
  [[nodiscard]] util::Nanos total_time() const noexcept {
    return copy_time + modelled_time;
  }
};

class SnapshotManager {
 public:
  explicit SnapshotManager(VmmProfile profile, std::uint64_t seed = 42)
      : profile_(std::move(profile)), rng_(seed) {}

  /// Capture the sandbox's memory image and configuration. The sandbox
  /// must be paused (snapshotting a running guest would tear pages).
  [[nodiscard]] util::Expected<Snapshot> take(const Sandbox& sandbox);

  /// Materialise a new sandbox from a snapshot. `next_id` is assigned to
  /// the restored sandbox. Fails with kInternal when the image's
  /// checksum does not match the one recorded at take() time (on-disk
  /// corruption in a real deployment; the snapshot.restore.corrupt fault
  /// site injects it here).
  [[nodiscard]] util::Expected<RestoreResult> restore(const Snapshot& snapshot,
                                                      sched::SandboxId next_id);

  /// Word-at-a-time hash over the whole memory image (eight lanes of
  /// xxHash64-style rounds folded at the end, byte tail, every byte
  /// contributes); restore verifies integrity with it.
  [[nodiscard]] static std::uint64_t compute_checksum(
      const std::vector<std::byte>& image) noexcept;

  // --- incremental snapshots ----------------------------------------------

  /// Capture only the pages `tracker` marked dirty relative to `base`.
  /// The sandbox must be paused.
  [[nodiscard]] util::Expected<DeltaSnapshot> take_delta(
      const Sandbox& sandbox, const Snapshot& base,
      const DirtyTracker& tracker);

  /// Restore base + delta into a fresh sandbox. Fails when the delta was
  /// taken against a different base (checksum mismatch).
  [[nodiscard]] util::Expected<RestoreResult> restore_incremental(
      const Snapshot& base, const DeltaSnapshot& delta,
      sched::SandboxId next_id);

 private:
  VmmProfile profile_;
  util::Xoshiro256 rng_;
};

}  // namespace horse::vmm
