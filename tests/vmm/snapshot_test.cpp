#include "vmm/snapshot.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sched/topology.hpp"
#include "vmm/boot.hpp"
#include "vmm/resume_engine.hpp"

namespace horse::vmm {
namespace {

SandboxConfig small_config() {
  SandboxConfig config;
  config.name = "fn";
  config.num_vcpus = 2;
  config.memory_mb = 4;
  return config;
}

TEST(SnapshotTest, TakeRequiresPausedSandbox) {
  SnapshotManager manager(VmmProfile::firecracker());
  Sandbox sandbox(1, small_config());
  const auto snapshot = manager.take(sandbox);
  EXPECT_FALSE(snapshot.has_value());
  EXPECT_EQ(snapshot.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, RoundTripPreservesMemoryImage) {
  sched::CpuTopology topology(2);
  ResumeEngine engine(topology, VmmProfile::firecracker());
  SnapshotManager manager(VmmProfile::firecracker());

  Sandbox sandbox(1, small_config());
  // Write a recognisable pattern into guest memory.
  auto& memory = sandbox.guest_memory();
  for (std::size_t i = 0; i < memory.size(); ++i) {
    memory[i] = static_cast<std::byte>(i * 7 & 0xff);
  }
  ASSERT_TRUE(engine.start(sandbox).is_ok());
  ASSERT_TRUE(engine.pause(sandbox).is_ok());

  const auto snapshot = manager.take(sandbox);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->memory_image.size(), memory.size());
  EXPECT_EQ(snapshot->checksum,
            SnapshotManager::compute_checksum(snapshot->memory_image));

  auto restored = manager.restore(*snapshot, 2);
  ASSERT_TRUE(restored.has_value()) << restored.status().to_report();
  ASSERT_NE(restored->sandbox, nullptr);
  EXPECT_EQ(restored->sandbox->id(), 2u);
  EXPECT_EQ(restored->sandbox->guest_memory(), memory);
  EXPECT_EQ(SnapshotManager::compute_checksum(restored->sandbox->guest_memory()),
            snapshot->checksum);
  ASSERT_TRUE(engine.destroy(sandbox).is_ok());
}

TEST(SnapshotTest, RestoreReportsBothTimeComponents) {
  SnapshotManager manager(VmmProfile::firecracker());
  Snapshot snapshot;
  snapshot.config = small_config();
  snapshot.memory_image.resize(1024, std::byte{0});
  // Restore verifies integrity, so a hand-built snapshot needs a checksum.
  snapshot.checksum = SnapshotManager::compute_checksum(snapshot.memory_image);
  auto restored = manager.restore(snapshot, 5);
  ASSERT_TRUE(restored.has_value()) << restored.status().to_report();
  EXPECT_GE(restored->copy_time, 0);
  EXPECT_GT(restored->modelled_time, 0);
  // Modelled latency stays within ±10% of the profile constant.
  const auto nominal = VmmProfile::firecracker().snapshot_restore;
  EXPECT_GE(restored->modelled_time, nominal * 9 / 10);
  EXPECT_LE(restored->modelled_time, nominal * 11 / 10);
  EXPECT_EQ(restored->total_time(),
            restored->copy_time + restored->modelled_time);
}

TEST(SnapshotTest, ChecksumDetectsCorruption) {
  std::vector<std::byte> image(256, std::byte{1});
  const auto original = SnapshotManager::compute_checksum(image);
  image[100] = std::byte{2};
  EXPECT_NE(SnapshotManager::compute_checksum(image), original);
}

TEST(SnapshotTest, ChecksumCoversEveryBitAndTheLength) {
  // 141 bytes: two full 64-byte strides, one tail word, a 5-byte tail.
  std::vector<std::byte> image(141);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<std::byte>(i * 37 + 11);
  }
  const auto original = SnapshotManager::compute_checksum(image);
  for (std::size_t i = 0; i < image.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      image[i] ^= static_cast<std::byte>(1u << bit);
      EXPECT_NE(SnapshotManager::compute_checksum(image), original)
          << "byte " << i << " bit " << bit;
      image[i] ^= static_cast<std::byte>(1u << bit);
    }
  }
  // Zero padding of the byte tail must not alias a longer image.
  image.push_back(std::byte{0});
  EXPECT_NE(SnapshotManager::compute_checksum(image), original);
}

TEST(SnapshotTest, ChecksumSeesEveryPairOfBitFlips) {
  // Two flipped bits must not cancel, wherever they are: same lane, other
  // lanes, the tail. Bit 63 of two words is the case a multiply-only lane
  // step misses (a top-bit difference survives any odd multiply).
  std::vector<std::byte> image(141);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<std::byte>(i * 37 + 11);
  }
  const auto original = SnapshotManager::compute_checksum(image);
  const std::size_t bits = image.size() * 8;
  std::size_t collisions = 0;
  std::string first;
  const auto flip = [&image](std::size_t bit) {
    image[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  };
  for (std::size_t a = 0; a < bits; ++a) {
    flip(a);
    for (std::size_t b = a + 1; b < bits; ++b) {
      flip(b);
      if (SnapshotManager::compute_checksum(image) == original) {
        if (collisions++ == 0) {
          first = std::to_string(a) + "," + std::to_string(b);
        }
      }
      flip(b);
    }
    flip(a);
  }
  EXPECT_EQ(collisions, 0u) << "first colliding bit pair: " << first;
}

TEST(SnapshotTest, RestoredSandboxIsStartable) {
  sched::CpuTopology topology(2);
  ResumeEngine engine(topology, VmmProfile::firecracker());
  SnapshotManager manager(VmmProfile::firecracker());

  Sandbox sandbox(1, small_config());
  ASSERT_TRUE(engine.start(sandbox).is_ok());
  ASSERT_TRUE(engine.pause(sandbox).is_ok());
  const auto snapshot = manager.take(sandbox);
  ASSERT_TRUE(snapshot.has_value());
  ASSERT_TRUE(engine.destroy(sandbox).is_ok());

  auto restored = manager.restore(*snapshot, 2);
  ASSERT_TRUE(restored.has_value()) << restored.status().to_report();
  ASSERT_TRUE(engine.start(*restored->sandbox).is_ok());
  EXPECT_EQ(restored->sandbox->state(), SandboxState::kRunning);
  ASSERT_TRUE(engine.destroy(*restored->sandbox).is_ok());
}

TEST(BootModelTest, ColdBootAroundProfileConstant) {
  BootModel boot(VmmProfile::firecracker());
  auto result = boot.cold_boot(1, small_config());
  ASSERT_NE(result.sandbox, nullptr);
  const auto nominal = VmmProfile::firecracker().cold_boot;
  EXPECT_GE(result.boot_time, nominal * 85 / 100);
  EXPECT_LE(result.boot_time, nominal * 125 / 100);
}

TEST(BootModelTest, XenColdBootSlowerThanFirecracker) {
  EXPECT_GT(VmmProfile::xen().cold_boot, VmmProfile::firecracker().cold_boot);
}

TEST(VmmProfileTest, FlavourConstantsSane) {
  const auto fc = VmmProfile::firecracker();
  const auto xen = VmmProfile::xen();
  EXPECT_EQ(fc.kind, VmmKind::kFirecracker);
  EXPECT_EQ(xen.kind, VmmKind::kXen);
  // Table 1 anchors.
  EXPECT_EQ(fc.cold_boot, 1'500 * util::kMillisecond);
  EXPECT_EQ(fc.snapshot_restore, 1'300 * util::kMicrosecond);
  EXPECT_GT(xen.resume_control_plane, fc.resume_control_plane);
}

}  // namespace
}  // namespace horse::vmm
