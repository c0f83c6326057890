// E14 (restore ablation, ours) — full vs incremental (dirty-page) restore.
//
// The paper's restore baseline is FaaSnap, whose core claim is that
// restore cost should track the *working set*, not the image. This
// harness sweeps the dirty fraction of a sandbox image and compares the
// measured copy time of a full restore against base+delta restores —
// the real-copy component of Table 1's restore row.
#include <iostream>
#include <memory>

#include "metrics/reporter.hpp"
#include "metrics/stats.hpp"
#include "sched/topology.hpp"
#include "util/rng.hpp"
#include "vmm/resume_engine.hpp"
#include "vmm/snapshot.hpp"

namespace {

using namespace horse;

constexpr int kRepetitions = 9;

}  // namespace

int main() {
  sched::CpuTopology topology(2);
  vmm::ResumeEngine engine(topology, vmm::VmmProfile::firecracker());
  vmm::SnapshotManager manager(vmm::VmmProfile::firecracker());

  // A 512 MB-configured sandbox → 8 MiB scaled image (2048 pages).
  vmm::SandboxConfig config;
  config.name = "restore-probe";
  config.num_vcpus = 1;
  config.memory_mb = 512;
  vmm::Sandbox sandbox(1, config);
  util::Xoshiro256 rng(3);
  for (auto& byte : sandbox.guest_memory()) {
    byte = static_cast<std::byte>(rng.bounded(256));
  }
  (void)engine.start(sandbox);
  (void)engine.pause(sandbox);
  const auto base = manager.take(sandbox);
  if (!base) {
    std::cerr << "base snapshot failed\n";
    return 1;
  }
  const std::size_t total_pages =
      sandbox.guest_memory().size() / vmm::DirtyTracker::kPageSize;

  metrics::TextTable table(
      "Restore cost vs working set (8 MiB scaled image, 2048 pages)",
      {"dirty pages", "dirty %", "snapshot capture", "restore copy",
       "vs full"});

  // Full restore reference; full capture = take() copying the image.
  metrics::SampleStats full_capture;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    util::Stopwatch watch;
    auto snapshot = manager.take(sandbox);
    full_capture.add(static_cast<double>(watch.elapsed()));
  }
  metrics::SampleStats full_samples;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    auto restored = manager.restore(*base, 100 + rep);
    if (!restored) {
      std::cerr << "full restore failed: " << restored.status().to_report()
                << "\n";
      return 1;
    }
    full_samples.add(static_cast<double>(restored->copy_time));
  }
  const double full_copy = full_samples.percentile(50);
  table.add_row({"full image", "100%",
                 metrics::format_nanos(full_capture.percentile(50)),
                 metrics::format_nanos(full_copy), "1.00x"});

  for (const double fraction : {0.01, 0.05, 0.25, 0.50}) {
    const auto dirty_pages =
        static_cast<std::size_t>(fraction * static_cast<double>(total_pages));
    vmm::DirtyTracker tracker(sandbox.guest_memory().size());
    util::Xoshiro256 page_rng(7);
    for (std::size_t i = 0; i < dirty_pages; ++i) {
      tracker.mark(page_rng.bounded(total_pages) * vmm::DirtyTracker::kPageSize);
    }
    metrics::SampleStats capture_samples;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      util::Stopwatch watch;
      auto probe = manager.take_delta(sandbox, *base, tracker);
      capture_samples.add(static_cast<double>(watch.elapsed()));
    }
    const auto delta = manager.take_delta(sandbox, *base, tracker);
    if (!delta) {
      std::cerr << "delta failed: " << delta.status().to_report() << "\n";
      return 1;
    }
    metrics::SampleStats samples;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      auto restored = manager.restore_incremental(*base, *delta, 200 + rep);
      if (!restored) {
        std::cerr << "restore failed\n";
        return 1;
      }
      samples.add(static_cast<double>(restored->copy_time));
    }
    const double median = samples.percentile(50);
    table.add_row({std::to_string(delta->pages.size()),
                   metrics::format_percent(fraction, 0),
                   metrics::format_nanos(capture_samples.percentile(50)),
                   metrics::format_nanos(median),
                   metrics::format_double(median / full_copy, 2) + "x"});
  }

  table.print(std::cout);
  std::cout << "\nNote: the full-image row includes restore()'s integrity "
               "checksum over the whole image; the incremental path compares "
               "stored checksums only. The base+delta copy includes "
               "duplicating the base image, so the copy itself stays flat; a "
               "FaaSnap-grade lazy restore would map the base copy-on-write.\n";
  (void)engine.destroy(sandbox);
  return 0;
}
