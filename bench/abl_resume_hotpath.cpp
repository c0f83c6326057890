// E22 — resume hot-path ablation (PR 10): quantify what each hot-path
// optimisation buys on the SAME workload, and gate the combined result.
//
// Arms (HorseConfig toggles; everything else identical):
//   scalar     — cycle_timing off, branchless_walk off, epoch_reclaim off
//                (the pre-PR-10 hot path: chrono stage timing, per-vCPU
//                std::upper_bound walks, inline frees in untrack)
//   cycles     — rdtsc stage timing only
//   branchless — branchless/SIMD credit walk + single-lock merge only
//   epoch      — epoch-deferred reclamation only
//   all        — everything on (the shipped default)
//   churn      — everything on, with 𝒫²𝒮ℳ instead of the walk, and a
//                third sandbox on the same queue that resumes and
//                re-pauses between probe cycles: every measured resume
//                finds its index stale and repairs it from the queue
//                journal before splicing
//
// Workload: two 32-vCPU uLL sandboxes pinned to ONE reserved queue with
// interleaved credits, so every measured resume merges 32 vCPUs into a
// queue already holding 32 in 32 separate runs — the credit walk, the
// splice set and the retire path dominate the fixed prologue. Samples
// are 16-resume batch means (see kBatchReps). Gates (exit code 1):
//   * p99(all) must undercut p99(scalar) by >= 20% — downgraded to a
//     reported-but-non-fatal check with --advisory-perf-gate (shared CI
//     runners; see the hotpath-smoke job)
//   * the steady-state "all" and "churn" resumes must be allocation-free
//     (this binary carries the counting allocator; a canary verifies it
//     is live) — deterministic, always hard
//   * no measured resume of any arm may degrade to the fallback walk
//     (exit code 2) — deterministic, always hard
#include <cstring>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/horse_resume.hpp"
#include "metrics/csv.hpp"
#include "metrics/histogram.hpp"
#include "metrics/reporter.hpp"
#include "util/alloc_counter.hpp"
#include "util/cycle_clock.hpp"

namespace {

using namespace horse;

constexpr std::uint32_t kVcpus = 32;
// The churn sandbox's resume plus re-pause journals 2 × kChurnVcpus
// mutations: inside the 64-entry journal, so the probe's repair never
// declines.
constexpr std::uint32_t kChurnVcpus = 8;
constexpr int kWarmupReps = 64;
// Latency samples are means over batches of consecutive resumes: a single
// resume runs in the hundreds of ns, where a raw p99 measures the host's
// interrupts, not the code. Per-sample batching (google-benchmark style)
// keeps the tail statistic about the resume path itself.
constexpr int kBatchReps = 16;

struct Arm {
  const char* name;
  bool cycle_timing;
  bool branchless_walk;
  bool epoch_reclaim;
  bool churn;
};

const std::vector<Arm> kArms = {
    {"scalar", false, false, false, false},
    {"cycles", true, false, false, false},
    {"branchless", false, true, false, false},
    {"epoch", false, false, true, false},
    {"all", true, true, true, false},
    {"churn", true, true, true, true},
};

struct ArmResult {
  std::string name;
  metrics::Histogram latency;  // 16-resume batch means of bd.total()
  std::uint64_t alloc_violations = 0;
  std::uint64_t alloc_checked = 0;
  core::ResumeCycleStats cycles;
};

ArmResult run_arm(const Arm& arm, int reps, bool strict_alloc) {
  sched::CpuTopology topology(8);
  core::HorseConfig config;
  config.num_ull_runqueues = 1;  // both sandboxes share one queue
  config.cycle_timing = arm.cycle_timing;
  config.branchless_walk = arm.branchless_walk;
  config.epoch_reclaim = arm.epoch_reclaim;
  // The timed resume runs the engine's sorted-walk merge (no 𝒫²𝒮ℳ): that
  // walk is the path the branchless/single-lock rewrite transforms, and
  // it is also the kHorse degradation rung every resume must survive.
  // The 𝒫²𝒮ℳ splice is already O(runs) pointer writes (~0.8 µs at this
  // size, E4/fig3 track it); ablating the walk arms there measures noise.
  // The churn arm times the 𝒫²𝒮ℳ path: journal repair plus splice.
  core::HorseResumeEngine engine(
      topology, vmm::VmmProfile::firecracker(), config,
      arm.churn ? core::HorseFeatures::all()
                : core::HorseFeatures::coalescing_only());

  vmm::SandboxConfig sandbox_config;
  sandbox_config.num_vcpus = kVcpus;
  sandbox_config.memory_mb = 1;
  sandbox_config.ull = true;
  sandbox_config.name = "resident";
  vmm::Sandbox resident(9'001, sandbox_config);
  sandbox_config.name = "probe";
  vmm::Sandbox probe(9'002, sandbox_config);

  // Interleaved credits: resident 0,2000,4000,... / probe 1000,3000,...
  // so every merge fragments into kVcpus runs (worst-case splice count).
  (void)engine.start(resident);
  for (std::uint32_t i = 0; i < kVcpus; ++i) {
    resident.vcpu(i).credit = 2'000 * static_cast<sched::Credit>(i);
  }
  (void)engine.start(probe);
  for (std::uint32_t i = 0; i < kVcpus; ++i) {
    probe.vcpu(i).credit = 2'000 * static_cast<sched::Credit>(i) + 1'000;
  }
  sandbox_config.num_vcpus = kChurnVcpus;
  sandbox_config.name = "churn";
  vmm::Sandbox churn(9'003, sandbox_config);
  if (arm.churn) {
    (void)engine.start(churn);
    for (std::uint32_t i = 0; i < kChurnVcpus; ++i) {
      churn.vcpu(i).credit = 8'000 * static_cast<sched::Credit>(i) + 500;
    }
    (void)engine.pause(churn);
  }
  (void)engine.pause(resident);
  (void)engine.pause(probe);
  // The resident stays runnable on the reserved queue from here on.
  (void)engine.resume(resident);

  ArmResult result;
  result.name = arm.name;
  std::uint64_t warmup_fallbacks = 0;
  util::Nanos batch_sum = 0;
  int batch_count = 0;
  for (int rep = 0; rep < reps; ++rep) {
    if (rep == kWarmupReps) {
      // First-touch index builds may legitimately take the fallback walk
      // during warmup; only the measured reps must stay on the fast path.
      warmup_fallbacks = engine.degradation_stats().fallback_merges;
    }
    (void)engine.pause(probe);
    if (arm.churn) {
      // Untimed: the churn splices in and parks again, staling the probe's
      // freshly built index by 2 × kChurnVcpus journal entries.
      (void)engine.resume(churn);
      (void)engine.pause(churn);
    }
    vmm::ResumeBreakdown bd;
    const std::uint64_t allocs_before = util::thread_alloc_count();
    const util::Status status = engine.resume(probe, &bd);
    const std::uint64_t allocs_after = util::thread_alloc_count();
    if (!status.is_ok()) {
      std::cerr << arm.name << ": resume failed: " << status.to_report()
                << "\n";
      std::exit(2);
    }
    if (rep < kWarmupReps) {
      continue;
    }
    batch_sum += bd.total();
    if (++batch_count == kBatchReps) {
      result.latency.record(batch_sum / kBatchReps);
      batch_sum = 0;
      batch_count = 0;
    }
    if (strict_alloc) {
      ++result.alloc_checked;
      if (allocs_after != allocs_before) {
        ++result.alloc_violations;
      }
    }
  }
  const core::ResumeDegradationStats deg = engine.degradation_stats();
  if (deg.fallback_merges != warmup_fallbacks) {
    // A degraded measured sample would mean the arms timed different paths.
    std::cerr << arm.name << ": " << deg.fallback_merges - warmup_fallbacks
              << " degraded resume(s) in the measured reps; arm results not "
                 "comparable\n";
    std::exit(2);
  }
  if (arm.churn &&
      deg.inline_repairs < static_cast<std::uint64_t>(reps - kWarmupReps)) {
    std::cerr << arm.name << ": only " << deg.inline_repairs
              << " inline repair(s); the churn did not stale the probe\n";
    std::exit(2);
  }
  result.cycles = engine.cycle_stats();
  if (arm.churn) {
    (void)engine.destroy(churn);
  }
  (void)engine.destroy(probe);
  (void)engine.destroy(resident);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 16'384;
  // --advisory-perf-gate: report the p99-reduction gate but do not fail
  // on it — for shared CI runners whose noisy neighbours make a relative
  // perf threshold flaky. The zero-alloc gate is deterministic and stays
  // hard in both modes.
  bool advisory_perf_gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--size") == 0 && i + 1 < argc) {
      reps = std::strcmp(argv[i + 1], "small") == 0 ? 4'096 : 16'384;
      ++i;
    } else if (std::strcmp(argv[i], "--advisory-perf-gate") == 0) {
      advisory_perf_gate = true;
    }
  }

  {
    // Canary: the zero-alloc gate is meaningless if the counting
    // operator new is not linked into this binary. Call operator new
    // through a volatile pointer — -O3 may elide a paired new/delete
    // expression (and did, for make_unique here), which reads as a
    // dead hook.
    const std::uint64_t before = util::thread_alloc_count();
    void* (*volatile raw_new)(std::size_t) = ::operator new;
    ::operator delete(raw_new(sizeof(int)));
    if (util::thread_alloc_count() == before) {
      std::cerr << "alloc hook not live in this binary\n";
      return 2;
    }
  }

  std::vector<ArmResult> results;
  for (const Arm& arm : kArms) {
    results.push_back(run_arm(arm, reps, /*strict_alloc=*/arm.cycle_timing &&
                                             arm.branchless_walk &&
                                             arm.epoch_reclaim));
  }
  const ArmResult& scalar = results[0];
  const ArmResult& all = results[4];
  const ArmResult& churn = results[5];

  metrics::TextTable table(
      "E22: resume hot-path ablation (ns over 16-resume batch means, " +
          std::to_string(results.front().latency.count()) + " samples/arm)",
      {"arm", "p50", "p99", "p999", "max"});
  metrics::CsvWriter csv(
      {"arm", "p50_ns", "p99_ns", "p999_ns", "mean_ns", "resumes"});
  for (const ArmResult& r : results) {
    table.add_row({r.name, metrics::format_nanos(r.latency.p50()),
                   metrics::format_nanos(r.latency.p99()),
                   metrics::format_nanos(r.latency.p999()),
                   metrics::format_nanos(r.latency.max())});
    csv.add_row({r.name, std::to_string(r.latency.p50()),
                 std::to_string(r.latency.p99()),
                 std::to_string(r.latency.p999()),
                 std::to_string(r.latency.mean()),
                 std::to_string(r.latency.count())});
  }
  table.print(std::cout);

  // Per-stage cycle budget from the all-on arm (tentpole item 1).
  const core::ResumeCycleStats& cs = all.cycles;
  if (cs.resumes > 0) {
    const auto per_stage = [&](std::uint64_t cycles) {
      return metrics::format_nanos(static_cast<double>(
          util::CycleClock::cycles_to_nanos(cycles / cs.resumes)));
    };
    metrics::TextTable stages("Cycle budget per stage (mean ns, all arm)",
                              {"prologue", "lookup", "splice", "publish"});
    stages.add_row({per_stage(cs.prologue_cycles), per_stage(cs.lookup_cycles),
                    per_stage(cs.splice_cycles), per_stage(cs.publish_cycles)});
    stages.print(std::cout);
    std::cout << "resume cycles p99: " << cs.total_cycles.p99() << " ("
              << metrics::format_nanos(static_cast<double>(
                     util::CycleClock::cycles_to_nanos(cs.total_cycles.p99())))
              << ")\n";
  } else {
    std::cout << "cycle accounting unavailable (no TSC on this target)\n";
  }

  const auto csv_status = csv.write_file("abl_resume_hotpath.csv");
  if (csv_status.is_ok()) {
    std::cout << "wrote abl_resume_hotpath.csv\n";
  }

  // --- gates ---------------------------------------------------------------
  const double scalar_p99 = static_cast<double>(scalar.latency.p99());
  const double all_p99 = static_cast<double>(all.latency.p99());
  const double reduction = 1.0 - all_p99 / scalar_p99;
  std::cout << "\np99 scalar=" << metrics::format_nanos(scalar_p99)
            << " all=" << metrics::format_nanos(all_p99)
            << " reduction=" << metrics::format_percent(reduction, 1)
            << " (gate: >= 20%)\n";
  for (const ArmResult* r : {&all, &churn}) {
    std::cout << "strict-alloc: " << r->name << " arm, " << r->alloc_checked
              << " resumes checked, " << r->alloc_violations
              << " violation(s)\n";
  }

  bool failed = false;
  if (reduction < 0.20) {
    if (advisory_perf_gate) {
      std::cerr << "GATE MISSED (advisory): p99 reduction below 20%\n";
    } else {
      std::cerr << "GATE FAILED: p99 reduction below 20%\n";
      failed = true;
    }
  }
  for (const ArmResult* r : {&all, &churn}) {
    if (r->alloc_checked == 0 || r->alloc_violations != 0) {
      std::cerr << "GATE FAILED: allocations on the timed resume path ("
                << r->name << " arm)\n";
      failed = true;
    }
  }
  return failed ? 1 : 0;
}
