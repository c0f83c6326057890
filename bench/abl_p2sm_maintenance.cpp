// E17 (maintenance-cost ablation, ours) — the rebuild storm, measured.
//
// N co-resident paused sandboxes all index the same reserved
// ull_runqueue. Every structural mutation of the queue stales all N
// indexes at once; before this PR each of them answered with an
// O(|A|+|B|) rebuild — N full rebuilds per mutation. The journal-backed
// repair() answers with O(runs + delta) work instead.
//
// This harness sweeps N ∈ {1, 4, 16, 64} × mutation-batch size (how many
// queue mutations land between maintenance rounds; all within the
// journal window) and reports, per strategy, the per-mutation
// maintenance cost plus the O(1) splice-merge latency the maintained
// index buys. Output: text table, optional CSV (--csv PATH), and a JSON
// summary (default BENCH_p2sm_maintenance.json, --json PATH) for CI.
//
// The binary compiles src/util/alloc_hook.cpp (counting operator
// new/delete), so it can also assert the tentpole's allocation claim:
// with --strict-alloc it exits non-zero if the steady-state repair or
// merge phases touch the heap at all.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/p2sm.hpp"
#include "metrics/csv.hpp"
#include "metrics/reporter.hpp"
#include "sched/run_queue.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace {

using namespace horse;

constexpr std::uint32_t kVcpusPerSandbox = 8;
// The reserved ull_runqueue aggregates the runnable vCPUs of every
// resident uLL function, so rebuild's O(|B|) term is what the storm
// multiplies by N; size it like a busy reserved queue, not a toy one.
constexpr std::size_t kQueueOccupancy = 256;
constexpr int kTimedRounds = 256;
constexpr int kMergeReps = 64;

struct Options {
  std::vector<std::size_t> sandbox_counts{1, 4, 16, 64};
  std::string csv_path;
  std::string json_path = "BENCH_p2sm_maintenance.json";
  bool strict_alloc = false;
};

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--only-n") {
      options.sandbox_counts = {static_cast<std::size_t>(std::stoul(next()))};
    } else if (arg == "--csv") {
      options.csv_path = next();
    } else if (arg == "--json") {
      options.json_path = next();
    } else if (arg == "--strict-alloc") {
      options.strict_alloc = true;
    } else {
      std::cerr << "usage: abl_p2sm_maintenance [--only-n N] [--csv PATH]\n"
                   "    [--json PATH] [--strict-alloc]\n";
      std::exit(2);
    }
  }
  return options;
}

/// One paused uLL sandbox: owned vCPU storage + the sorted merge list.
struct PausedSandbox {
  std::vector<std::unique_ptr<sched::Vcpu>> storage;
  sched::VcpuList merge_vcpus;
  core::P2smIndex index;

  explicit PausedSandbox(std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    std::vector<sched::Credit> credits;
    for (std::uint32_t i = 0; i < kVcpusPerSandbox; ++i) {
      credits.push_back(static_cast<sched::Credit>(rng.bounded(1'000'000)));
    }
    std::sort(credits.begin(), credits.end());
    for (const auto credit : credits) {
      auto vcpu = std::make_unique<sched::Vcpu>();
      vcpu->credit = credit;
      merge_vcpus.push_back(*vcpu);
      storage.push_back(std::move(vcpu));
    }
  }
  ~PausedSandbox() { merge_vcpus.clear(); }
};

struct Row {
  std::size_t sandboxes = 0;
  std::size_t batch = 0;
  double rebuild_ns_per_mutation = 0.0;
  double repair_ns_per_mutation = 0.0;
  double speedup = 0.0;
  double merge_ns = 0.0;
  std::uint64_t steady_state_allocs = 0;
};

/// The mutation source: a pool of churn vCPUs inserted into / removed
/// from the queue in alternating half-rounds, keeping the queue size
/// oscillating around its initial occupancy.
class MutationDriver {
 public:
  MutationDriver(sched::RunQueue& queue, std::size_t batch)
      : queue_(queue), batch_(batch) {
    util::Xoshiro256 rng(99);
    for (std::size_t i = 0; i < batch; ++i) {
      auto vcpu = std::make_unique<sched::Vcpu>();
      vcpu->credit = static_cast<sched::Credit>(rng.bounded(1'000'000));
      pool_.push_back(std::move(vcpu));
    }
  }

  /// Apply one batch of journalled structural mutations.
  void step() {
    if (inserted_) {
      for (auto& vcpu : pool_) {
        queue_.remove(*vcpu);
      }
    } else {
      for (auto& vcpu : pool_) {
        queue_.insert_sorted(*vcpu);
      }
    }
    inserted_ = !inserted_;
  }

  /// Leave the queue the way the constructor found it.
  void drain() {
    if (inserted_) {
      step();
    }
  }

  [[nodiscard]] std::size_t batch() const noexcept { return batch_; }

 private:
  sched::RunQueue& queue_;
  std::size_t batch_;
  std::vector<std::unique_ptr<sched::Vcpu>> pool_;
  bool inserted_ = false;
};

Row run_cell(std::size_t n_sandboxes, std::size_t batch) {
  Row row;
  row.sandboxes = n_sandboxes;
  row.batch = batch;

  sched::RunQueue queue(0);
  std::vector<std::unique_ptr<sched::Vcpu>> occupants;
  util::Xoshiro256 rng(7);
  for (std::size_t i = 0; i < kQueueOccupancy; ++i) {
    auto vcpu = std::make_unique<sched::Vcpu>();
    vcpu->credit = static_cast<sched::Credit>(rng.bounded(1'000'000));
    queue.insert_sorted(*vcpu);
    occupants.push_back(std::move(vcpu));
  }

  std::vector<std::unique_ptr<PausedSandbox>> sandboxes;
  for (std::size_t s = 0; s < n_sandboxes; ++s) {
    sandboxes.push_back(std::make_unique<PausedSandbox>(1000 + s));
    sandboxes.back()->index.rebuild(sandboxes.back()->merge_vcpus, queue);
  }

  MutationDriver driver(queue, batch);
  const double mutations_per_round = static_cast<double>(batch);

  // --- strategy 1: full rebuild of every co-resident index ---------------
  driver.step();  // warm-up round (also sizes every arena)
  for (auto& sandbox : sandboxes) {
    sandbox->index.rebuild(sandbox->merge_vcpus, queue);
  }
  util::Nanos rebuild_total = 0;
  for (int round = 0; round < kTimedRounds; ++round) {
    driver.step();
    util::Stopwatch watch;
    for (auto& sandbox : sandboxes) {
      sandbox->index.rebuild(sandbox->merge_vcpus, queue);
    }
    rebuild_total += watch.elapsed();
  }
  row.rebuild_ns_per_mutation = static_cast<double>(rebuild_total) /
                                (kTimedRounds * mutations_per_round);

  // --- strategy 2: journal repair of every co-resident index -------------
  driver.step();  // warm-up
  for (auto& sandbox : sandboxes) {
    if (!sandbox->index.repair(sandbox->merge_vcpus, queue).is_ok()) {
      sandbox->index.rebuild(sandbox->merge_vcpus, queue);
    }
  }
  util::Nanos repair_total = 0;
  std::uint64_t allocs_before = util::thread_alloc_count();
  std::size_t repair_fallbacks = 0;
  for (int round = 0; round < kTimedRounds; ++round) {
    driver.step();
    util::Stopwatch watch;
    for (auto& sandbox : sandboxes) {
      if (!sandbox->index.repair(sandbox->merge_vcpus, queue).is_ok()) {
        sandbox->index.rebuild(sandbox->merge_vcpus, queue);
        ++repair_fallbacks;
      }
    }
    repair_total += watch.elapsed();
  }
  row.steady_state_allocs = util::thread_alloc_count() - allocs_before;
  row.repair_ns_per_mutation = static_cast<double>(repair_total) /
                               (kTimedRounds * mutations_per_round);
  row.speedup = row.repair_ns_per_mutation > 0.0
                    ? row.rebuild_ns_per_mutation / row.repair_ns_per_mutation
                    : 0.0;
  if (repair_fallbacks > 0) {
    std::cerr << "warning: " << repair_fallbacks
              << " repair fallbacks in the timed loop (N=" << n_sandboxes
              << ", batch=" << batch << ")\n";
  }
  driver.drain();

  // --- merge latency off the maintained index ----------------------------
  // What the maintenance pays for: sandbox 0's O(#runs) splice. The index
  // is re-prepared outside the timed region; un-splicing restores the
  // queue between reps. Warm-up rep first.
  PausedSandbox& subject = *sandboxes.front();
  auto unsplice = [&queue, &subject] {
    for (auto& vcpu : subject.storage) {
      queue.remove(*vcpu);
      auto it = subject.merge_vcpus.begin();
      while (it != subject.merge_vcpus.end() && it->credit <= vcpu->credit) {
        ++it;
      }
      subject.merge_vcpus.insert(it, *vcpu);
    }
  };
  // Warm-up cycle outside the alloc window.
  subject.index.rebuild(subject.merge_vcpus, queue);
  (void)subject.index.merge(subject.merge_vcpus, queue);
  unsplice();

  util::Nanos merge_total = 0;
  allocs_before = util::thread_alloc_count();
  for (int rep = 0; rep < kMergeReps; ++rep) {
    subject.index.rebuild(subject.merge_vcpus, queue);
    util::Stopwatch watch;
    (void)subject.index.merge(subject.merge_vcpus, queue);
    merge_total += watch.elapsed();
    unsplice();
  }
  row.steady_state_allocs += util::thread_alloc_count() - allocs_before;
  row.merge_ns = static_cast<double>(merge_total) / kMergeReps;
  return row;
}

void write_json(const std::vector<Row>& rows, const std::string& path) {
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"p2sm_maintenance\",\n"
       << "  \"queue_occupancy\": " << kQueueOccupancy << ",\n"
       << "  \"vcpus_per_sandbox\": " << kVcpusPerSandbox << ",\n"
       << "  \"journal_capacity\": " << sched::RunQueue::kJournalCapacity
       << ",\n"
       << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << "    {\"sandboxes\": " << row.sandboxes
         << ", \"mutation_batch\": " << row.batch
         << ", \"rebuild_ns_per_mutation\": "
         << metrics::format_double(row.rebuild_ns_per_mutation, 1)
         << ", \"repair_ns_per_mutation\": "
         << metrics::format_double(row.repair_ns_per_mutation, 1)
         << ", \"speedup\": " << metrics::format_double(row.speedup, 2)
         << ", \"merge_ns\": " << metrics::format_double(row.merge_ns, 1)
         << ", \"steady_state_allocs\": " << row.steady_state_allocs << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "json write failed: cannot open " << path << "\n";
    return;
  }
  out << json.str();
  std::cout << "json written to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);

  metrics::TextTable table(
      "E17 — P2SM maintenance: delta repair vs full rebuild per queue "
      "mutation",
      {"sandboxes", "batch", "rebuild/mutation", "repair/mutation", "speedup",
       "merge latency", "allocs"});
  std::vector<Row> rows;
  for (const std::size_t n : options.sandbox_counts) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8},
                                    std::size_t{32}}) {
      const Row row = run_cell(n, batch);
      rows.push_back(row);
      table.add_row({std::to_string(row.sandboxes), std::to_string(row.batch),
                     metrics::format_nanos(row.rebuild_ns_per_mutation),
                     metrics::format_nanos(row.repair_ns_per_mutation),
                     metrics::format_double(row.speedup, 1) + "x",
                     metrics::format_nanos(row.merge_ns),
                     std::to_string(row.steady_state_allocs)});
    }
  }
  table.print(std::cout);

  if (!options.csv_path.empty()) {
    metrics::CsvWriter csv({"sandboxes", "mutation_batch",
                            "rebuild_ns_per_mutation", "repair_ns_per_mutation",
                            "speedup", "merge_ns", "steady_state_allocs"});
    for (const Row& row : rows) {
      csv.add_numeric_row({static_cast<double>(row.sandboxes),
                           static_cast<double>(row.batch),
                           row.rebuild_ns_per_mutation,
                           row.repair_ns_per_mutation, row.speedup,
                           row.merge_ns,
                           static_cast<double>(row.steady_state_allocs)});
    }
    if (const auto status = csv.write_file(options.csv_path);
        !status.is_ok()) {
      std::cerr << "csv write failed: " << status.to_report() << "\n";
    } else {
      std::cout << "csv written to " << options.csv_path << "\n";
    }
  }
  write_json(rows, options.json_path);

  if (options.strict_alloc) {
    std::uint64_t total_allocs = 0;
    for (const Row& row : rows) {
      total_allocs += row.steady_state_allocs;
    }
    if (total_allocs > 0) {
      std::cerr << "STRICT-ALLOC FAILURE: " << total_allocs
                << " heap allocations in steady-state repair/merge loops\n";
      return 1;
    }
    std::cout << "strict-alloc: steady-state repair and merge loops touched "
                 "the heap 0 times\n";
  }
  return 0;
}
