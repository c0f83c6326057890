// E8 — ablation micro-benchmarks for 𝒫²𝒮ℳ (google-benchmark).
//
// Measures the costs the paper's complexity analysis (§4.1.1-4.1.2)
// claims: O(1)-in-list-size merge (O(#runs) splices), the O(|B|) vanilla
// per-vCPU sorted merge it replaces, precompute rebuild cost, and
// steady-state incremental maintenance.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/p2sm.hpp"
#include "util/rng.hpp"

namespace {

using namespace horse;

struct Lists {
  std::vector<std::unique_ptr<sched::Vcpu>> storage;
  sched::VcpuList a;
  std::unique_ptr<sched::RunQueue> b;

  Lists(std::size_t a_size, std::size_t b_size, std::uint64_t seed) {
    b = std::make_unique<sched::RunQueue>(0);
    util::Xoshiro256 rng(seed);
    std::vector<sched::Credit> b_credits;
    for (std::size_t i = 0; i < b_size; ++i) {
      b_credits.push_back(static_cast<sched::Credit>(rng.bounded(1'000'000)));
    }
    std::sort(b_credits.begin(), b_credits.end());
    for (const auto credit : b_credits) {
      auto vcpu = std::make_unique<sched::Vcpu>();
      vcpu->credit = credit;
      // Pre-sorted: push_back keeps construction O(B) instead of O(B^2).
      b->push_back(*vcpu);
      storage.push_back(std::move(vcpu));
    }
    std::vector<sched::Credit> a_credits;
    for (std::size_t i = 0; i < a_size; ++i) {
      a_credits.push_back(static_cast<sched::Credit>(rng.bounded(1'000'000)));
    }
    std::sort(a_credits.begin(), a_credits.end());
    for (const auto credit : a_credits) {
      auto vcpu = std::make_unique<sched::Vcpu>();
      vcpu->credit = credit;
      a.push_back(*vcpu);
      storage.push_back(std::move(vcpu));
    }
  }

  ~Lists() {
    a.clear();
    b->list().clear();
  }
};

/// The merge phase alone (index prebuilt): the paper's O(1) claim. List
/// construction and teardown are excluded from the timed region.
void BM_P2smMergePhase(benchmark::State& state) {
  const auto a_size = static_cast<std::size_t>(state.range(0));
  const auto b_size = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    auto lists = std::make_unique<Lists>(a_size, b_size, 42);
    core::P2smIndex index;
    index.rebuild(lists->a, *lists->b);
    state.ResumeTiming();

    benchmark::DoNotOptimize(index.merge(lists->a, *lists->b));

    state.PauseTiming();
    lists.reset();  // O(|A|+|B|) teardown outside the timed region
    state.ResumeTiming();
  }
  state.SetLabel("A=" + std::to_string(a_size) + " B=" + std::to_string(b_size));
}
BENCHMARK(BM_P2smMergePhase)
    ->Args({1, 16})
    ->Args({8, 16})
    ->Args({36, 16})
    ->Args({36, 256})
    ->Args({36, 4096})
    ->Args({512, 4096});

/// The vanilla alternative: per-element sorted walks into the same queue.
void BM_VanillaSortedMerge(benchmark::State& state) {
  const auto a_size = static_cast<std::size_t>(state.range(0));
  const auto b_size = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    auto lists = std::make_unique<Lists>(a_size, b_size, 42);
    state.ResumeTiming();

    while (lists->a.size() > 0) {
      sched::Vcpu& vcpu = lists->a.pop_front();
      util::LockGuard guard(lists->b->lock());
      lists->b->insert_sorted(vcpu);
    }
    benchmark::ClobberMemory();

    state.PauseTiming();
    lists.reset();
    state.ResumeTiming();
  }
  state.SetLabel("A=" + std::to_string(a_size) + " B=" + std::to_string(b_size));
}
BENCHMARK(BM_VanillaSortedMerge)
    ->Args({1, 16})
    ->Args({8, 16})
    ->Args({36, 16})
    ->Args({36, 256})
    ->Args({36, 4096});

/// Precompute rebuild cost (amortised off the resume path): O(|A|+|B|).
void BM_P2smRebuild(benchmark::State& state) {
  const auto a_size = static_cast<std::size_t>(state.range(0));
  const auto b_size = static_cast<std::size_t>(state.range(1));
  Lists lists(a_size, b_size, 42);
  core::P2smIndex index;
  for (auto _ : state) {
    index.rebuild(lists.a, *lists.b);
    benchmark::DoNotOptimize(index.run_count());
  }
}
BENCHMARK(BM_P2smRebuild)->Args({36, 16})->Args({36, 256})->Args({36, 4096});

/// Steady-state incremental maintenance: one insert + one remove per
/// iteration against a fixed-size A (paper: O(n) insert, O(m) remove).
void BM_P2smIncrementalInsertRemove(benchmark::State& state) {
  const auto b_size = static_cast<std::size_t>(state.range(0));
  Lists lists(64, b_size, 42);
  core::P2smIndex index;
  index.rebuild(lists.a, *lists.b);
  util::Xoshiro256 rng(7);
  auto probe = std::make_unique<sched::Vcpu>();
  for (auto _ : state) {
    probe->credit = static_cast<sched::Credit>(rng.bounded(1'000'000));
    benchmark::DoNotOptimize(index.insert_into_a(lists.a, *probe, *lists.b));
    benchmark::DoNotOptimize(index.remove_from_a(lists.a, *probe));
  }
}
BENCHMARK(BM_P2smIncrementalInsertRemove)->Arg(16)->Arg(256)->Arg(4096);

/// Splice execution across run counts: |A| = |B| = runs, so nearly every
/// A node lands in its own gap and the merge issues ~runs splices from the
/// calling thread.
void BM_SpliceExecution(benchmark::State& state) {
  const auto runs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto lists = std::make_unique<Lists>(runs, runs, 99);
    core::P2smIndex index;
    index.rebuild(lists->a, *lists->b);
    state.ResumeTiming();

    benchmark::DoNotOptimize(index.merge(lists->a, *lists->b));

    state.PauseTiming();
    lists.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SpliceExecution)->Arg(1)->Arg(8)->Arg(36);

}  // namespace

BENCHMARK_MAIN();
