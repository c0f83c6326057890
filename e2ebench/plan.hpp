// Seeded workload plans for the end-to-end invoke benchmark.
//
// A plan is everything a run submits, derived from (workload, seed) alone:
// the functions and workflow chains to register, a pool of request variants
// per target, the reference response for every variant (computed on a
// separate instance of the same workload implementation), and a cyclic
// arrival schedule. The program under test only ever sees the generated
// requests; nothing in a plan depends on wall-clock time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "faas/platform.hpp"
#include "faas/registry.hpp"
#include "util/time.hpp"
#include "workloads/function.hpp"

namespace e2e {

using horse::util::Nanos;

enum class Kind : std::uint8_t { kNat, kFirewall, kFilter, kBurner };

struct FunctionPlan {
  std::string name;
  Kind kind = Kind::kNat;
  bool ull = true;
  std::uint32_t vcpus = 1;
  std::uint32_t memory_mb = 1;
  /// Seeds the implementation's rule tables (NAT, firewall).
  std::uint64_t impl_seed = 0;
  /// Provisioned pool floor per host (0 = none: the pool only holds what
  /// keep-alive retains).
  std::size_t provision = 0;
};

/// firewall -> nat -> array_filter, registered as one workflow.
struct ChainPlan {
  std::string name;
  std::vector<std::uint32_t> stages;  // indexes into WorkloadPlan::functions
  /// firewall -> nat edge is kGated: a denial completes the chain early.
  bool gated = false;
};

/// What a correct run must answer for one request variant.
struct Expected {
  horse::workloads::Response response;
  /// Stage bodies the chain runs (1 for a plain function).
  std::uint32_t stages = 1;
};

struct Arrival {
  /// Gap to the previous arrival at the nominal rate (open loop).
  Nanos gap = 0;
  /// Logical trace time (azure_mix); 0 for the synthetic Poisson mixes.
  Nanos logical = 0;
  /// Function index, or chain index when the plan has chains.
  std::uint32_t target = 0;
  std::uint32_t variant = 0;
};

struct WorkloadPlan {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<FunctionPlan> functions;
  /// Non-empty: every arrival names a chain and goes through submit_chain.
  std::vector<ChainPlan> chains;
  /// requests[target][variant], expected[target][variant] and
  /// fingerprints[target][variant] are parallel.
  std::vector<std::vector<horse::workloads::Request>> requests;
  std::vector<std::vector<Expected>> expected;
  std::vector<std::vector<std::uint64_t>> fingerprints;
  /// Replayed cyclically; lap k adds k * logical_span to logical times.
  std::vector<Arrival> schedule;
  Nanos logical_span = 0;
  /// Logical-clock granularity of ClusterScheduler::advance_time (0 = the
  /// workload never advances logical time).
  Nanos tick = 0;
  /// Open-loop nominal arrival rate, requests per second.
  double rate_per_s = 0;
  /// Closed-loop outstanding-submission window.
  std::size_t window = 0;

  [[nodiscard]] bool has_chains() const noexcept { return !chains.empty(); }
  /// The warmest start a front end asks for: uLL -> kHorse, else kWarm.
  [[nodiscard]] horse::faas::StartMode mode_for(std::uint32_t target) const;
};

/// The workloads this benchmark knows, in the order `all` runs them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build the plan for `workload` from `seed`. Throws std::invalid_argument
/// for an unknown workload name.
[[nodiscard]] WorkloadPlan make_plan(std::string_view workload,
                                     std::uint64_t seed);

/// The workload implementation a function plan registers. Called once per
/// host and once more for the reference instance; equal plans give
/// implementations with identical behaviour.
[[nodiscard]] std::shared_ptr<horse::workloads::Function> make_impl(
    const FunctionPlan& plan);

[[nodiscard]] horse::faas::FunctionSpec make_spec(
    const FunctionPlan& plan,
    std::shared_ptr<horse::workloads::Function> implementation);

/// Cheap identity of a request's content, used to match function-body
/// executions to submissions in the traced run.
[[nodiscard]] std::uint64_t fingerprint(
    const horse::workloads::Request& request) noexcept;

/// Field-by-field response equality (allowed, header, indexes, checksum).
[[nodiscard]] bool same_response(const horse::workloads::Response& a,
                                 const horse::workloads::Response& b) noexcept;

}  // namespace e2e
