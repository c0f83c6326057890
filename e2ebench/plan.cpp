#include "plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "trace/synthetic.hpp"
#include "util/rng.hpp"
#include "workloads/array_filter.hpp"
#include "workloads/cpu_burner.hpp"
#include "workloads/firewall.hpp"
#include "workloads/nat.hpp"

namespace e2e {

namespace faas = horse::faas;
namespace util = horse::util;
namespace workloads = horse::workloads;

namespace {

// Enough variants per target that the mean work per request hardly
// depends on the seed.
constexpr std::size_t kVariants = 256;
constexpr std::size_t kFilterPayload = 256;
constexpr std::size_t kNatRandomRules = 256;
constexpr std::size_t kNatKnownRules = 32;
constexpr std::size_t kFirewallRandomRules = 128;
constexpr std::size_t kFirewallAllowRules = 16;
// Synthetic mixes replay a cyclic schedule this long.
constexpr std::size_t kScheduleLength = std::size_t{1} << 17;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) noexcept {
  return util::SplitMix64(seed * 0x9e3779b97f4a7c15ULL + stream).next();
}

std::string ipv4(std::uint32_t a) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", a >> 24, (a >> 16) & 0xff,
                (a >> 8) & 0xff, a & 0xff);
  return buf;
}

std::string header(std::uint32_t src, std::uint32_t dst, std::uint16_t port,
                   bool tcp) {
  return "src=" + ipv4(src) + " dst=" + ipv4(dst) +
         " port=" + std::to_string(port) + (tcp ? " proto=tcp" : " proto=udp");
}

struct NatKey {
  std::uint32_t dst = 0;
  std::uint16_t port = 0;
};

// The (dst, port) pairs a NAT function has explicit rules for, so requests
// can hit the rule table as often as the plan wants.
std::vector<NatKey> nat_known_keys(std::uint64_t impl_seed) {
  util::Xoshiro256 rng(mix(impl_seed, 1));
  std::vector<NatKey> keys(kNatKnownRules);
  for (NatKey& key : keys) {
    key.dst = static_cast<std::uint32_t>(rng());
    key.port = static_cast<std::uint16_t>(1 + rng.bounded(65535));
  }
  return keys;
}

std::vector<workloads::FirewallRule> firewall_allow_rules(
    std::uint64_t impl_seed) {
  util::Xoshiro256 rng(mix(impl_seed, 2));
  std::vector<workloads::FirewallRule> rules(kFirewallAllowRules);
  for (workloads::FirewallRule& rule : rules) {
    rule.src_mask = 0xffff0000U;
    rule.src_prefix = static_cast<std::uint32_t>(rng()) & rule.src_mask;
    rule.dst_addr = static_cast<std::uint32_t>(rng());
    rule.port_lo = static_cast<std::uint16_t>(1000 + rng.bounded(59000));
    rule.port_hi = static_cast<std::uint16_t>(rule.port_lo + 100);
    rule.proto = rng.bounded(2) == 0 ? 6 : 17;
  }
  return rules;
}

std::string nat_header(std::uint64_t impl_seed, util::Xoshiro256& rng) {
  const auto src = static_cast<std::uint32_t>(rng());
  const bool tcp = rng.bounded(2) == 0;
  if (rng.uniform01() < 0.7) {
    const std::vector<NatKey> keys = nat_known_keys(impl_seed);
    const NatKey& key = keys[rng.bounded(keys.size())];
    return header(src, key.dst, key.port, tcp);
  }
  return header(src, static_cast<std::uint32_t>(rng()),
                static_cast<std::uint16_t>(1 + rng.bounded(65535)), tcp);
}

// Three of four headers match an allow rule; the rest are random and are
// (almost surely) denied.
std::string firewall_header(std::uint64_t impl_seed, util::Xoshiro256& rng) {
  if (rng.uniform01() < 0.75) {
    const std::vector<workloads::FirewallRule> rules =
        firewall_allow_rules(impl_seed);
    const workloads::FirewallRule& rule = rules[rng.bounded(rules.size())];
    const auto src = rule.src_prefix |
                     (static_cast<std::uint32_t>(rng()) & ~rule.src_mask);
    const auto port = static_cast<std::uint16_t>(
        rule.port_lo + rng.bounded(rule.port_hi - rule.port_lo + 1U));
    return header(src, rule.dst_addr, port, rule.proto == 6);
  }
  return header(static_cast<std::uint32_t>(rng()),
                static_cast<std::uint32_t>(rng()),
                static_cast<std::uint16_t>(1 + rng.bounded(65535)),
                rng.bounded(2) == 0);
}

void fill_filter(workloads::Request& request, util::Xoshiro256& rng) {
  request.payload.resize(kFilterPayload);
  for (std::int32_t& value : request.payload) {
    value = static_cast<std::int32_t>(rng.bounded(1'000'000));
  }
  request.threshold = static_cast<std::int32_t>(rng.bounded(1'000'000));
}

workloads::Request make_request(const FunctionPlan& plan,
                                util::Xoshiro256& rng) {
  workloads::Request request;
  switch (plan.kind) {
    case Kind::kNat:
      request.header = nat_header(plan.impl_seed, rng);
      break;
    case Kind::kFirewall:
      request.header = firewall_header(plan.impl_seed, rng);
      break;
    case Kind::kFilter:
      fill_filter(request, rng);
      break;
    case Kind::kBurner:
      request.threshold = static_cast<std::int32_t>(200 + rng.bounded(1800));
      break;
  }
  return request;
}

/// Cumulative Zipf(s) weights over ranks 1..n.
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  for (double& c : cdf) {
    c /= total;
  }
  return cdf;
}

std::uint32_t draw(const std::vector<double>& cdf, util::Xoshiro256& rng) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform01());
  return static_cast<std::uint32_t>(
      std::min<std::ptrdiff_t>(it - cdf.begin(),
                               static_cast<std::ptrdiff_t>(cdf.size()) - 1));
}

/// Poisson arrivals at `rate`, targets drawn from a Zipf(s) popularity.
std::vector<Arrival> poisson_schedule(std::size_t targets, double zipf_s,
                                      double rate, std::uint64_t seed) {
  util::Xoshiro256 rng(mix(seed, 3));
  const std::vector<double> cdf = zipf_cdf(targets, zipf_s);
  const double rate_per_ns = rate / 1e9;
  std::vector<Arrival> schedule(kScheduleLength);
  for (Arrival& arrival : schedule) {
    arrival.gap = static_cast<Nanos>(rng.exponential(rate_per_ns));
    arrival.target = draw(cdf, rng);
    arrival.variant = static_cast<std::uint32_t>(rng.bounded(kVariants));
  }
  return schedule;
}

// --- the three mixes --------------------------------------------------------

// 16 uLL functions (NAT / firewall / array filter) in 2-8 vCPU sandboxes,
// Zipf popularity, every request kHorse. Pools are provisioned deeper than
// one worker per host can ever drain, so nothing misses: the mix isolates
// dispatcher -> platform -> HORSE resume.
WorkloadPlan ull_steady(std::uint64_t seed) {
  WorkloadPlan plan;
  plan.rate_per_s = 20'000;
  plan.window = 16;
  constexpr Kind kKinds[] = {Kind::kNat, Kind::kFirewall, Kind::kFilter};
  for (std::uint32_t i = 0; i < 16; ++i) {
    FunctionPlan fn;
    fn.name = "ull-" + std::to_string(i);
    fn.kind = kKinds[i % 3];
    fn.ull = true;
    fn.vcpus = 2 + 2 * (i % 4);
    fn.memory_mb = 1;
    fn.impl_seed = mix(seed, 100 + i);
    fn.provision = 3;
    plan.functions.push_back(fn);
  }
  plan.schedule = poisson_schedule(plan.functions.size(), 1.0,
                                   plan.rate_per_s, seed);
  return plan;
}

// Replay of the repo's synthetic Azure trace: Zipf(1.1) popularity over 64
// functions with bursty per-minute rates. Even ranks are uLL (kHorse), odd
// ranks plain functions with real guest memory (kWarm). Only the 8 hottest
// functions get a provisioned floor, so the tail's 10-minute keep-alive
// expires between its invocations and the start ladder demotes to restore.
// Trace time is compressed so the mean arrival rate is the nominal rate,
// and drives the platform's logical clock in coarse ticks.
WorkloadPlan azure_mix(std::uint64_t seed) {
  WorkloadPlan plan;
  plan.rate_per_s = 3'000;
  plan.window = 16;
  plan.tick = 30 * util::kSecond;
  horse::trace::SyntheticTraceParams params;
  params.num_functions = 64;
  params.num_minutes = 1200;
  params.top_rate_per_minute = 24.0;
  params.zipf_s = 1.1;
  params.seed = mix(seed, 4);
  const horse::trace::ArrivalSchedule trace =
      horse::trace::SyntheticAzureTrace(params).generate_schedule();
  if (trace.size() < 2) {
    throw std::runtime_error("azure_mix: synthetic trace is empty");
  }

  constexpr Kind kUllKinds[] = {Kind::kNat, Kind::kFirewall, Kind::kFilter};
  constexpr std::uint32_t kPlainMemory[] = {4, 8, 16, 32};
  for (std::uint32_t f = 0; f < params.num_functions; ++f) {
    FunctionPlan fn;
    fn.ull = f % 2 == 0;
    const std::uint32_t k = f / 2;
    if (fn.ull) {
      fn.kind = kUllKinds[k % 3];
      fn.vcpus = 2;
      fn.memory_mb = 1;
    } else {
      fn.kind = k % 2 == 0 ? Kind::kFilter : Kind::kBurner;
      fn.vcpus = 1;
      fn.memory_mb = kPlainMemory[k % 4];
    }
    fn.name = (fn.ull ? "az-ull-" : "az-plain-") + std::to_string(f);
    fn.impl_seed = mix(seed, 200 + f);
    fn.provision = f < 8 ? 2 : 0;
    plan.functions.push_back(fn);
  }

  util::Xoshiro256 rng(mix(seed, 5));
  const auto& arrivals = trace.arrivals();
  plan.logical_span =
      static_cast<Nanos>(params.num_minutes) * 60 * util::kSecond;
  const double wall_per_logical =
      (1e9 / plan.rate_per_s) /
      (static_cast<double>(plan.logical_span) /
       static_cast<double>(arrivals.size()));
  plan.schedule.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    // The first gap closes the previous lap.
    const Nanos logical_gap =
        i == 0 ? arrivals.front().time + plan.logical_span -
                     arrivals.back().time
               : arrivals[i].time - arrivals[i - 1].time;
    Arrival arrival;
    arrival.gap = static_cast<Nanos>(static_cast<double>(logical_gap) *
                                     wall_per_logical);
    arrival.logical = arrivals[i].time;
    arrival.target = arrivals[i].function_id;
    arrival.variant = static_cast<std::uint32_t>(rng.bounded(kVariants));
    plan.schedule.push_back(arrival);
  }
  return plan;
}

// firewall -> nat -> array_filter workflows through submit_chain. Four
// same-shape chains fuse into one resume; two have growing per-stage memory
// and dispatch stage by stage. Half of the chains gate on the firewall
// verdict, so denied requests end early on the gated edge.
WorkloadPlan chain_fused(std::uint64_t seed) {
  WorkloadPlan plan;
  plan.rate_per_s = 10'000;
  plan.window = 16;
  constexpr Kind kStages[] = {Kind::kFirewall, Kind::kNat, Kind::kFilter};
  constexpr const char* kStageNames[] = {"fw", "nat", "filter"};
  for (std::uint32_t c = 0; c < 6; ++c) {
    const bool growing = c >= 4;
    ChainPlan chain;
    chain.name = "chain-" + std::to_string(c);
    chain.gated = c % 2 == 0;
    for (std::uint32_t s = 0; s < 3; ++s) {
      FunctionPlan fn;
      fn.name = chain.name + "-" + kStageNames[s];
      fn.kind = kStages[s];
      fn.ull = true;
      fn.vcpus = c % 2 == 0 ? 2 : 4;
      fn.memory_mb = growing ? (1U << s) : 2;
      fn.impl_seed = mix(seed, 300 + 3 * c + s);
      fn.provision = 3;
      chain.stages.push_back(static_cast<std::uint32_t>(plan.functions.size()));
      plan.functions.push_back(fn);
    }
    plan.chains.push_back(chain);
  }
  plan.schedule =
      poisson_schedule(plan.chains.size(), 1.0, plan.rate_per_s, seed);
  return plan;
}

void add_requests(WorkloadPlan& plan) {
  std::vector<std::shared_ptr<workloads::Function>> reference;
  reference.reserve(plan.functions.size());
  for (const FunctionPlan& fn : plan.functions) {
    reference.push_back(make_impl(fn));
  }
  util::Xoshiro256 rng(mix(plan.seed, 6));
  const std::size_t targets =
      plan.has_chains() ? plan.chains.size() : plan.functions.size();
  plan.requests.resize(targets);
  plan.expected.resize(targets);
  plan.fingerprints.resize(targets);
  for (std::size_t t = 0; t < targets; ++t) {
    for (std::size_t v = 0; v < kVariants; ++v) {
      workloads::Request request;
      Expected expected;
      if (plan.has_chains()) {
        const ChainPlan& chain = plan.chains[t];
        request.header =
            firewall_header(plan.functions[chain.stages[0]].impl_seed, rng);
        fill_filter(request, rng);
        // The reference run of the chain: the same edge plumbing the
        // platform applies, on separate implementation instances.
        workloads::Request hop = request;
        expected.stages = 0;
        for (std::size_t s = 0; s < chain.stages.size(); ++s) {
          expected.response = reference[chain.stages[s]]->invoke(hop);
          ++expected.stages;
          if (s + 1 == chain.stages.size()) {
            break;
          }
          faas::WorkflowEdge edge;
          if (s == 0 && chain.gated) {
            edge.plumbing = faas::EdgePlumbing::kGated;
          }
          if (!faas::apply_edge(edge, expected.response, hop)) {
            break;
          }
        }
      } else {
        request = make_request(plan.functions[t], rng);
        expected.response = reference[t]->invoke(request);
      }
      plan.fingerprints[t].push_back(fingerprint(request));
      plan.requests[t].push_back(std::move(request));
      plan.expected[t].push_back(std::move(expected));
    }
  }
}

}  // namespace

faas::StartMode WorkloadPlan::mode_for(std::uint32_t target) const {
  if (has_chains()) {
    return faas::StartMode::kHorse;
  }
  return functions[target].ull ? faas::StartMode::kHorse
                               : faas::StartMode::kWarm;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ull_steady", "azure_mix",
                                                 "chain_fused"};
  return names;
}

WorkloadPlan make_plan(std::string_view workload, std::uint64_t seed) {
  WorkloadPlan plan;
  if (workload == "ull_steady") {
    plan = ull_steady(seed);
  } else if (workload == "azure_mix") {
    plan = azure_mix(seed);
  } else if (workload == "chain_fused") {
    plan = chain_fused(seed);
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(workload) +
                                "'");
  }
  plan.name = std::string(workload);
  plan.seed = seed;
  add_requests(plan);
  return plan;
}

std::shared_ptr<workloads::Function> make_impl(const FunctionPlan& plan) {
  switch (plan.kind) {
    case Kind::kNat: {
      auto nat = std::make_shared<workloads::NatFunction>(kNatRandomRules,
                                                          plan.impl_seed);
      util::Xoshiro256 rng(mix(plan.impl_seed, 7));
      for (const NatKey& key : nat_known_keys(plan.impl_seed)) {
        workloads::NatRule rule;
        rule.new_dst = static_cast<std::uint32_t>(rng());
        rule.new_port = static_cast<std::uint16_t>(1 + rng.bounded(65535));
        nat->add_rule(key.dst, key.port, rule);
      }
      return nat;
    }
    case Kind::kFirewall: {
      auto firewall = std::make_shared<workloads::FirewallFunction>(
          kFirewallRandomRules, plan.impl_seed);
      for (const auto& rule : firewall_allow_rules(plan.impl_seed)) {
        firewall->add_rule(rule);
      }
      return firewall;
    }
    case Kind::kFilter:
      return std::make_shared<workloads::ArrayFilterFunction>();
    case Kind::kBurner:
      return std::make_shared<workloads::CpuBurnerFunction>();
  }
  throw std::logic_error("make_impl: unknown kind");
}

faas::FunctionSpec make_spec(
    const FunctionPlan& plan,
    std::shared_ptr<workloads::Function> implementation) {
  faas::FunctionSpec spec;
  spec.name = plan.name;
  spec.implementation = std::move(implementation);
  spec.sandbox.name = plan.name + "-sb";
  spec.sandbox.num_vcpus = plan.vcpus;
  spec.sandbox.memory_mb = plan.memory_mb;
  spec.sandbox.ull = plan.ull;
  return spec;
}

std::uint64_t fingerprint(const workloads::Request& request) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto add = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 0x100000001b3ULL;
  };
  for (const char c : request.header) {
    add(static_cast<unsigned char>(c));
  }
  add(static_cast<std::uint32_t>(request.threshold));
  add(request.payload.size());
  if (!request.payload.empty()) {
    add(static_cast<std::uint32_t>(request.payload.front()));
    add(static_cast<std::uint32_t>(request.payload.back()));
  }
  return hash;
}

bool same_response(const workloads::Response& a,
                   const workloads::Response& b) noexcept {
  return a.allowed == b.allowed && a.rewritten_header == b.rewritten_header &&
         a.indexes == b.indexes && a.checksum == b.checksum;
}

}  // namespace e2e
