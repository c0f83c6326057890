// E11 (macro extension, ours) — whole-node trace simulation.
//
// One hour of synthetic Azure-like traffic (Zipf popularity, bursty
// minutes) over a mixed fleet of uLL and longer functions, comparing the
// platform configurations a deployment would actually weigh:
//   fixed vs adaptive (hybrid-histogram) keep-alive  ×  HORSE on/off.
// Reported per configuration: cold-start fraction, median / p99 sandbox
// init latency, and warm-pool residency (the memory-cost proxy).
//
// A second section routes the same hour through the cluster policies
// (cluster::split_indices) across 4 modelled hosts — each slice then
// drives an independent single-host SimServer — showing how the routing
// policy alone shifts per-host load share and cold-start locality before
// any real threads are involved.
//
// Self-check: exits 1 when split_indices' slices do not partition the
// schedule, or when an overload row's completed + shed + expired differs
// from its submitted count (a submission lost or counted twice).
#include <algorithm>
#include <iostream>
#include <vector>

#include "cluster/sim_cluster.hpp"
#include "metrics/reporter.hpp"
#include "sim/server.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace horse;

trace::ArrivalSchedule hour_of_traffic() {
  trace::SyntheticTraceParams params;
  params.num_functions = 12;
  params.num_minutes = 60;
  params.top_rate_per_minute = 90.0;
  params.zipf_s = 1.1;
  params.seed = 4242;
  return trace::SyntheticAzureTrace(params).generate_schedule();
}

void register_fleet(sim::SimServer& server) {
  for (int i = 0; i < 12; ++i) {
    sim::SimFunctionSpec spec;
    spec.name = "fn-" + std::to_string(i);
    if (i % 3 == 0) {  // a third of the fleet is uLL
      spec.ull = true;
      spec.vcpus = 1;
      spec.durations.median = 2 * util::kMicrosecond;
      spec.durations.sigma = 0.3;
      spec.durations.tail_fraction = 0.0;
    } else {
      spec.vcpus = 2;
      spec.durations.median = 150 * util::kMillisecond;
      spec.durations.sigma = 0.5;
      spec.durations.tail_fraction = 0.02;
      spec.durations.tail_min = util::kSecond;
      spec.durations.tail_max = 10 * util::kSecond;
    }
    (void)server.add_function(spec);
  }
}

}  // namespace

int main() {
  bool accounting_ok = true;
  const auto costs = sim::CostModel::defaults(vmm::VmmProfile::firecracker());
  const auto schedule = hour_of_traffic();
  std::cout << "synthetic Azure hour: " << schedule.size()
            << " invocations across 12 functions\n\n";

  metrics::TextTable table(
      "Macro: 1 h trace, keep-alive policy x HORSE",
      {"keep-alive", "horse", "cold %", "uLL init p50", "long init p50",
       "init p99", "e2e p99", "e2e p999", "warm sandbox-hours", "evictions"});

  for (const bool adaptive : {false, true}) {
    for (const bool horse : {false, true}) {
      sim::SimServerParams params;
      params.adaptive_keep_alive = adaptive;
      params.keep_alive_policy.min_samples = 6;
      params.fixed_keep_alive = 10LL * 60 * util::kSecond;
      params.use_horse = horse;
      sim::SimServer server(params, costs);
      register_fleet(server);
      const auto report = server.run(schedule);

      table.add_row(
          {adaptive ? "adaptive" : "fixed 10min", horse ? "on" : "off",
           metrics::format_percent(report.cold_fraction()),
           metrics::format_nanos(
               static_cast<double>(report.init_latency_ull.p50())),
           metrics::format_nanos(
               static_cast<double>(report.init_latency_long.p50())),
           metrics::format_nanos(
               static_cast<double>(report.init_latency.p99())),
           metrics::format_nanos(
               static_cast<double>(report.end_to_end_latency.p99())),
           metrics::format_nanos(
               static_cast<double>(report.end_to_end_latency.p999())),
           metrics::format_double(report.warm_sandbox_seconds / 3600.0, 2),
           std::to_string(report.evictions)});
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: HORSE cuts the init p50 for the uLL share "
               "of traffic; adaptive keep-alive trades a slightly higher "
               "cold %% for much lower warm residency on rare functions.\n\n";

  // --- Cluster section: split the same hour across 4 hosts per policy ---
  std::vector<util::Nanos> times;
  std::vector<faas::FunctionId> fns;
  times.reserve(schedule.size());
  fns.reserve(schedule.size());
  for (const trace::Arrival& arrival : schedule.arrivals()) {
    times.push_back(arrival.time);
    fns.push_back(static_cast<faas::FunctionId>(arrival.function_id));
  }

  metrics::TextTable cluster_table(
      "Macro: same hour split across 4 hosts by routing policy (HORSE on, "
      "adaptive keep-alive)",
      {"policy", "host", "share %", "cold %", "e2e p99", "e2e p999",
       "warm sb-hours"});
  for (const cluster::PolicyKind kind :
       {cluster::PolicyKind::kRoundRobin, cluster::PolicyKind::kLeastLoaded,
        cluster::PolicyKind::kMostWarmSlots}) {
    cluster::SimClusterParams split_params;
    split_params.num_hosts = 4;
    split_params.policy = kind;
    split_params.seed = 4242;
    split_params.defaults.slots = 8;
    const auto slices = cluster::split_indices(
        times, fns, split_params, /*service_hint=*/50 * util::kMillisecond);
    // Every schedule index must land in exactly one slice.
    std::vector<int> hits(schedule.size(), 0);
    bool partition = true;
    for (const auto& slice : slices) {
      for (const std::uint64_t index : slice) {
        partition = partition && index < hits.size() && hits[index]++ == 0;
      }
    }
    if (!partition || std::find(hits.begin(), hits.end(), 0) != hits.end()) {
      std::cerr << "macro_trace_sim: " << cluster::to_string(kind)
                << " slices do not partition the schedule\n";
      accounting_ok = false;
    }

    for (std::size_t host = 0; host < slices.size(); ++host) {
      trace::ArrivalSchedule slice;
      for (const std::uint64_t index : slices[host]) {
        slice.add(schedule.arrivals()[index]);
      }
      sim::SimServerParams params;
      params.adaptive_keep_alive = true;
      params.keep_alive_policy.min_samples = 6;
      params.use_horse = true;
      sim::SimServer server(params, costs);
      register_fleet(server);
      const auto report = server.run(slice);
      cluster_table.add_row(
          {std::string(cluster::to_string(kind)), std::to_string(host),
           metrics::format_percent(
               schedule.empty() ? 0.0
                                : static_cast<double>(slice.size()) /
                                      static_cast<double>(schedule.size())),
           metrics::format_percent(report.cold_fraction()),
           metrics::format_nanos(
               static_cast<double>(report.end_to_end_latency.p99())),
           metrics::format_nanos(
               static_cast<double>(report.end_to_end_latency.p999())),
           metrics::format_double(report.warm_sandbox_seconds / 3600.0, 2)});
    }
  }
  cluster_table.print(std::cout);
  std::cout << "\nExpected shape: round-robin splits the hour evenly; "
               "least-loaded tracks the burst structure; most-warm "
               "concentrates repeat traffic, trading balance for warmer "
               "per-host pools.\n\n";

  // --- Overload section: the same hour through SimCluster admission -----
  // The hour replayed in virtual time with per-request deadlines (uLL
  // 1 ms, long 250 ms of slack) against a deliberately small cluster
  // (2 hosts x 1 slot — the burst minutes exceed its capacity, the quiet
  // ones do not), with admission on vs off. Every refusal is a
  // typed outcome: shed (admission refused at submit), expired (deadline
  // passed in queue, dropped at dequeue), or completed — the three
  // columns always sum to the submitted count. "met" counts completions
  // that finished inside their deadline; admission converts would-be-late
  // executions into sheds, so its late column shrinks without starving
  // throughput.
  metrics::TextTable overload_table(
      "Macro: same hour with deadlines, 2 hosts x 1 slot, by policy",
      {"policy", "admission", "submitted", "completed", "shed", "expired",
       "met", "late", "met %"});
  for (const cluster::PolicyKind kind :
       {cluster::PolicyKind::kRoundRobin, cluster::PolicyKind::kLeastLoaded,
        cluster::PolicyKind::kMostWarmSlots}) {
    for (const bool admission : {true, false}) {
      cluster::SimClusterParams params;
      params.num_hosts = 2;
      params.policy = kind;
      params.seed = 4242;
      params.defaults.slots = 1;
      params.defaults.jitter = 0.1;
      params.admission = admission;
      cluster::SimCluster sim(params);
      for (const trace::Arrival& arrival : schedule.arrivals()) {
        const auto fn = static_cast<faas::FunctionId>(arrival.function_id);
        const bool ull = arrival.function_id % 3 == 0;
        const util::Nanos service =
            ull ? 2 * util::kMicrosecond : 150 * util::kMillisecond;
        const util::Nanos deadline =
            arrival.time +
            (ull ? util::kMillisecond : 250 * util::kMillisecond);
        sim.submit(arrival.time, fn, service, deadline);
      }
      sim.run_to_completion();

      std::uint64_t shed = 0;
      std::uint64_t expired = 0;
      for (const cluster::SimRejection& rejection : sim.rejections()) {
        (rejection.reject == faas::SubmissionReject::kDeadlineExpired
             ? expired
             : shed)++;
      }
      std::uint64_t met = 0;
      for (const cluster::SimCompletion& done : sim.completions()) {
        met += done.met_deadline() ? 1 : 0;
      }
      const std::uint64_t completed = sim.completions().size();
      const std::uint64_t late = completed - met;
      if (completed + shed + expired != schedule.size()) {
        std::cerr << "macro_trace_sim: " << cluster::to_string(kind)
                  << " admission " << (admission ? "on" : "off")
                  << ": completed + shed + expired != submitted\n";
        accounting_ok = false;
      }
      overload_table.add_row(
          {std::string(cluster::to_string(kind)), admission ? "on" : "off",
           std::to_string(schedule.size()), std::to_string(completed),
           std::to_string(shed), std::to_string(expired),
           std::to_string(met), std::to_string(late),
           metrics::format_percent(
               schedule.empty()
                   ? 0.0
                   : static_cast<double>(met) /
                         static_cast<double>(schedule.size()))});
    }
  }
  overload_table.print(std::cout);
  std::cout << "\nExpected shape: with admission on, late completions "
               "convert into typed sheds (completed + shed + expired == "
               "submitted either way); the met count stays comparable "
               "because shedding only refuses work that was already "
               "doomed by its deadline.\n";
  return accounting_ok ? 0 : 1;
}
