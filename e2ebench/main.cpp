// End-to-end invoke benchmark through ClusterScheduler.
//
//   e2ebench --workload ull_steady|azure_mix|chain_fused --seed N
//            --seconds S --trace 0|1
//
// System under test: 2 hosts x 1 worker, ClusterConfig defaults otherwise.
// Load comes from this (single) thread. Each workload runs an open-loop
// phase (Poisson or trace-timed arrivals at the workload's nominal rate,
// latency timed from each request's due time to when its outcome becomes
// visible) and a closed-loop phase (a fixed window of outstanding
// submissions, for capacity). Completion is observed from outside by
// polling every host's completed() counter; with one worker per host each
// host finishes its submissions in seq order, so after drain() the k-th
// stamp of host h belongs to host h's k-th seq.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
// untraced and once with the benchmark's own spans (around submit, and
// around every function body through a wrapping workloads::Function) and
// prints the per-layer ledger. Every completed response is checked against
// a reference instance; any mismatch, accounting error or stalled
// generator makes the run incorrect (exit code 1). The last stdout line is
// one JSON object.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/scheduler.hpp"
#include "core/horse_resume.hpp"
#include "ledger.hpp"
#include "plan.hpp"
#include "util/spinlock.hpp"
#include "util/time.hpp"

namespace e2e {
namespace {

namespace cluster = horse::cluster;
namespace core = horse::core;
namespace faas = horse::faas;
namespace util = horse::util;
namespace workloads = horse::workloads;

constexpr std::size_t kHosts = 2;
constexpr std::size_t kWarmupRequests = 2000;
constexpr std::size_t kBatch = 8192;
/// Open-loop latency percentiles are taken per window of this many
/// consecutive requests and reported as a percentile over the windows of
/// the whole run: the median for p50, the 25th percentile for p90.
/// Closed-loop throughput is the 75th percentile over batches. Episodes of
/// interference from other tenants of the machine slow down the windows
/// and batches they fall in, and a window's p90 is where delayed requests
/// land first; an episode that spans a quarter of a run still leaves p90
/// and throughput to the windows and batches it missed.
constexpr std::size_t kWindow = 256;
constexpr double kP50AcrossWindows = 0.5;
constexpr double kP90AcrossWindows = 0.25;
constexpr double kAcrossBatches = 0.75;
constexpr int kSetupRepeats = 5;
/// The open and closed loops alternate this many times, so both phases
/// sample the whole run rather than one end of it.
constexpr int kRounds = 4;
/// Generator validity: a run whose median request left more than this late,
/// or that offered less than kMinAchievedShare of the nominal rate, measured
/// the generator rather than the system.
constexpr double kMaxLagP50Us = 20.0;
constexpr double kMinAchievedShare = 0.9;
constexpr Nanos kCompletionTimeout = 30 * util::kSecond;
constexpr std::chrono::microseconds kClosedLoopNap{20};

Nanos now() noexcept { return util::monotonic_now(); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload ull_steady|azure_mix|chain_fused"
               " --seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + arg);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (!(options.seconds > 0) || options.seconds > 120) {
        usage("--seconds must be in (0, 120]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace must be 0 or 1");
      }
      options.trace = value == "1";
    } else {
      usage("unknown argument " + arg);
    }
    if (end != nullptr && *end != '\0') {
      usage("bad number for " + arg + ": " + value);
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    usage("unknown workload " + options.workload);
  }
  return options;
}

// --- traced run: spans around every function body ---------------------------

struct ExecStamp {
  Nanos begin = 0;
  Nanos end = 0;
  std::uint64_t fingerprint = 0;
};

/// Times the body it wraps and logs the interval to its host's log. Each
/// host has one worker, so a log is only ever appended to by that worker;
/// the generator reads it after the completions it covers are visible.
class TracedFunction final : public workloads::Function {
 public:
  TracedFunction(std::shared_ptr<workloads::Function> inner,
                 std::vector<ExecStamp>& log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] workloads::Category category() const noexcept override {
    return inner_->category();
  }
  [[nodiscard]] Nanos nominal_duration() const noexcept override {
    return inner_->nominal_duration();
  }
  workloads::Response invoke(const workloads::Request& request) override {
    const Nanos begin = now();
    workloads::Response response = inner_->invoke(request);
    const Nanos end = now();
    log_.push_back({begin, end, fingerprint(request)});
    return response;
  }

 private:
  std::shared_ptr<workloads::Function> inner_;
  std::vector<ExecStamp>& log_;
};

// --- the system under test ---------------------------------------------------

/// One spinner of the idle scheduling class on every CPU the process may
/// use, for the lifetime of a run. An idle CPU of a virtual machine halts,
/// and waking it goes through the hypervisor, which meanwhile lends the CPU
/// to other tenants: the worker wake-up behind every open-loop request then
/// costs what the neighbours' load makes it cost. A SCHED_IDLE spinner keeps
/// the CPU from halting and yields to any normal thread the moment that
/// thread becomes runnable, so the program's threads see a machine that is
/// awake but otherwise unused. A spinner that cannot drop to SCHED_IDLE
/// exits rather than compete with the program.
class CpuKeeper {
 public:
  CpuKeeper() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        threads_.emplace_back([this, cpu] { spin(cpu); });
      }
    }
  }
  CpuKeeper(const CpuKeeper&) = delete;
  CpuKeeper& operator=(const CpuKeeper&) = delete;
  ~CpuKeeper() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& thread : threads_) {
      thread.join();
    }
  }

 private:
  void spin(int cpu) {
    const sched_param param{};
    if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    while (!stop_.load(std::memory_order_relaxed)) {
      util::cpu_relax();
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

struct System {
  /// Declared before the cluster: the workers that append to the logs are
  /// joined when the cluster is destroyed.
  std::vector<std::vector<ExecStamp>> exec_logs;
  std::unique_ptr<cluster::ClusterScheduler> cluster;
  std::vector<faas::FunctionId> functions;
  std::vector<faas::WorkflowId> workflows;
};

void check(const util::Status& status, const std::string& what) {
  if (!status.is_ok()) {
    throw std::runtime_error(what + ": " + status.to_report());
  }
}

std::unique_ptr<System> build_system(const WorkloadPlan& plan, bool traced) {
  auto system = std::make_unique<System>();
  system->exec_logs.resize(kHosts);
  for (auto& log : system->exec_logs) {
    log.reserve(4 * kBatch);
  }
  cluster::ClusterConfig config;
  config.num_hosts = kHosts;
  config.workers_per_host = 1;
  system->cluster = std::make_unique<cluster::ClusterScheduler>(config);
  cluster::ClusterScheduler& sched = *system->cluster;
  for (const FunctionPlan& fn : plan.functions) {
    // register_function calls the factory once per host, in host order.
    std::size_t host = 0;
    const auto id = sched.register_function([&] {
      std::shared_ptr<workloads::Function> impl = make_impl(fn);
      if (traced) {
        impl = std::make_shared<TracedFunction>(
            std::move(impl), system->exec_logs[host % kHosts]);
      }
      ++host;
      return make_spec(fn, std::move(impl));
    });
    if (!id) {
      throw std::runtime_error("register " + fn.name + ": " +
                               id.status().to_report());
    }
    if (fn.provision > 0) {
      check(sched.provision(*id, fn.provision), "provision " + fn.name);
    }
    check(sched.ensure_snapshot(*id), "snapshot " + fn.name);
    system->functions.push_back(*id);
  }
  for (const ChainPlan& chain : plan.chains) {
    faas::WorkflowSpec spec;
    spec.name = chain.name;
    for (const std::uint32_t stage : chain.stages) {
      spec.stages.push_back(system->functions[stage]);
    }
    spec.edges.resize(spec.stages.size() - 1);
    if (chain.gated) {
      spec.edges[0].plumbing = faas::EdgePlumbing::kGated;
    }
    const auto id = sched.register_workflow(spec);
    if (!id) {
      throw std::runtime_error("register " + chain.name + ": " +
                               id.status().to_report());
    }
    system->workflows.push_back(*id);
  }
  return system;
}

// --- what a run measures -----------------------------------------------------

constexpr std::array<util::StatusCode, 8> kFailureCodes = {
    util::StatusCode::kInvalidArgument,  util::StatusCode::kNotFound,
    util::StatusCode::kAlreadyExists,    util::StatusCode::kFailedPrecondition,
    util::StatusCode::kResourceExhausted, util::StatusCode::kUnavailable,
    util::StatusCode::kInternal,         util::StatusCode::kDeadlineExceeded};
constexpr std::array<faas::SubmissionReject, 7> kRejects = {
    faas::SubmissionReject::kDeadlineExpired,
    faas::SubmissionReject::kQueueShed,
    faas::SubmissionReject::kQueueFull,
    faas::SubmissionReject::kShardOverload,
    faas::SubmissionReject::kBreakerOpen,
    faas::SubmissionReject::kRetryBudgetExhausted,
    faas::SubmissionReject::kDuplicateSuppressed};

/// Per-outcome accounting, over every phase of one system.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::array<std::uint64_t, 4> modes{};  // by faas::StartMode
  /// Start modes of the open loop's completions alone: the workload's
  /// traffic at its nominal rate, where keep-alive and the start ladder act
  /// as they would in service (the closed loop holds the logical clock).
  std::array<std::uint64_t, 4> open_modes{};
  std::map<util::StatusCode, std::uint64_t> failed_by;
  std::map<faas::SubmissionReject, std::uint64_t> rejected_by;
  Nanos init_total = 0;
  Nanos exec_total = 0;
  std::string first_error;

  void error(const std::string& what) {
    if (first_error.empty()) {
      first_error = what;
    }
  }
};

/// Traced-ledger layers; kRequest is the root, whose self time is the
/// residual no layer accounts for.
enum Layer : int {
  kRequest,
  kGenLag,
  kSubmit,
  kQueue,
  kStart,
  kResume,
  kExec,
  kNumLayers
};

/// Open-loop samples (nanoseconds).
struct OpenSamples {
  std::vector<double> e2e;
  std::vector<double> lag;
  std::vector<double> submit;
  std::uint64_t sent = 0;
  Nanos span = 0;  // generator time from phase start to the last send
  // Host-reported layer times of completed requests.
  std::vector<double> queue;
  std::vector<double> start;
  std::vector<double> exec;
  std::vector<double> resume;
  std::vector<double> merge;
  std::vector<double> load_update;
  std::vector<double> restore;
  Nanos contested = 0;
  Nanos resume_total = 0;
  // Traced only.
  std::vector<double> residual;
  std::vector<double> post_exec;
  std::array<double, kNumLayers> self_sum{};
  std::uint64_t traced = 0;
};

struct Sent {
  Nanos due = 0;
  Nanos s0 = 0;
  Nanos s1 = 0;
  std::uint64_t index = 0;  // schedule cursor
};

class Runner {
 public:
  Runner(const WorkloadPlan& plan, System& system, bool traced)
      : plan_(plan),
        system_(system),
        sched_(*system.cluster),
        traced_(traced),
        seen_(kHosts, 0),
        stamps_(kHosts) {
    const horse::vmm::VmmProfile& profile =
        sched_.host(0).platform().config().profile;
    resume_modelled_base_ = profile.resume_control_plane;
    resume_modelled_per_vcpu_ = profile.resume_per_vcpu_tax;
  }

  /// Closed loop of `count` requests whose outcomes are checked but not
  /// measured: pools, caches and branch predictors settle first.
  void warmup(std::size_t count) { closed(1e9, count, false); }

  /// Room for `seconds` of open-loop samples, so buffer growth does not
  /// show in peak_rss_mb.
  void reserve_open(double seconds) {
    const auto expected =
        static_cast<std::size_t>(1.1 * seconds * plan_.rate_per_s);
    open_.e2e.reserve(expected);
    open_.lag.reserve(expected);
  }

  /// Open loop at the nominal rate for `seconds` of generator time.
  void open(double seconds) {
    const Nanos budget = open_.span + static_cast<Nanos>(seconds * 1e9);
    while (open_.span < budget) {
      begin_batch();
      const Nanos start = now();
      const Nanos deadline = start + (budget - open_.span);
      Nanos due = start;
      Nanos last_sent = start;
      for (std::size_t k = 0; k < kBatch; ++k) {
        due += entry(open_cursor_).gap;
        if (due > deadline) {
          break;
        }
        workloads::Request request = prepare(open_cursor_, true);
        Nanos t = now();
        while (t < due) {
          poll(t);
          t = now();
        }
        send(std::move(request), due, open_cursor_);
        last_sent = sent_.back().s0;
      }
      // Offered rate is judged by when requests actually left, so a
      // generator that falls behind shows up as a lower achieved rate.
      open_.span += std::max<Nanos>(last_sent - start, 1);
      if (sent_.empty()) {
        break;
      }
      open_.sent += sent_.size();
      finish_batch(true);
    }
  }

  /// Closed loop with the plan's window for `seconds` (or `max_requests`).
  void closed(double seconds, std::size_t max_requests, bool measure) {
    const auto budget = static_cast<Nanos>(seconds * 1e9);
    Nanos active = 0;
    std::size_t total = 0;
    while (active < budget && total < max_requests) {
      begin_batch();
      const Nanos start = now();
      const Nanos deadline = start + (budget - active);
      const std::size_t limit = std::min(kBatch, max_requests - total);
      while (true) {
        const Nanos t = now();
        poll(t);
        if (t > deadline + kCompletionTimeout) {
          tally_.error("timed out waiting for completions");
          break;
        }
        const std::uint64_t outstanding = sent_.size() - observed();
        const bool open_for_more = sent_.size() < limit && t < deadline;
        if (open_for_more && outstanding < plan_.window) {
          send(prepare(closed_cursor_, false), t, closed_cursor_);
        } else if (!open_for_more && outstanding == 0) {
          break;
        } else {
          // The window is full: sleep instead of spinning, so the
          // generator does not hold a third CPU busy beside the two
          // workers (the window keeps both workers fed meanwhile).
          std::this_thread::sleep_for(kClosedLoopNap);
        }
      }
      Nanos last = start;
      for (const auto& host : stamps_) {
        if (!host.empty()) {
          last = std::max(last, host.back());
        }
      }
      active += std::max<Nanos>(last - start, 1);
      total += sent_.size();
      if (measure && last > start) {
        closed_kps_.push_back(static_cast<double>(sent_.size()) /
                              static_cast<double>(last - start) * 1e6);
      }
      finish_batch(false);
    }
  }

  [[nodiscard]] const Tally& tally() const noexcept { return tally_; }
  [[nodiscard]] OpenSamples& open_samples() noexcept { return open_; }
  /// Closed-loop completions per ms, 75th percentile over batches.
  [[nodiscard]] double closed_kps() const {
    return percentile(closed_kps_, kAcrossBatches).value;
  }

 private:
  [[nodiscard]] const Arrival& entry(std::uint64_t index) const {
    return plan_.schedule[index % plan_.schedule.size()];
  }

  /// Copy the request for schedule slot `index`; with `move_clock`, first
  /// bring the platforms' logical clock up to its trace time (coarse ticks).
  workloads::Request prepare(std::uint64_t index, bool move_clock) {
    const Arrival& arrival = entry(index);
    if (move_clock && plan_.tick > 0) {
      const Nanos lap = static_cast<Nanos>(index / plan_.schedule.size());
      const Nanos logical = arrival.logical + lap * plan_.logical_span;
      while (logical_now_ + plan_.tick <= logical) {
        sched_.advance_time(plan_.tick);
        logical_now_ += plan_.tick;
      }
    }
    return plan_.requests[arrival.target][arrival.variant];
  }

  void send(workloads::Request request, Nanos due, std::uint64_t& cursor) {
    const Arrival& arrival = entry(cursor);
    const Nanos s0 = now();
    if (plan_.has_chains()) {
      sched_.submit_chain(system_.workflows[arrival.target], std::move(request),
                          faas::StartMode::kHorse);
    } else {
      sched_.submit(system_.functions[arrival.target], std::move(request),
                    plan_.mode_for(arrival.target));
    }
    const Nanos s1 = now();
    sent_.push_back({due, s0, s1, cursor});
    ++cursor;
    poll(s1);
  }

  void poll(Nanos t) {
    for (std::size_t h = 0; h < kHosts; ++h) {
      const std::uint64_t completed = sched_.host(h).completed();
      while (seen_[h] < completed) {
        stamps_[h].push_back(t);
        ++seen_[h];
      }
    }
  }

  [[nodiscard]] std::uint64_t observed() const {
    std::uint64_t total = 0;
    for (std::size_t h = 0; h < kHosts; ++h) {
      total += seen_[h] - batch_base_[h];
    }
    return total;
  }

  void begin_batch() {
    const cluster::ClusterCounters counters = sched_.counters();
    seq_base_ = counters.submitted;
    shed_base_ = counters.shed;
    batch_base_.assign(kHosts, 0);
    for (std::size_t h = 0; h < kHosts; ++h) {
      seen_[h] = sched_.host(h).completed();
      batch_base_[h] = seen_[h];
      stamps_[h].clear();
    }
    sent_.clear();
  }

  void finish_batch(bool open_loop) {
    // Wait until every host completion is visible, then take outcomes.
    // Front-door sheds happen inside submit(), so their count is final.
    const Nanos give_up = now() + kCompletionTimeout;
    const std::uint64_t shed = sched_.counters().shed - shed_base_;
    while (observed() + shed < sent_.size()) {
      const Nanos t = now();
      if (t > give_up) {
        tally_.error("timed out waiting for completions");
        break;
      }
      poll(t);
    }
    std::vector<faas::SubmissionOutcome> outcomes = sched_.drain();

    // Accounting: exactly one outcome per submitted seq.
    const std::size_t n = sent_.size();
    tally_.attempted += n;
    if (outcomes.size() != n) {
      tally_.error("accounting: " + std::to_string(n) + " submitted, " +
                   std::to_string(outcomes.size()) + " outcomes");
    }
    std::vector<std::uint8_t> seen(n, 0);
    std::vector<Completion> host_done;
    std::vector<std::size_t> host_index;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const auto& outcome = outcomes[i];
      if (outcome.seq <= seq_base_ || outcome.seq > seq_base_ + n ||
          seen[outcome.seq - seq_base_ - 1]++ != 0) {
        tally_.error("accounting: unexpected or repeated seq " +
                     std::to_string(outcome.seq));
        continue;
      }
      // Front-door refusals never reach a host.
      const bool shed = outcome.reject == faas::SubmissionReject::kQueueShed ||
                        outcome.reject == faas::SubmissionReject::kQueueFull;
      if (!shed) {
        host_done.push_back({outcome.seq, outcome.host});
        host_index.push_back(i);
      }
    }
    std::string error;
    const std::vector<Nanos> done =
        match_completions(host_done, stamps_, error);
    if (!error.empty()) {
      tally_.error("completion matching: " + error);
    }
    std::vector<Nanos> done_of(outcomes.size(), 0);
    for (std::size_t k = 0; k < done.size(); ++k) {
      done_of[host_index[k]] = done[k];
    }
    std::vector<std::vector<ExecStamp>> bodies;
    if (traced_ && open_loop && error.empty()) {
      bodies = match_bodies(outcomes);
    }
    for (auto& log : system_.exec_logs) {
      log.clear();
    }

    // Seq order, so open-loop samples are in submission order.
    std::vector<std::size_t> order(outcomes.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return outcomes[a].seq < outcomes[b].seq;
    });
    for (const std::size_t i : order) {
      const auto& outcome = outcomes[i];
      if (outcome.seq <= seq_base_ || outcome.seq > seq_base_ + n) {
        continue;
      }
      const Sent& sent = sent_[outcome.seq - seq_base_ - 1];
      const Arrival& arrival = entry(sent.index);
      if (!outcome.status.is_ok()) {
        ++tally_.failed_by[outcome.status.code()];
        if (outcome.reject != faas::SubmissionReject::kNone) {
          ++tally_.rejected_by[outcome.reject];
        }
        continue;
      }
      ++tally_.ok;
      const Expected& expected =
          plan_.expected[arrival.target][arrival.variant];
      const std::uint32_t stages =
          plan_.has_chains() ? outcome.chain_stages : 1;
      if (!same_response(outcome.record.response, expected.response) ||
          stages != expected.stages) {
        tally_.error("output mismatch for target " +
                     std::to_string(arrival.target) + " variant " +
                     std::to_string(arrival.variant));
      }
      const auto& record = outcome.record;
      ++tally_.modes[static_cast<std::size_t>(record.mode)];
      if (open_loop) {
        ++tally_.open_modes[static_cast<std::size_t>(record.mode)];
      }
      tally_.init_total += record.init_time;
      tally_.exec_total += record.exec_time;
      if (open_loop && error.empty()) {
        record_open(outcome, sent, arrival, done_of[i],
                    bodies.empty() ? nullptr : &bodies[i]);
      }
    }
  }

  /// Host-side bodies of each outcome, in outcome order. A host runs its
  /// submissions in seq order, so its body log is consumed in that order;
  /// a failed outcome whose body never ran consumes nothing.
  std::vector<std::vector<ExecStamp>> match_bodies(
      const std::vector<faas::SubmissionOutcome>& outcomes) {
    std::vector<std::vector<ExecStamp>> out(outcomes.size());
    std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> by_host(
        kHosts);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const std::uint64_t seq = outcomes[i].seq;
      if (outcomes[i].host < kHosts && seq > seq_base_ &&
          seq <= seq_base_ + sent_.size()) {
        by_host[outcomes[i].host].emplace_back(seq, i);
      }
    }
    for (std::size_t h = 0; h < kHosts; ++h) {
      std::sort(by_host[h].begin(), by_host[h].end());
      const auto& log = system_.exec_logs[h];
      std::size_t pos = 0;
      for (const auto& [seq, i] : by_host[h]) {
        const auto& outcome = outcomes[i];
        const Arrival& arrival = entry(sent_[seq - seq_base_ - 1].index);
        const std::uint64_t expected =
            plan_.fingerprints[arrival.target][arrival.variant];
        if (pos >= log.size() || log[pos].fingerprint != expected) {
          if (outcome.status.is_ok()) {
            tally_.error("trace: no body execution for seq " +
                         std::to_string(seq));
            return {};
          }
          continue;
        }
        const std::size_t count =
            plan_.has_chains()
                ? std::max<std::uint32_t>(1, outcome.chain_stages)
                : 1;
        for (std::size_t k = 0; k < count && pos < log.size(); ++k) {
          out[i].push_back(log[pos++]);
        }
      }
      if (pos != log.size()) {
        tally_.error("trace: " + std::to_string(log.size() - pos) +
                     " unattributed body executions on host " +
                     std::to_string(h));
        return {};
      }
    }
    return out;
  }

  void record_open(const faas::SubmissionOutcome& outcome, const Sent& sent,
                   const Arrival& arrival, Nanos done,
                   const std::vector<ExecStamp>* bodies) {
    const auto& record = outcome.record;
    const Nanos e2e = done - sent.due;
    open_.e2e.push_back(static_cast<double>(e2e));
    open_.lag.push_back(static_cast<double>(sent.s0 - sent.due));
    if (!traced_) {
      return;  // the untraced run keeps only what its metrics need
    }
    open_.submit.push_back(static_cast<double>(sent.s1 - sent.s0));
    open_.queue.push_back(static_cast<double>(outcome.queueing));
    open_.exec.push_back(static_cast<double>(record.exec_time));

    // Measured start: the record's init time without its modelled parts.
    // Warm/horse resumes also carry the profile's modelled control-plane
    // and per-vCPU costs inside the breakdown, which are never slept.
    const std::uint32_t vcpus = plan_.has_chains()
        ? plan_.functions[plan_.chains[arrival.target].stages[0]].vcpus
        : plan_.functions[arrival.target].vcpus;
    const bool resumed = record.mode == faas::StartMode::kWarm ||
                         record.mode == faas::StartMode::kHorse;
    const Nanos tax = static_cast<Nanos>(vcpus) * resume_modelled_per_vcpu_;
    Nanos resume_measured = 0;
    Nanos start = record.init_time - record.init_modelled;
    if (resumed) {
      resume_measured = std::max<Nanos>(
          0, record.resume.total() - resume_modelled_base_ - tax);
      start = std::max<Nanos>(0, start - resume_modelled_base_ - tax);
      open_.resume.push_back(static_cast<double>(resume_measured));
      open_.merge.push_back(
          static_cast<double>(std::max<Nanos>(0, record.resume.merge - tax)));
      open_.load_update.push_back(
          static_cast<double>(record.resume.load_update));
      open_.contested += record.resume.merge + record.resume.load_update;
      open_.resume_total += record.resume.total();
    } else if (record.mode == faas::StartMode::kRestore) {
      open_.restore.push_back(static_cast<double>(start));
    }
    open_.start.push_back(static_cast<double>(start));

    if (bodies == nullptr || bodies->empty()) {
      return;
    }
    // The request's spans. Host-side spans are anchored on the first body
    // and clipped to [s1, done] so no two layers claim the same time.
    std::vector<Span> spans;
    spans.push_back({kRequest, -1, sent.due, done});
    spans.push_back({kGenLag, 0, sent.due, sent.s0});
    spans.push_back({kSubmit, 0, sent.s0, sent.s1});
    const auto clip = [&](Nanos t) { return std::clamp(t, sent.s1, done); };
    const Nanos x0 = clip(bodies->front().begin);
    const Nanos start_begin = clip(x0 - start);
    spans.push_back({kQueue, 0, sent.s1,
                     std::clamp(sent.s0 + outcome.queueing, sent.s1,
                                start_begin)});
    spans.push_back({kStart, 0, start_begin, x0});
    spans.push_back({kResume, static_cast<int>(spans.size()) - 1, start_begin,
                     std::min(x0, start_begin + resume_measured)});
    for (const ExecStamp& body : *bodies) {
      spans.push_back({kExec, 0, clip(body.begin), clip(body.end)});
    }
    const std::vector<Nanos> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      open_.self_sum[static_cast<std::size_t>(spans[i].layer)] +=
          static_cast<double>(self[i]);
    }
    open_.residual.push_back(static_cast<double>(self[0]));
    open_.post_exec.push_back(static_cast<double>(done - bodies->back().end));
    ++open_.traced;
  }

  const WorkloadPlan& plan_;
  System& system_;
  cluster::ClusterScheduler& sched_;
  const bool traced_;
  Nanos resume_modelled_base_ = 0;
  Nanos resume_modelled_per_vcpu_ = 0;

  /// Each phase replays the schedule from its own cursor, and only the open
  /// loop moves the logical clock. So the requests the open loop sends, and
  /// on a trace replay the stretch of the trace it covers, follow from the
  /// seed alone and not from how many requests the closed loop got through.
  std::uint64_t open_cursor_ = 0;
  std::uint64_t closed_cursor_ = 0;
  Nanos logical_now_ = 0;
  std::uint64_t seq_base_ = 0;
  std::uint64_t shed_base_ = 0;
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> batch_base_;
  std::vector<std::vector<Nanos>> stamps_;
  std::vector<Sent> sent_;

  Tally tally_;
  OpenSamples open_;
  std::vector<double> closed_kps_;
};

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::string number(double value) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double p(const std::vector<double>& values, double q, double scale = 1.0) {
  return percentile(values, q).value * scale;
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

/// Generator validity; false when the generator, not the system, set the
/// pace.
bool generator_valid(const OpenSamples& open, double rate, std::string& why) {
  const double lag_p50_us = p(open.lag, 0.5, 1e-3);
  const double achieved = open.span == 0
                              ? 0
                              : static_cast<double>(open.sent) /
                                    (static_cast<double>(open.span) / 1e9);
  if (lag_p50_us > kMaxLagP50Us) {
    why = "generator lag p50 " + number(lag_p50_us) + " us";
    return false;
  }
  if (achieved < kMinAchievedShare * rate) {
    why = "generator achieved " + number(achieved) + "/s of " + number(rate) +
          "/s";
    return false;
  }
  return true;
}

/// Tail percentiles over every open-loop sample, with their sample counts;
/// printed, not reported as metrics (on a shared host the tail measures
/// the host's scheduler).
std::string tail_line(const char* name, const std::vector<double>& e2e,
                      double q) {
  const Percentile tail = percentile(e2e, q);
  char buf[128];
  std::snprintf(buf, sizeof buf, "%-34s %16.4f us (n=%zu, beyond=%zu)", name,
                tail.value / 1e3, tail.samples, tail.beyond);
  return buf;
}

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::string error;
};

void merge_tally(RunResult& result, const Tally& tally) {
  result.attempted += tally.attempted;
  result.failed += tally.attempted - tally.ok;
  if (!tally.first_error.empty()) {
    result.correct = false;
    if (result.error.empty()) {
      result.error = tally.first_error;
    }
  }
}

RunResult run_end_to_end(const Options& options) {
  RunResult result;
  std::vector<double> setups;
  std::unique_ptr<System> system;
  WorkloadPlan plan;
  for (int r = 0; r < kSetupRepeats; ++r) {
    system.reset();
    const Nanos t0 = now();
    plan = make_plan(options.workload, options.seed);
    system = build_system(plan, false);
    setups.push_back(static_cast<double>(now() - t0) / 1e9);
  }
  Runner runner(plan, *system, false);
  runner.reserve_open(0.6 * options.seconds);
  runner.warmup(kWarmupRequests);
  for (int round = 0; round < kRounds; ++round) {
    runner.open(0.6 * options.seconds / kRounds);
    runner.closed(0.4 * options.seconds / kRounds, SIZE_MAX, true);
  }
  merge_tally(result, runner.tally());

  OpenSamples& open = runner.open_samples();
  std::string why;
  if (!generator_valid(open, plan.rate_per_s, why)) {
    result.correct = false;
    result.error = "invalid run: " + why;
  }
  const Tally& tally = runner.tally();
  const auto& modes = tally.open_modes;
  const std::uint64_t started =
      std::accumulate(modes.begin(), modes.end(), std::uint64_t{0});
  const std::uint64_t warm_started =
      modes[static_cast<std::size_t>(faas::StartMode::kWarm)] +
      modes[static_cast<std::size_t>(faas::StartMode::kHorse)];
  result.metrics = {
      {"setup_s", "s", percentile(setups, 0.5).value},
      {"lat_p50_us", "us",
       windowed_percentile(open.e2e, kWindow, 0.5, kP50AcrossWindows) / 1e3},
      {"lat_p90_us", "us",
       windowed_percentile(open.e2e, kWindow, 0.9, kP90AcrossWindows) / 1e3},
      {"tput_kps", "k/s", runner.closed_kps()},
      {"ok_pct", "%", pct(tally.ok, tally.attempted)},
      {"warm_pct", "%", pct(warm_started, started)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
  result.notes.push_back(tail_line("lat_p99_us", open.e2e, 0.99));
  result.notes.push_back(tail_line("lat_p999_us", open.e2e, 0.999));
  return result;
}

struct CoreTotals {
  std::uint64_t resumes = 0;
  std::uint64_t prologue = 0;
  std::uint64_t lookup = 0;
  std::uint64_t splice = 0;
  std::uint64_t publish = 0;
  std::uint64_t inline_splices = 0;
  std::uint64_t degraded = 0;
  horse::metrics::Histogram cycles;
};

CoreTotals core_totals(cluster::ClusterScheduler& sched) {
  CoreTotals out;
  for (std::size_t h = 0; h < sched.num_hosts(); ++h) {
    faas::Platform& platform = sched.host(h).platform();
    for (const auto& engine : platform.horse_engines()) {
      const core::ResumeCycleStats stats = engine->cycle_stats();
      out.resumes += stats.resumes;
      out.prologue += stats.prologue_cycles;
      out.lookup += stats.lookup_cycles;
      out.splice += stats.splice_cycles;
      out.publish += stats.publish_cycles;
      out.cycles.merge(stats.total_cycles);
      out.inline_splices += engine->inline_splice_count();
    }
    out.degraded += platform.resume_degradation_stats().fallback_merges;
  }
  return out;
}

struct ClusterTotals {
  cluster::ClusterCounters counters;
  std::vector<std::uint64_t> dispatched;
  faas::PlatformCounters platform;
  horse::metrics::ContentionStats shard;
  horse::metrics::ContentionStats ull;
};

ClusterTotals cluster_totals(cluster::ClusterScheduler& sched) {
  ClusterTotals out;
  out.counters = sched.counters();
  for (std::size_t h = 0; h < sched.num_hosts(); ++h) {
    faas::Platform& platform = sched.host(h).platform();
    out.dispatched.push_back(sched.host(h).dispatched());
    out.platform += platform.counters();
    const faas::ControlPlaneSnapshot snap = platform.control_plane_snapshot();
    out.shard += snap.shard_contention;
    out.ull += snap.ull.contention;
  }
  return out;
}

double frac(const horse::metrics::ContentionStats& after,
            const horse::metrics::ContentionStats& before) {
  horse::metrics::ContentionStats delta;
  delta.acquisitions = after.acquisitions - before.acquisitions;
  delta.contended = after.contended - before.contended;
  return delta.contended_fraction();
}

RunResult run_traced(const Options& options) {
  RunResult result;
  const WorkloadPlan plan = make_plan(options.workload, options.seed);

  // Untraced reference for the tracing overhead.
  double untraced_p50 = 0;
  {
    const std::unique_ptr<System> system = build_system(plan, false);
    Runner runner(plan, *system, false);
    runner.warmup(kWarmupRequests);
    runner.open(0.35 * options.seconds);
    merge_tally(result, runner.tally());
    untraced_p50 = p(runner.open_samples().e2e, 0.5);
  }

  const std::unique_ptr<System> system = build_system(plan, true);
  cluster::ClusterScheduler& sched = *system->cluster;
  Runner runner(plan, *system, true);
  runner.warmup(kWarmupRequests);
  const ClusterTotals before = cluster_totals(sched);
  const CoreTotals core_before = core_totals(sched);
  for (int round = 0; round < kRounds; ++round) {
    runner.open(0.35 * options.seconds / kRounds);
    runner.closed(0.3 * options.seconds / kRounds, SIZE_MAX, true);
  }
  const ClusterTotals after = cluster_totals(sched);
  const CoreTotals core = core_totals(sched);
  merge_tally(result, runner.tally());

  OpenSamples& open = runner.open_samples();
  std::string why;
  if (!generator_valid(open, plan.rate_per_s, why)) {
    result.correct = false;
    result.error = "invalid run: " + why;
  }
  const Tally& tally = runner.tally();

  // The ledger must close: layer self times plus the residual account for
  // the traced end-to-end time.
  const double e2e_mean = mean(open.e2e);
  const double traced_n =
      static_cast<double>(std::max<std::uint64_t>(1, open.traced));
  double ledger_sum = 0;
  for (const double layer : open.self_sum) {
    ledger_sum += layer / traced_n;
  }
  const double closure = e2e_mean == 0 ? 0 : 100.0 * ledger_sum / e2e_mean;
  if (open.traced != open.e2e.size() || std::abs(closure - 100.0) > 3.0) {
    result.correct = false;
    result.error = "trace: ledger does not close (" + number(closure) +
                   "% of e2e, " + std::to_string(open.traced) + " of " +
                   std::to_string(open.e2e.size()) + " requests traced)";
  }
  const auto self_us = [&](Layer layer) {
    return open.self_sum[layer] / traced_n / 1e3;
  };

  std::uint64_t dispatched = 0;
  double share_max = 0;
  for (std::size_t h = 0; h < kHosts; ++h) {
    dispatched += after.dispatched[h] - before.dispatched[h];
  }
  for (std::size_t h = 0; h < kHosts; ++h) {
    share_max = std::max(
        share_max, dispatched == 0 ? 0
                                   : static_cast<double>(after.dispatched[h] -
                                                         before.dispatched[h]) /
                                         static_cast<double>(dispatched));
  }
  const std::uint64_t invocations =
      after.platform.invocations - before.platform.invocations;
  const std::uint64_t fallbacks =
      after.platform.rung_fallbacks - before.platform.rung_fallbacks;
  const std::uint64_t resumes = core.resumes - core_before.resumes;
  const auto cycles_mean = [&](std::uint64_t a, std::uint64_t b) {
    return resumes == 0 ? 0.0
                        : static_cast<double>(a - b) /
                              static_cast<double>(resumes);
  };
  std::size_t tracked = 0;
  std::size_t paused = 0;
  for (std::size_t h = 0; h < kHosts; ++h) {
    const auto snap = sched.host(h).platform().ull_manager().snapshot();
    tracked += snap.tracked;
    for (const auto& queue : snap.occupancy) {
      paused += queue.paused;
    }
  }
  const auto mode_pct = [&](faas::StartMode mode) {
    return pct(tally.modes[static_cast<std::size_t>(mode)], tally.ok);
  };

  auto& m = result.metrics;
  m = {
      {"gen.lag_p50_us", "us", p(open.lag, 0.5, 1e-3)},
      {"gen.lag_p99_us", "us", p(open.lag, 0.99, 1e-3)},
      {"gen.offered_kps", "k/s", plan.rate_per_s / 1e3},
      {"gen.achieved_kps", "k/s",
       open.span == 0 ? 0
                      : static_cast<double>(open.sent) /
                            static_cast<double>(open.span) * 1e6},
      {"cluster.submit_ns_p50", "ns", p(open.submit, 0.5)},
      {"cluster.submit_ns_p99", "ns", p(open.submit, 0.99)},
      {"cluster.host_share_max", "ratio", share_max},
      {"cluster.shed", "count",
       static_cast<double>(after.counters.shed - before.counters.shed)},
      {"cluster.expired", "count",
       static_cast<double>(after.counters.expired - before.counters.expired)},
      {"dispatch.queue_us_p50", "us", p(open.queue, 0.5, 1e-3)},
      {"dispatch.queue_us_p99", "us", p(open.queue, 0.99, 1e-3)},
      {"platform.start_ns_p50", "ns", p(open.start, 0.5)},
      {"platform.start_ns_p99", "ns", p(open.start, 0.99)},
      {"platform.mode.horse_pct", "%", mode_pct(faas::StartMode::kHorse)},
      {"platform.mode.warm_pct", "%", mode_pct(faas::StartMode::kWarm)},
      {"platform.mode.restore_pct", "%", mode_pct(faas::StartMode::kRestore)},
      {"platform.mode.cold_pct", "%", mode_pct(faas::StartMode::kCold)},
      {"platform.fallbacks_per_1k", "count",
       invocations == 0 ? 0
                        : 1000.0 * static_cast<double>(fallbacks) /
                              static_cast<double>(invocations)},
  };
  const auto count_of = [](const auto& counts, auto key) {
    const auto it = counts.find(key);
    return static_cast<double>(it == counts.end() ? 0 : it->second);
  };
  for (const util::StatusCode code : kFailureCodes) {
    m.push_back({"platform.failed_by." + std::string(util::to_string(code)),
                 "count", count_of(tally.failed_by, code)});
  }
  for (const faas::SubmissionReject reject : kRejects) {
    m.push_back(
        {"platform.rejected_by." + std::string(faas::to_string(reject)),
         "count", count_of(tally.rejected_by, reject)});
  }
  const std::vector<Metric> rest = {
      {"platform.shard_contended_frac", "ratio",
       frac(after.shard, before.shard)},
      {"platform.init_share_pct", "%",
       tally.init_total + tally.exec_total == 0
           ? 0
           : 100.0 * static_cast<double>(tally.init_total) /
                 static_cast<double>(tally.init_total + tally.exec_total)},
      {"core.resume_cycles_p50", "cycles",
       static_cast<double>(core.cycles.p50())},
      {"core.resume_cycles_p99", "cycles",
       static_cast<double>(core.cycles.p99())},
      {"core.prologue_cycles_mean", "cycles",
       cycles_mean(core.prologue, core_before.prologue)},
      {"core.lookup_cycles_mean", "cycles",
       cycles_mean(core.lookup, core_before.lookup)},
      {"core.splice_cycles_mean", "cycles",
       cycles_mean(core.splice, core_before.splice)},
      {"core.publish_cycles_mean", "cycles",
       cycles_mean(core.publish, core_before.publish)},
      {"core.inline_splice_pct", "%",
       pct(core.inline_splices - core_before.inline_splices, resumes)},
      {"core.degraded_resumes", "count",
       static_cast<double>(core.degraded - core_before.degraded)},
      {"core.ull_contended_frac", "ratio", frac(after.ull, before.ull)},
      {"core.tracked", "count", static_cast<double>(tracked)},
      {"vmm.resume_ns_p50", "ns", p(open.resume, 0.5)},
      {"vmm.contested_pct", "%",
       open.resume_total == 0 ? 0
                              : 100.0 * static_cast<double>(open.contested) /
                                    static_cast<double>(open.resume_total)},
      {"vmm.merge_ns_p50", "ns", p(open.merge, 0.5)},
      {"vmm.load_update_ns_p50", "ns", p(open.load_update, 0.5)},
      {"vmm.restore_us_p50", "us", p(open.restore, 0.5, 1e-3)},
      {"sched.ull_paused", "count", static_cast<double>(paused)},
      {"workloads.exec_ns_p50", "ns", p(open.exec, 0.5)},
      {"workloads.exec_ns_p99", "ns", p(open.exec, 0.99)},
      {"residual_us_p50", "us", p(open.residual, 0.5, 1e-3)},
      {"residual.post_exec_us_p50", "us", p(open.post_exec, 0.5, 1e-3)},
      {"self.gen_lag_us_mean", "us", self_us(kGenLag)},
      {"self.submit_us_mean", "us", self_us(kSubmit)},
      {"self.queue_us_mean", "us", self_us(kQueue)},
      {"self.start_us_mean", "us", self_us(kStart)},
      {"self.resume_us_mean", "us", self_us(kResume)},
      {"self.exec_us_mean", "us", self_us(kExec)},
      {"self.residual_us_mean", "us", self_us(kRequest)},
      {"trace.e2e_us_mean", "us", e2e_mean / 1e3},
      {"trace.e2e_us_p50", "us", p(open.e2e, 0.5, 1e-3)},
      {"trace.closure_pct", "%", closure},
      {"trace.overhead_pct", "%",
       untraced_p50 == 0 ? 0
                         : 100.0 * (p(open.e2e, 0.5) - untraced_p50) /
                               untraced_p50},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return result;
}

void emit(const Options& options, const RunResult& result) {
  std::printf("workload %s  seed %llu  trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const Metric& metric : result.metrics) {
    std::printf("%-34s %16.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (!result.correct) {
    std::printf("INCORRECT: %s\n", result.error.c_str());
    std::cerr << "e2ebench: " << result.error << "\n";
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
            number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Options options = e2e::parse(argc, argv);
  try {
    const e2e::CpuKeeper keeper;
    const e2e::RunResult result = options.trace
                                      ? e2e::run_traced(options)
                                      : e2e::run_end_to_end(options);
    e2e::emit(options, result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "e2ebench: " << error.what() << "\n";
    return 1;
  }
}
