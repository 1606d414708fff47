// Benchmark program: runs one workload against the simulator's public API
// and prints its raw samples, checks, counters and spans as one JSON object
// on stdout.  perfbench/run.py builds this program, turns that object into
// the metrics BENCHMARK.json names and prints them.
//
//   itb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--smoke] [--commit ID]
//
// Untraced (--trace 0): rounds, each on its own seed derived from --seed, of
// a fresh build (set-up), one point on a fresh workspace (time to result)
// and timed repetitions of that point on the same, now warm, workspace
// (simulation speed); then, untimed, the first rounds' points flit-exact for
// the fidelity gap.
// Traced (--trace 1): the same rounds, but every repetition runs twice,
// once through run_point_in and once through traced_point(), which makes
// the same public calls in the same order with a span around each layer.
// Spans are kept in memory and printed at the end.
//
// Every thread count is part of the workload: the process pins itself to
// `cpus` CPUs and overrides ITB_BENCH_JOBS, so neither the host's core
// count nor the caller's environment changes the shape of the load.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/zero_load.hpp"
#include "harness/json.hpp"
#include "harness/result_fields.hpp"
#include "harness/runner.hpp"
#include "harness/testbed.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/workspace.hpp"
#include "topo/generators.hpp"
#include "traffic/generator.hpp"
#include "traffic/patterns.hpp"

namespace itb {
namespace {

constexpr RoutingScheme kScheme = RoutingScheme::kItbRr;
constexpr double kLoad = 0.02;  // flits/ns/switch: about half ITB-RR saturation
constexpr int kMinReps = 2;     // timed repetitions a round runs at least
constexpr std::uint64_t kSeedStride = 1000003;  // between derived seeds

/// Round `i`'s seed; round 0 runs --seed itself.
std::uint64_t round_seed(std::uint64_t seed, int i) {
  return seed + static_cast<std::uint64_t>(i) * kSeedStride;
}

struct Workload {
  const char* name;
  Topology (*make_topology)();
  SwitchId root;
  int payload_bytes;
  TimePs warmup;
  TimePs measure;
  EngineKind engine;
  int shards;      // lanes of the sharded engine; 1 when serial
  int route_jobs;  // Testbed::warm fan-out
  int cpus;        // CPUs the process is pinned to
  int rounds;      // each a fresh build and its own seed
  int fidelity_seeds;  // rounds whose point is also run flit-exact
};

Topology make_torus512() { return make_torus_2d(8, 8, 8); }
Topology make_dragonfly16() { return make_dragonfly(16, 8, 8); }

// The torus runs the paper's 200 + 600 us window.  The Dragonfly executes
// ~25x more events per simulated microsecond, so its window is 40 + 100 us
// (~8k messages measured; accepted stays within 1% of offered) to keep one
// repetition near a second.  Its two lanes spin at barriers while the
// coordinator sleeps, so three CPUs leave one spare for everything else.
// The simulator's speed depends on the seed: on ~8% of seeds the torus
// runs 2-3x slower (the calendar-queue stall, README), so each round runs
// its own seed and the rounds are averaged; the stall then costs a run a
// share of its rounds instead of all or nothing, and the many short torus
// rounds keep that share, and the host's slow phases, close to their
// averages in every run.  latency_err_frac is deterministic per seed but
// varies between seeds by ~14% on torus512_uniform, which measures only
// ~1.5k messages per window; averaging eight seeds steadies it.
// torus512_msg32 is not in BENCHMARK.json: about half of its seeds overflow
// the stop&go slack (README), and a benchmark workload must not fail.
constexpr Workload kWorkloads[] = {
    {"torus512_uniform", make_torus512, 0, 512, us(200), us(600),
     EngineKind::kPod, 1, 1, 1, 60, 8},
    {"torus512_msg32", make_torus512, 0, 32, us(200), us(600),
     EngineKind::kPod, 1, 1, 1, 20, 1},
    {"dragonfly16_k2", make_dragonfly16, kAutoRoot, 512, us(40), us(100),
     EngineKind::kPodParallel, 2, 2, 3, 6, 1},
};

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - kProcessStart)
      .count();
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

// ---------------------------------------------------------------- spans

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  // index of the enclosing span, -1 at the root
  int rep;     // set-up build or measured repetition it belongs to
};

class SpanLog {
 public:
  /// Opens a span on construction and closes it on destruction; a null
  /// log makes it a no-op, so untraced and traced runs share code.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, int rep)
        : log_(log), idx_(log != nullptr ? log->open(name, rep) : -1) {}
    ~Scope() {
      if (log_ != nullptr) log_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int idx_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  int open(const char* name, int rep) {
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(
        {name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), rep});
    stack_.push_back(idx);
    return idx;
  }
  void close(int idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------- traced point

/// Per-repetition counts that RunResult does not carry.
struct PointCounters {
  int rep = 0;
  std::uint64_t events_measure = 0;      // events executed in the window
  std::uint64_t messages_generated = 0;  // whole run, warm-up included
};

constexpr int kComposeSamples = 1024;

/// Same pair sample and arithmetic as run_point's sampled_compose_ns, so the
/// traced point does the same work; its result is host-side only.
double compose_sample_ns(const RouteSet& routes) {
  const auto n = static_cast<std::uint64_t>(routes.num_switches());
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kComposeSamples; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto s = static_cast<SwitchId>((lcg >> 33) % n);
    const auto d = static_cast<SwitchId>((lcg >> 13) % n);
    const AltsView alts = routes.alternatives(s, d);
    const RouteView v = alts[(lcg >> 3) % alts.size()];
    sink += static_cast<std::uint64_t>(v.total_switch_hops) +
            v.legs.back().ports.size();
  }
  const std::chrono::duration<double, std::nano> dt = Clock::now() - t0;
  return (dt.count() + static_cast<double>(sink & 1) * 1e-15) /
         kComposeSamples;
}

/// run_point_in (harness/runner.cpp) for the configuration this benchmark
/// runs: no tracer, profiler, sampler, link utilisation or checked mode.
/// Same public calls in the same order, each inside a span.  If runner.cpp
/// changes what it computes, the traced_matches_untraced check fails.
RunResult traced_point(SimWorkspace& ws, const Testbed& tb,
                       const DestinationPattern& pattern, const RunConfig& cfg,
                       SpanLog& log, const char* label, PointCounters& c) {
  SpanLog::Scope point(&log, label, c.rep);
  const RouteSet& routes = tb.routes(kScheme);
  {
    SpanLog::Scope s(&log, "sim.prepare", c.rep);
    ws.prepare(cfg.engine, tb.topo(), routes, cfg.params, policy_of(kScheme),
               cfg.seed ^ 0x9e37u, cfg.shards);
  }
  Simulator& sim = ws.sim();
  Network& net = ws.net();
  MetricsCollector& metrics = ws.metrics();
  metrics.attach(net);
  const bool par = ws.parallel();
  ParallelEngine& eng = ws.engine();
  const auto advance = [&](TimePs t) {
    if (par) {
      eng.run_until(t);
      sim.run_until(t);
      net.flush_deliveries();
    } else {
      sim.run_until(t);
    }
  };
  const auto events_now = [&] {
    return sim.events_executed() + (par ? eng.events_executed() : 0);
  };

  TrafficConfig tcfg;
  tcfg.load_flits_per_ns_per_switch = cfg.load_flits_per_ns_per_switch;
  tcfg.payload_bytes = cfg.payload_bytes;
  tcfg.poisson = cfg.poisson;
  tcfg.seed = cfg.seed;
  TrafficGenerator* gen = nullptr;
  {
    SpanLog::Scope s(&log, "traffic.start", c.rep);
    gen = &ws.generator(pattern, tcfg);
    gen->start();
  }
  {
    SpanLog::Scope s(&log, "sim.warmup", c.rep);
    advance(cfg.warmup);
  }
  metrics.reset_window(sim.now());
  net.reset_channel_stats();
  const std::uint64_t gen_before = gen->messages_generated();
  const std::uint64_t backlog_before = net.source_backlog_packets();
  const std::uint64_t events_before = events_now();
  {
    SpanLog::Scope s(&log, "sim.measure", c.rep);
    advance(cfg.warmup + cfg.measure);
  }
  c.events_measure = events_now() - events_before;

  RunResult r;
  SpanLog::Scope harvest(&log, "metrics.harvest", c.rep);
  const TimePs window = sim.now() - cfg.warmup;
  const double window_ns = to_ns(window);
  const auto switches = static_cast<double>(tb.topo().num_switches());
  const std::uint64_t gen_count = gen->messages_generated() - gen_before;
  r.offered = static_cast<double>(gen_count) *
              static_cast<double>(cfg.payload_bytes) / window_ns / switches;
  r.accepted = metrics.accepted_flits_per_ns_per_switch(sim.now());
  r.avg_latency_ns = metrics.avg_latency_ns();
  r.avg_latency_gen_ns = metrics.avg_latency_from_generation_ns();
  r.p50_latency_ns = metrics.p50_latency_ns();
  r.p99_latency_ns = metrics.p99_latency_ns();
  r.latency_ci95_ns = metrics.latency_ci95_ns();
  r.avg_itbs = metrics.avg_itbs_per_message();
  r.delivered = metrics.delivered();
  r.spills = net.itb_spills();
  r.fc_violations = net.flow_control_violations();
  r.max_buffer_occupancy = net.max_buffer_occupancy();
  const std::uint64_t backlog_after = net.source_backlog_packets();
  const bool backlog_grew =
      backlog_after > backlog_before &&
      (backlog_after - backlog_before) * 10 > metrics.delivered();
  r.saturated = (r.accepted < 0.95 * r.offered) || backlog_grew;
  c.messages_generated = gen->messages_generated();
  gen->stop();

  net.audit_invariants(/*quiescent=*/false);
  const std::uint64_t causality =
      sim.causality_violations() + (par ? eng.causality_violations() : 0);
  if (causality > 0) {
    net.invariants().record(
        InvariantKind::kCausality, sim.now(),
        static_cast<std::int64_t>(causality),
        std::to_string(causality) +
            " event(s) executed before the simulator clock");
  }
  r.checked = cfg.checked;
  r.invariant_violations = net.invariants().total();
  r.violations = net.invariants().violations();
  r.events = sim.events_executed();
  r.peak_event_queue_len = sim.peak_queue_len();
  if (par) {
    r.events += eng.events_executed();
    r.peak_event_queue_len += eng.peak_queue_len();
    r.shards = static_cast<std::uint64_t>(eng.lanes());
    r.window_ns = to_ns(eng.plan().lookahead);
    r.windows_executed = eng.windows_executed();
    r.boundary_events = eng.boundary_events();
    r.boundary_ties = eng.order_ties() + net.delivery_ties();
    r.barrier_wait_ms =
        static_cast<double>(eng.barrier_wait_ns_total()) / 1e6;
    r.lane_imbalance = eng.lane_imbalance();
    r.mailbox_depth_peak = eng.mailbox_depth_peak();
    r.cross_lane_credits = eng.cross_lane_credits();
  }
  r.events_coalesced = net.chunk_events_coalesced();
  r.route_table_bytes = routes.table_bytes();
  r.route_build_ms = routes.build_ms();
  r.route_segments_shared = routes.segments_shared();
  r.route_core_pairs = routes.store().num_pairs();
  r.route_core_bytes = routes.store().core_bytes();
  {
    SpanLog::Scope s(&log, "core.compose_sample", c.rep);
    r.route_compose_ns_avg = compose_sample_ns(routes);
  }
  r.workspace_reuses = ws.reuses();
  r.arena_bytes_peak = net.arena_bytes_peak();
  r.heap_allocs_steady_state = net.heap_allocs_this_run();
  return r;
}

// ---------------------------------------------------------------- checks

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

/// Point accounting: a point fails when the simulator's invariant ledgers
/// flag it or when it is not bit-identical to its reference.
class Ledger {
 public:
  /// The first point of a seed: what its repetitions must match.
  void reference(const RunResult& r, const char* what) {
    ref_ = r;
    tally(r, false, what);
  }
  /// A repetition of the current seed's point.
  void point(const RunResult& r, const char* what) {
    tally(r, !same_simulated_metrics(*ref_, r), what);
  }
  /// A point of another seed or engine, compared by the caller.
  void tally(const RunResult& r, bool differs, const char* what) {
    ++attempted_;
    if (r.invariant_violations > 0) {
      if (invariant_points_ == 0 && !r.violations.empty()) {
        first_violation_ = std::string(to_string(r.violations[0].kind)) +
                           ": " + r.violations[0].detail;
      }
      ++invariant_points_;
    }
    if (differs) {
      ++differing_points_;
      differing_what_ = what;
    }
    if (r.invariant_violations > 0 || differs) ++failed_;
  }
  void check(std::string name, bool ok, std::string detail) {
    checks_.push_back({std::move(name), ok, std::move(detail)});
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// The per-point tallies as checks: points with invariant violations
  /// (ROADMAP item 4's stop&go defect at 32 B shows here) and repetitions
  /// that differ from their seed's first point.
  [[nodiscard]] std::vector<Check> all_checks() const {
    std::vector<Check> out = checks_;
    out.push_back({"invariants_clean", invariant_points_ == 0,
                   std::to_string(invariant_points_) + " of " +
                       std::to_string(attempted_) +
                       " points had invariant violations (first: " +
                       first_violation_ + ")"});
    out.push_back({"repetitions_identical", differing_points_ == 0,
                   std::to_string(differing_points_) + " of " +
                       std::to_string(attempted_) +
                       " points differ from their reference" +
                       (differing_points_ > 0 ? std::string(" (last: ") +
                                                    differing_what_ + ")"
                                              : std::string())});
    return out;
  }

 private:
  std::optional<RunResult> ref_;
  std::string first_violation_ = "none";
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t invariant_points_ = 0;
  std::uint64_t differing_points_ = 0;
  const char* differing_what_ = "";
};

/// How a sharded point compares with the serial run of the same point.
/// The engine guarantees bit-identity only when no two cross-lane events
/// meet at one picosecond (RunResult::boundary_ties == 0).  Ties leave the
/// merge order of those events free, which can change the order in which
/// floating-point averages (latencies) are summed, and so their last bits,
/// but no count.  With ties, a float field may therefore differ by rounding
/// (kSumOrderRel); any other difference fails.  The detail names every
/// field that is not bit-identical.
constexpr double kSumOrderRel = 1e-9;

Check compare_with_serial(const RunResult& sharded, const RunResult& serial) {
  const char* name = "sharded_matches_serial";
  if (same_simulated_metrics(sharded, serial)) {
    return {name, true, "bit-identical"};
  }
  bool ok = true;
  double worst = 0.0;
  std::string fields;
  for (const ResultField& f : result_fields()) {
    if (f.cls != FieldClass::kSimulated) continue;
    const FieldValue a = f.get(sharded);
    const FieldValue b = f.get(serial);
    if (a == b) continue;
    fields += (fields.empty() ? "" : ", ") + std::string(f.json_key);
    if (f.type != FieldType::kF64 || sharded.boundary_ties == 0 ||
        b.f64 == 0.0) {
      ok = false;
      continue;
    }
    const double rel = std::abs(a.f64 - b.f64) / std::abs(b.f64);
    worst = std::max(worst, rel);
    ok = ok && rel <= kSumOrderRel;
  }
  if (fields.empty()) return {name, false, "non-scalar results differ"};
  char worst_s[32];
  std::snprintf(worst_s, sizeof worst_s, "%.3g", worst);
  return {name, ok,
          fields + " not bit-identical; largest relative float difference " +
              worst_s + " (rounding allowed up to 1e-9 with " +
              std::to_string(sharded.boundary_ties) + " boundary ties)"};
}

// ---------------------------------------------------------------- output

template <typename T>
void write_list(JsonWriter& out, const std::vector<T>& xs) {
  out.begin_array();
  for (const T& x : xs) out.value(x);
  out.end_array();
}

double vm_hwm_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::vector<double> load_average() {
  std::ifstream in("/proc/loadavg");
  std::vector<double> out(3, 0.0);
  for (double& x : out) in >> x;
  return out;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

/// Pins the process (and every thread it creates later) to the last `n`
/// allowed CPUs; the first CPUs of a VM take most device interrupts.
/// Returns the CPUs the process may run on afterwards.
std::vector<int> pin_to_cpus(int n) {
  std::vector<int> cpus = allowed_cpus();
  if (static_cast<int>(cpus.size()) <= n) return cpus;
  cpus.erase(cpus.begin(), cpus.end() - n);
  cpu_set_t want;
  CPU_ZERO(&want);
  for (const int c : cpus) CPU_SET(c, &want);
  if (sched_setaffinity(0, sizeof want, &want) != 0) return allowed_cpus();
  return cpus;
}

/// One traced repetition's counts: RunResult fields plus PointCounters.
void write_counters(JsonWriter& out, const PointCounters& c,
                    const RunResult& r) {
  out.begin_object();
  out.key("rep").value(c.rep);
  out.key("events").value(r.events);
  out.key("events_measure").value(c.events_measure);
  out.key("events_coalesced").value(r.events_coalesced);
  out.key("peak_queue_len").value(r.peak_event_queue_len);
  out.key("messages_generated").value(c.messages_generated);
  out.key("delivered").value(r.delivered);
  out.key("fc_violations").value(r.fc_violations);
  out.key("max_buffer_occupancy").value(r.max_buffer_occupancy);
  out.key("itbs_per_msg").value(r.avg_itbs);
  out.key("spills").value(r.spills);
  out.key("compose_ns").value(r.route_compose_ns_avg);
  out.key("lanes").value(r.shards);
  out.key("barrier_wait_ms").value(r.barrier_wait_ms);
  out.key("lane_imbalance").value(r.lane_imbalance);
  out.key("windows_executed").value(r.windows_executed);
  out.key("boundary_events").value(r.boundary_events);
  out.key("mailbox_depth_peak").value(r.mailbox_depth_peak);
  out.key("boundary_ties").value(r.boundary_ties);
  out.end_object();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "itb_perfbench: " << why
            << "\nusage: itb_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--commit ID]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value after " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--commit") {
        o.commit = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::exception&) {
      usage("bad value '" + v + "' for " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

int run(const Options& opt) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) found = &w;
  }
  if (found == nullptr) usage("unknown workload '" + opt.workload + "'");
  Workload w = *found;
  if (opt.smoke) {
    // Seconds-long pass over every code path; the numbers mean nothing.
    w.warmup = w.engine == EngineKind::kPodParallel ? us(10) : us(50);
    w.measure = w.engine == EngineKind::kPodParallel ? us(20) : us(150);
    w.rounds = 2;
    w.fidelity_seeds = 1;
  }
  const std::vector<double> loadavg = load_average();
  const std::size_t cpus_allowed = allowed_cpus().size();
  const std::vector<int> cpus = pin_to_cpus(w.cpus);
  const std::string jobs = std::to_string(w.route_jobs);
  setenv("ITB_BENCH_JOBS", jobs.c_str(), 1);  // default_jobs() == route_jobs

  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = kLoad;
  cfg.payload_bytes = w.payload_bytes;
  cfg.warmup = w.warmup;
  cfg.measure = w.measure;
  cfg.seed = opt.seed;
  cfg.engine = w.engine;
  cfg.shards = w.shards;
  cfg.checked = false;
  const double sim_us = to_ns(w.warmup + w.measure) / 1e3;

  SpanLog log;
  SpanLog* spans = opt.trace ? &log : nullptr;
  Ledger ledger;
  std::vector<double> setup_s;
  std::vector<double> time_to_result_s;
  std::vector<std::vector<double>> point_wall_s;  // per round
  std::vector<RunResult> cold;                    // per round
  std::vector<std::pair<PointCounters, RunResult>> traced;  // per repetition

  // The run is `rounds` rounds, each on its own seed.  Each builds a fresh
  // bed (set-up) and runs one point on a fresh workspace (time to result);
  // that cold point is also the untimed warm-up of the workspace, on which
  // the point is then repeated, timed, for the round's share of what is left
  // of --seconds.  Spreading the cold samples over the whole run exposes
  // them to the same host conditions as the warm ones; the host this was
  // tuned on drifts between fast and slow phases.  The previous bed and
  // workspace are freed before the next are made, so at most one bed and
  // one workspace are alive at a time, as in a one-point itbsim run.
  std::unique_ptr<Testbed> tb;
  std::optional<UniformPattern> pattern;
  std::unique_ptr<SimWorkspace> ws;
  std::uint64_t traced_mismatches = 0;
  const int rounds = w.rounds;
  const std::int64_t run_end =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  const int min_reps = opt.smoke ? 1 : kMinReps;
  int rep = 0;
  for (int round = 0; round < rounds; ++round) {
    cfg.seed = round_seed(opt.seed, round);
    ws.reset();
    tb.reset();
    const std::int64_t t0 = now_ns();
    {
      SpanLog::Scope setup(spans, "bench.setup", round);
      std::optional<Topology> topo;
      {
        SpanLog::Scope s(spans, "topo.generate", round);
        topo.emplace(w.make_topology());
      }
      {
        SpanLog::Scope s(spans, "testbed.construct", round);
        tb = std::make_unique<Testbed>(std::move(*topo), w.root);
      }
      SpanLog::Scope s(spans, "testbed.warm", round);
      tb->warm(kScheme, w.route_jobs);
    }
    setup_s.push_back(seconds_since(t0));
    if (!pattern) pattern.emplace(tb->topo().num_hosts());
    ws = std::make_unique<SimWorkspace>();
    if (spans != nullptr) {
      PointCounters c;
      c.rep = round;
      cold.push_back(traced_point(*ws, *tb, *pattern, cfg, log,
                                  "harness.cold_point", c));
    } else {
      cold.push_back(run_point_in(*ws, *tb, kScheme, *pattern, cfg));
    }
    time_to_result_s.push_back(seconds_since(t0));
    ledger.reference(cold.back(), "cold point");

    const std::int64_t deadline =
        now_ns() + (run_end - now_ns()) / (rounds - round);
    point_wall_s.emplace_back();
    for (int n = 0; n < min_reps || now_ns() < deadline; ++n, ++rep) {
      const std::int64_t r0 = now_ns();
      const RunResult r = run_point_in(*ws, *tb, kScheme, *pattern, cfg);
      point_wall_s.back().push_back(seconds_since(r0));
      ledger.point(r, "repetition");
      if (spans != nullptr) {
        PointCounters c;
        c.rep = rep;
        RunResult t =
            traced_point(*ws, *tb, *pattern, cfg, log, "harness.run_point", c);
        ledger.point(t, "traced repetition");
        if (!same_simulated_metrics(r, t)) ++traced_mismatches;
        traced.emplace_back(c, std::move(t));
      }
    }
  }
  // What the measured point pays; the untimed fidelity and serial-check
  // points below change the point's configuration and are not counted.
  const double peak_rss_mb = vm_hwm_mib();

  const RunResult& first = cold.front();  // the point of --seed
  const double zero_load = average_zero_load_latency_ns(
      tb->topo(), tb->routes(kScheme), w.payload_bytes, cfg.params);
  int below_zero_load = 0;
  int off_offered = 0;
  for (const RunResult& r : cold) {
    below_zero_load += r.avg_latency_ns < zero_load ? 1 : 0;
    off_offered +=
        std::abs(r.accepted - r.offered) > 0.05 * r.offered ? 1 : 0;
  }
  const std::string of_rounds = " of " + std::to_string(rounds) + " seeds";
  ledger.check("latency_above_zero_load", below_zero_load == 0,
               std::to_string(below_zero_load) + of_rounds +
                   " below zero-load " + std::to_string(zero_load) +
                   " ns; --seed: avg " + std::to_string(first.avg_latency_ns) +
                   " ns");
  ledger.check("accepted_near_offered", off_offered == 0,
               std::to_string(off_offered) + of_rounds +
                   " accept more than 5% off offered; --seed: accepted " +
                   std::to_string(first.accepted) + ", offered " +
                   std::to_string(first.offered) + " flits/ns/switch");
  if (spans != nullptr) {
    ledger.check("traced_matches_untraced", traced_mismatches == 0,
                 std::to_string(traced_mismatches) + " of " +
                     std::to_string(traced.size()) +
                     " traced repetitions differ from run_point");
  }

  // Fidelity, untimed and untraced: the first `fidelity_seeds` rounds'
  // points (chunk 8) against the same points flit-exact (chunk_flits = 1).
  std::vector<double> err;
  std::vector<double> exact_ns;
  if (!opt.trace) {
    std::uint64_t exact_violations = 0;
    for (int i = 0; i < std::min(w.fidelity_seeds, rounds); ++i) {
      RunConfig exact = cfg;
      exact.seed = round_seed(opt.seed, i);
      exact.params.chunk_flits = 1;
      const RunResult f = run_point_in(*ws, *tb, kScheme, *pattern, exact);
      exact_violations += f.invariant_violations;
      exact_ns.push_back(f.avg_latency_ns);
      err.push_back(std::abs(cold[static_cast<std::size_t>(i)].avg_latency_ns -
                             f.avg_latency_ns) /
                    f.avg_latency_ns);
    }
    ledger.check("flit_exact_reference_clean", exact_violations == 0,
                 std::to_string(exact_violations) +
                     " invariant violations in the chunk_flits=1 runs");
  }
  ws.reset();

  std::optional<double> serial_wall_s;
  if (w.engine == EngineKind::kPodParallel) {
    // The sharded engine must reproduce the serial run (compare_with_serial);
    // the queue high-water mark differs by design (a sum of per-lane
    // peaks).  The first serial point is the check; a second one on the now
    // warm workspace is timed, to set against the warm sharded repetitions.
    RunConfig serial = cfg;
    serial.seed = opt.seed;
    serial.engine = EngineKind::kPod;
    serial.shards = 1;
    SimWorkspace sws;
    RunResult s = run_point_in(sws, *tb, kScheme, *pattern, serial);
    const std::int64_t t0 = now_ns();
    const RunResult again = run_point_in(sws, *tb, kScheme, *pattern, serial);
    serial_wall_s = seconds_since(t0);
    ledger.tally(again, !same_simulated_metrics(s, again), "serial repetition");
    s.peak_event_queue_len = first.peak_event_queue_len;
    Check same = compare_with_serial(first, s);
    ledger.tally(s, !same.ok, "serial point");
    ledger.check(std::move(same.name), same.ok, std::move(same.detail));
  }

  JsonWriter out;
  out.begin_object();
  out.key("workload").value(w.name);
  out.key("seed").value(opt.seed);
  out.key("trace").value(opt.trace);
  out.key("smoke").value(opt.smoke);
  out.key("provenance").begin_object();
  out.key("commit").value(opt.commit);
  out.key("build_type").value(ITB_PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  out.key("compiler").value("clang " __clang_version__);
#elif defined(__GNUC__)
  out.key("compiler").value("gcc " __VERSION__);
#else
  out.key("compiler").value("unknown");
#endif
  out.key("nproc").value(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  out.key("cpus_allowed").value(static_cast<std::uint64_t>(cpus_allowed));
  write_list(out.key("cpus_pinned"), cpus);
  write_list(out.key("loadavg_start"), loadavg);
  out.key("engine").value(to_string(w.engine));
  out.key("shards").value(w.shards);
  out.key("route_jobs").value(w.route_jobs);
  out.key("itb_bench_jobs").value(jobs);
  out.key("warmup_us").value(to_ns(w.warmup) / 1e3);
  out.key("measure_us").value(to_ns(w.measure) / 1e3);
  out.end_object();
  out.key("attempted").value(ledger.attempted());
  out.key("failed").value(ledger.failed());
  out.key("checks").begin_array();
  for (const Check& c : ledger.all_checks()) {
    out.begin_object();
    out.key("name").value(c.name);
    out.key("ok").value(c.ok);
    out.key("detail").value(c.detail);
    out.end_object();
  }
  out.end_array();
  out.key("samples").begin_object();
  write_list(out.key("setup_s"), setup_s);
  write_list(out.key("time_to_result_s"), time_to_result_s);
  out.key("point_wall_s").begin_array();
  for (const std::vector<double>& walls : point_wall_s) write_list(out, walls);
  out.end_array();
  out.end_object();
  out.key("scalars").begin_object();
  out.key("sim_us").value(sim_us);
  out.key("latency_ns").value(first.avg_latency_ns);
  out.key("zero_load_latency_ns").value(zero_load);
  out.key("route_table_mb")
      .value(static_cast<double>(tb->routes(kScheme).table_bytes()) /
             (1024.0 * 1024.0));
  if (serial_wall_s) out.key("serial_wall_s").value(*serial_wall_s);
  if (!opt.trace) {
    out.key("latency_flit_exact_ns").value(exact_ns.front());
    write_list(out.key("latency_err_fracs"), err);
  }
  out.key("fc_violations").value(first.fc_violations);
  out.key("max_buffer_occupancy").value(first.max_buffer_occupancy);
  out.key("invariant_violations").value(first.invariant_violations);
  out.key("peak_rss_mb").value(peak_rss_mb);
  out.end_object();
  out.key("counters").begin_array();
  for (const auto& [c, r] : traced) write_counters(out, c, r);
  out.end_array();
  out.key("spans").begin_array();
  for (const Span& sp : log.spans()) {
    out.begin_object();
    out.key("name").value(sp.name);
    out.key("start_ns").value(sp.start_ns);
    out.key("end_ns").value(sp.end_ns);
    out.key("parent").value(sp.parent);
    out.key("rep").value(sp.rep);
    out.end_object();
  }
  out.end_array();
  out.end_object();
  std::cout << out.str() << '\n';
  return 0;
}

}  // namespace
}  // namespace itb

int main(int argc, char** argv) {
  try {
    return itb::run(itb::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "itb_perfbench: " << e.what() << '\n';
    return 1;
  }
}
