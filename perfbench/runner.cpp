/// \file runner.cpp
/// One repetition of one benchmark workload, in a process of its own.
///
///   perfbench_runner --workload paper_panel|flat_scale|fault_recovery
///                    --seed N --mode setup|plain|traced [--dags N]
///
/// Every workload runs on the paper's scenario (bench::paper_config:
/// failures and background load on, 20-minute stale monitoring, 48 h
/// horizon, scenario seed 20050404).  `--seed` seeds only the workload
/// generator, so seed 20050404 reproduces the figure benches' DAGs
/// exactly and any other seed is a fresh workload on the same grid.
///
/// Modes:
///   setup   build the run (scenario, tenants, DAGs, submissions) and exit;
///   plain   build it and run the untraced loop: Scenario::run cut into
///           sim-minute slices, so the CPU's speed can be sampled between
///           them (see "calibration" below);
///   traced  build it and run a benchmark-owned step loop that times every
///           engine step and assigns it to a layer (see README.md).
/// Traced runs end with rounds of crash + recovery of every tenant's
/// server, taken after the simulated results are read, so recovery cost
/// is measured on every workload without touching them.
///
/// The program under test is only ever called through its public API; the
/// runner prints one JSON object with the simulated digest, the
/// correctness inputs and every measurement.  run.py aggregates them.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/scenario.hpp"

namespace {

using namespace sphinx;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -------------------------------------------------------------- calibration
//
// On a shared VM a thread runs up to ~40% slower for seconds at a time
// while a neighbour loads the same core; wall time and CPU time both show
// it, so medians of a few paper-scale runs swing by a fifth.  A fixed
// kernel, timed right after each measured stretch, tells how fast the CPU
// was just then.  A stretch's calibrated time is
//     host time x (kReferenceKernelSeconds / kernel time)^kSensitivity,
// the host time the stretch would have taken on a CPU that runs the
// kernel in kReferenceKernelSeconds.  The simulator, with its larger
// working set, slows down more than the kernel: over 14 runs of the fig5
// panel in a fast and a slow phase of the machine, exponent 1.3 left the
// least spread (3.3%, against 5.2% at 1.0 and 19% uncalibrated).  The
// kernel belongs to the benchmark, so a change to the program under test
// cannot move it.

constexpr double kReferenceKernelSeconds = 1e-3;
constexpr double kSensitivity = 1.3;
/// Shortest stretch of simulation between two speed samples.
constexpr double kSegmentSeconds = 0.1;

volatile std::uint64_t kernel_sink = 0;  // keeps the kernel's work alive

/// Tree inserts and lookups plus a sort: the simulator's own mix of
/// pointer chasing, allocation and branches, at a fixed input.
double kernel_seconds() {
  const auto t0 = Clock::now();
  std::map<std::uint32_t, std::uint64_t> tree;
  std::uint32_t x = 12345;
  const auto next = [&x] { return x = x * 1103515245u + 12345u; };
  for (int i = 0; i < 4000; ++i) tree[next() % 100000] += i;
  std::uint64_t hits = 0;
  for (int i = 0; i < 4000; ++i) {
    if (const auto it = tree.find(next() % 100000); it != tree.end()) {
      hits += it->second;
    }
  }
  std::vector<std::uint32_t> values(4000);
  for (std::uint32_t& v : values) v = next();
  std::sort(values.begin(), values.end());
  kernel_sink = hits + values[7];
  return seconds_since(t0);
}

/// (Reference speed / current speed)^kSensitivity; the best of two kernel
/// runs, so a single interrupt does not count as a slow CPU.
double speed_factor() {
  return std::pow(
      kReferenceKernelSeconds / std::min(kernel_seconds(), kernel_seconds()),
      kSensitivity);
}

// ---------------------------------------------------------------- workloads

struct Workload {
  std::vector<exp::TenantSpec> tenants;
  int dags_per_tenant = 120;
  workflow::WorkloadConfig shape;
  rpc::NetworkFaultConfig faults;
  Duration crash_period = 0.0;  ///< 0: no crashes while the run is live
};

Workload make_workload(const std::string& name) {
  Workload w;
  if (name == "paper_panel") {
    // Figure 5: four competing servers x 120 paper-shape DAGs.
    w.tenants = exp::standard_panel();
  } else if (name == "flat_scale") {
    // Bag-of-tasks at 16x the paper's size: every job is ready at once.
    w.tenants = {{"completion-time", exp::TenantOptions{}}};
    w.dags_per_tenant = 1920;
    w.shape.max_parents = 0;
  } else if (name == "fault_recovery") {
    // check.sh's lossy-wire pair (ct with feedback, rr without) with
    // checkpoints, plus a server crash every 10 sim-minutes.
    exp::TenantOptions feedback;
    feedback.checkpoint_every_records = 200;
    exp::TenantOptions no_feedback = feedback;
    no_feedback.algorithm = core::Algorithm::kRoundRobin;
    no_feedback.use_feedback = false;
    w.tenants = {{"feedback", feedback}, {"no-feedback", no_feedback}};
    rpc::LinkFaultRule rule;  // empty prefixes: every RPC link
    rule.loss = 0.05;
    rule.duplicate = 0.02;
    w.faults.rules.push_back(rule);
    w.crash_period = minutes(10);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ------------------------------------------------------------------- layers

enum Layer { kCore, kRpc, kData, kDb, kMonitor, kGrid, kUnattributed,
             kLayerCount };
constexpr std::array<const char*, kUnattributed> kLayerNames = {
    "core", "rpc", "data", "db", "monitor", "grid"};

/// The layer a step belongs to, from the first trace event it appended.
/// No workload runs the ctrl/ control plane, so lease events stay
/// unattributed.
Layer layer_of(obs::TraceKind kind) {
  using K = obs::TraceKind;
  switch (kind) {
    case K::kSweepBegin: case K::kSweepEnd: case K::kDagReceived:
    case K::kDagFinished: case K::kJobTransition: case K::kPlanSent:
    case K::kTrackerTimeout: case K::kTrackerExtension:
    case K::kSpeculationLaunched: case K::kSpeculationWon:
    case K::kSpeculationCancelled:
      return kCore;
    case K::kBusDelivery: case K::kBusLoss: case K::kBusDuplicate:
    case K::kBusPartitionDrop: case K::kBusReorder: case K::kBusDrop:
      return kRpc;
    case K::kMonitorSample:
      return kMonitor;
    case K::kSiteOutage: case K::kSiteRepair:
      return kGrid;
    case K::kCheckpoint: case K::kServerCrash: case K::kServerRecovery:
      return kDb;
    default:
      return kUnattributed;
  }
}

/// Host time of the steps (or hooks) one layer was charged with.
struct Timing {
  std::vector<double> seconds;
  [[nodiscard]] double total() const {
    double sum = 0.0;
    for (const double s : seconds) sum += s;
    return sum;
  }
  [[nodiscard]] double mean() const {
    return seconds.empty() ? 0.0 : total() / static_cast<double>(seconds.size());
  }
  /// Nearest-rank percentile.
  [[nodiscard]] double percentile(double q) const {
    if (seconds.empty()) return 0.0;
    std::vector<double> sorted = seconds;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[rank];
  }
};

// ---------------------------------------------------------------- the run

struct Recoveries {
  Timing capture;  ///< Scenario::crash_server
  Timing replay;   ///< Scenario::recover_server
  /// Calibrated capture + replay, filled in by calibrate() once the speed
  /// of the stretch that ran the recovery is known.
  std::vector<double> calibrated_s;
  std::size_t replayed_records = 0;
  std::uint64_t full_scans = 0;  ///< table scans of servers since replaced

  void calibrate(double factor) {
    for (std::size_t i = calibrated_s.size(); i < capture.seconds.size(); ++i) {
      calibrated_s.push_back(factor *
                             (capture.seconds[i] + replay.seconds[i]));
    }
  }
};

std::uint64_t full_scans(core::SphinxServer& server) {
  db::Database& database = server.warehouse().database();
  std::uint64_t scans = 0;
  for (const std::string& name : database.table_names()) {
    scans += database.table(name).full_scans();
  }
  return scans;
}

void crash_and_recover(exp::Scenario& scenario, std::size_t tenant,
                       Recoveries& log) {
  exp::Tenant& t = scenario.tenants()[tenant];
  log.full_scans += full_scans(*t.server);
  const auto t0 = Clock::now();
  scenario.crash_server(tenant);
  log.capture.seconds.push_back(seconds_since(t0));
  log.replayed_records += t.durable->journal.size();
  const auto t1 = Clock::now();
  if (const auto status = scenario.recover_server(tenant); !status.ok()) {
    throw std::runtime_error("recovery of " + t.label +
                             " failed: " + status.error().to_string());
  }
  log.replay.seconds.push_back(seconds_since(t1));
}

/// A fully built run, stopped just before its first engine step.
struct Run {
  Workload workload;
  SimTime horizon = 0.0;
  std::unique_ptr<exp::Scenario> scenario;
  std::vector<std::vector<workflow::Dag>> dags;
  std::unique_ptr<sim::PeriodicProcess> crasher;
  Recoveries recoveries;
  Timing submit;                  ///< SphinxClient::submit, traced runs only
  bool time_submissions = false;
  Layer hook_layer = kUnattributed;  ///< set by a benchmark hook mid-step
  double scenario_s = 0.0;        ///< Scenario construction + start()
  double generate_s = 0.0;        ///< generate_batch, all tenants
  double setup_s = 0.0;           ///< process start -> first engine step
  double setup_calibrated_s = 0.0;
};

/// Host time of a simulation loop, raw and calibrated.
struct LoopTime {
  double host_s = 0.0;
  double calibrated_s = 0.0;

  /// Ends a stretch of `segment_s` host seconds: samples the CPU's speed
  /// and charges the stretch, and the recoveries it ran, at that speed.
  void close(double segment_s, Recoveries& recoveries) {
    const double factor = speed_factor();
    host_s += segment_s;
    calibrated_s += segment_s * factor;
    recoveries.calibrate(factor);
  }
};

/// Crash + recovery rounds over every tenant, after the simulated results
/// are read.  The recovered server holds the same journal, so each round
/// repeats the same work.  Rounds go on, up to 4, while they have taken
/// less than 0.5 s: a cheap recovery gets more samples, and flat_scale's
/// full replay (over a second) gets one.  Each recovery is charged at the
/// mean CPU speed sampled just before and just after it.
void recover_after_run(Run& run) {
  const auto start = Clock::now();
  for (int round = 0; round < 4 && seconds_since(start) < 0.5; ++round) {
    for (std::size_t t = 0; t < run.scenario->tenants().size(); ++t) {
      const double before = speed_factor();
      crash_and_recover(*run.scenario, t, run.recoveries);
      run.recoveries.calibrate((before + speed_factor()) / 2.0);
    }
  }
}

void build(Run& run, const std::string& name, std::uint64_t seed,
           int dags_override, bool traced) {
  run.workload = make_workload(name);
  Workload& w = run.workload;
  if (dags_override > 0) w.dags_per_tenant = dags_override;
  run.time_submissions = traced;

  exp::ExperimentConfig config = bench::paper_config(w.dags_per_tenant);
  config.scenario.network_faults = w.faults;
  run.horizon = config.horizon;

  auto t0 = Clock::now();
  run.scenario = std::make_unique<exp::Scenario>(config.scenario);
  run.scenario_s = seconds_since(t0);
  exp::Scenario& s = *run.scenario;

  // Tenant-then-workload, in exp::Experiment's order, so seed 20050404
  // yields exactly the figure benches' run.
  const SeedTree workload_seeds(seed);
  for (const exp::TenantSpec& spec : w.tenants) {
    s.add_tenant(spec.label, spec.options);
    workflow::WorkloadGenerator generator(
        w.shape, workload_seeds.stream_replica("workload/shared"), s.ids(),
        s.rls(), s.grid().site_ids());
    t0 = Clock::now();
    run.dags.push_back(generator.generate_batch(spec.label, w.dags_per_tenant));
    run.generate_s += seconds_since(t0);
  }

  t0 = Clock::now();
  s.start();
  run.scenario_s += seconds_since(t0);

  for (std::size_t t = 0; t < run.dags.size(); ++t) {
    for (std::size_t k = 0; k < run.dags[t].size(); ++k) {
      const workflow::Dag& dag = run.dags[t][k];
      s.engine().schedule_at(
          10.0 + static_cast<double>(k) * config.submit_spacing,
          "submit:" + dag.name(), [&run, t, &dag] {
            core::SphinxClient& client = *run.scenario->tenants()[t].client;
            if (!run.time_submissions) {
              client.submit(dag);
              return;
            }
            run.hook_layer = kCore;
            const auto start = Clock::now();
            client.submit(dag);
            run.submit.seconds.push_back(seconds_since(start));
          });
    }
  }

  if (w.crash_period > 0.0) {
    run.crasher = std::make_unique<sim::PeriodicProcess>(
        s.engine(), "bench:crash", w.crash_period,
        [&run, next = std::size_t{0}]() mutable {
          run.hook_layer = kDb;
          crash_and_recover(*run.scenario, next, run.recoveries);
          next = (next + 1) % run.scenario->tenants().size();
        },
        w.crash_period);
    run.crasher->start();
  }
  run.setup_s = seconds_since(kProcessStart);
  run.setup_calibrated_s = run.setup_s * speed_factor();
}

/// Steps of the traced loop, charged to layers.
struct StepLog {
  std::array<Timing, kLayerCount> layers;
  Timing sweeps;  ///< core steps that opened with sweep_begin
  std::size_t queue_peak = 0;
};

bool all_finished(exp::Scenario& s) {
  for (const exp::Tenant& tenant : s.tenants()) {
    if (!tenant.client->all_dags_finished()) return false;
  }
  return true;
}

/// Scenario::run, cut into sim-minute run_until slices so the CPU's speed
/// can be sampled between them.  The watchdog is a copy of Scenario::run's
/// (same label, period and phase, created at the same point) that also
/// ends the slicing; slices fire exactly the events one run_until(horizon)
/// would, in the same order.
LoopTime plain_loop(Run& run) {
  exp::Scenario& s = *run.scenario;
  sim::Engine& engine = s.engine();
  bool finished = false;
  sim::PeriodicProcess watchdog(
      engine, "scenario:watchdog", 60.0,
      [&] {
        if (!all_finished(s)) return;
        finished = true;
        engine.stop();
      },
      60.0);
  watchdog.start();

  LoopTime time;
  double segment = 0.0;
  SimTime limit = 0.0;
  while (!finished && limit < run.horizon) {
    limit = std::min(limit + 60.0, run.horizon);
    const auto t0 = Clock::now();
    engine.run_until(limit);
    segment += seconds_since(t0);
    if (segment >= kSegmentSeconds) {
      time.close(segment, run.recoveries);
      segment = 0.0;
    }
  }
  time.close(segment, run.recoveries);
  return time;
}

/// Scenario::run, step by step, with the same watchdog, which here also
/// ends the loop at the horizon: run_until's peek at the next event's time
/// is not public, so events at exactly the horizon instant scheduled after
/// the last watchdog tick do not fire.  No workload gets near the horizon;
/// if one did, the digest check would say so.
LoopTime traced_loop(Run& run, StepLog& log) {
  exp::Scenario& s = *run.scenario;
  sim::Engine& engine = s.engine();
  bool stop = false;
  sim::PeriodicProcess watchdog(
      engine, "scenario:watchdog", 60.0,
      [&] { stop = engine.now() >= run.horizon || all_finished(s); }, 60.0);
  watchdog.start();

  const std::vector<obs::TraceEvent>& events = s.recorder().trace().events();
  const data::TransferStats& transfers = s.transfers().stats();
  LoopTime time;
  auto segment_start = Clock::now();
  while (!stop) {
    const std::size_t first = events.size();
    const data::TransferStats before = transfers;
    run.hook_layer = kUnattributed;
    const auto t0 = Clock::now();
    if (!engine.step()) break;
    const double dt = seconds_since(t0);

    Layer layer = run.hook_layer;
    if (layer == kUnattributed) {
      if (events.size() > first) {
        layer = layer_of(events[first].kind);
      } else if (transfers.started != before.started ||
                 transfers.completed != before.completed ||
                 transfers.cancelled != before.cancelled) {
        layer = kData;
      }
    }
    log.layers[layer].seconds.push_back(dt);
    if (layer == kCore && events.size() > first &&
        events[first].kind == obs::TraceKind::kSweepBegin) {
      log.sweeps.seconds.push_back(dt);
    }
    log.queue_peak = std::max(log.queue_peak, engine.events_pending());

    if (const double segment = seconds_since(segment_start);
        segment >= kSegmentSeconds) {
      time.close(segment, run.recoveries);
      segment_start = Clock::now();
    }
  }
  time.close(seconds_since(segment_start), run.recoveries);
  return time;
}

// ------------------------------------------------------------------ output

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Flat JSON object writer; values are numbers or strings.
class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    add(key, "\"" + obs::json_escape(v) + "\"");
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

/// A server counter ("server.plans", ...) summed over tenants.
std::uint64_t counter_sum(const obs::Recorder& r, exp::Scenario& s,
                          const std::string& name) {
  std::uint64_t sum = 0;
  for (const exp::Tenant& t : s.tenants()) {
    sum += r.counter(name, "sphinx-server/" + t.label);
  }
  return sum;
}

double histogram_sum(const obs::Recorder& r, exp::Scenario& s,
                     const std::string& name) {
  double sum = 0.0;
  for (const exp::Tenant& t : s.tenants()) {
    if (const auto* h = r.histogram(name, "sphinx-server/" + t.label)) {
      for (const double v : h->samples) sum += v;
    }
  }
  return sum;
}

/// The simulated outcome (what a pure speed-up must leave alone) plus the
/// correctness inputs, read before the end-of-run recovery.
void report_outcome(Run& run, JsonOut& out) {
  exp::Scenario& s = *run.scenario;
  const obs::Recorder& r = s.recorder();
  std::string digest;
  std::size_t dags = 0;
  std::size_t finished = 0;
  std::size_t double_runs = 0;
  double completion_sum = 0.0;
  std::string completion;
  std::string plans;
  for (const exp::Tenant& t : s.tenants()) {
    const core::SphinxClient& client = *t.client;
    const std::string server = "sphinx-server/" + t.label;
    const std::uint64_t tenant_plans = r.counter("server.plans", server);
    const std::uint64_t replans = r.counter("server.replans", server);
    double tenant_sum = 0.0;
    for (const core::DagOutcome& o : client.dag_outcomes()) {
      if (o.done()) tenant_sum += o.completion_time();
    }
    dags += client.dag_outcomes().size();
    finished += client.dags_finished();
    completion_sum += tenant_sum;
    if (client.tracker_stats().submissions != client.unique_submissions()) {
      ++double_runs;
    }
    char line[256];
    std::snprintf(line, sizeof line, "%s:%zu/%zu:%s:%llu:%llu:%zu:%zu;",
                  t.label.c_str(), client.dags_finished(),
                  client.dag_outcomes().size(), hexfloat(tenant_sum).c_str(),
                  static_cast<unsigned long long>(tenant_plans),
                  static_cast<unsigned long long>(replans),
                  client.tracker_stats().submissions,
                  client.unique_submissions());
    digest += line;
    std::snprintf(line, sizeof line, "%s%.1f", completion.empty() ? "" : ",",
                  client.avg_dag_completion());
    completion += line;
    if (!plans.empty()) plans += ',';
    plans += std::to_string(tenant_plans);
  }
  digest += "events:" + std::to_string(s.engine().events_fired()) +
            ";stop:" + hexfloat(s.engine().now());

  std::size_t generated = 0;
  for (const auto& batch : run.dags) generated += batch.size();

  out.str("digest", digest);
  out.str("tenant_completion_s", completion);
  out.str("tenant_plans", plans);
  out.num("tenants_double_run", static_cast<double>(double_runs));
  out.num("dags_generated", static_cast<double>(generated));
  out.num("dags_submitted", static_cast<double>(dags));
  out.num("dags_finished", static_cast<double>(finished));
  out.num("sim_dag_completion_s",
          finished > 0 ? completion_sum / static_cast<double>(finished) : 0.0);
  out.num("sim_reschedules",
          static_cast<double>(counter_sum(r, s, "server.replans")));
  out.num("sim.events", static_cast<double>(s.engine().events_fired()));
}

std::string milliseconds_list(const std::vector<double>& seconds) {
  std::string list;
  for (const double v : seconds) {
    char ms[32];
    std::snprintf(ms, sizeof ms, "%s%.6f", list.empty() ? "" : ",", 1e3 * v);
    list += ms;
  }
  return list;
}

void report_recoveries(const Recoveries& log, JsonOut& out) {
  std::vector<double> totals;
  for (std::size_t i = 0; i < log.capture.seconds.size(); ++i) {
    totals.push_back(log.capture.seconds[i] + log.replay.seconds[i]);
  }
  out.str("recovery_ms", milliseconds_list(totals));
  out.str("recovery_calibrated_ms", milliseconds_list(log.calibrated_s));
  out.num("db.capture_ms", 1e3 * log.capture.percentile(0.5));
  out.num("db.replay_ms", 1e3 * log.replay.percentile(0.5));
  out.num("db.replayed_records", static_cast<double>(log.replayed_records));
}

/// Per-layer counters and host times of a traced run.
void report_layers(Run& run, const StepLog& log, double loop_s, JsonOut& out) {
  exp::Scenario& s = *run.scenario;
  const obs::Recorder& r = s.recorder();
  const auto& bus = s.bus().stats();
  const auto& xfer = s.transfers().stats();

  out.num("sim.events_per_s",
          static_cast<double>(s.engine().events_fired()) / loop_s);
  out.num("sim.queue_peak", static_cast<double>(log.queue_peak));

  const double drained = histogram_sum(r, s, "server.sweep_depth");
  const double plans =
      static_cast<double>(counter_sum(r, s, "server.plans"));
  out.num("core.sweeps", static_cast<double>(log.sweeps.seconds.size()));
  out.num("core.sweep_s", log.sweeps.total());
  out.num("core.sweep_ms.p50", 1e3 * log.sweeps.percentile(0.5));
  out.num("core.sweep_ms.p99", 1e3 * log.sweeps.percentile(0.99));
  out.num("core.dags_drained", drained);
  out.num("core.plan_yield", drained > 0 ? plans / drained : 0.0);
  out.num("core.plans", plans);
  out.num("core.replans",
          static_cast<double>(counter_sum(r, s, "server.replans")));
  out.num("core.submit_us", 1e6 * run.submit.mean());

  out.num("rpc.sent", static_cast<double>(bus.sent));
  out.num("rpc.delivered", static_cast<double>(bus.delivered));
  out.num("rpc.lost", static_cast<double>(bus.lost_injected));
  out.num("rpc.duplicated", static_cast<double>(bus.duplicated_injected));
  out.num("rpc.delivery_s", log.layers[kRpc].total());
  out.num("rpc.delivery_us", 1e6 * log.layers[kRpc].mean());
  out.num("rpc.delivered_ratio",
          bus.sent > 0 ? static_cast<double>(bus.delivered) /
                             static_cast<double>(bus.sent)
                       : 0.0);

  out.num("data.transfers", static_cast<double>(xfer.completed));
  out.num("data.gb_moved", xfer.bytes_moved / 1e9);
  out.num("data.transfer_s", log.layers[kData].total());
  out.num("data.transfer_us", 1e6 * log.layers[kData].mean());

  std::uint64_t journal = 0;
  std::uint64_t scans = run.recoveries.full_scans;
  double checkpoint_bytes = 0.0;
  std::size_t checkpoint_images = 0;
  for (exp::Tenant& t : s.tenants()) {
    journal += t.server->warehouse().journal().next_seq();
    scans += full_scans(*t.server);
    if (const auto* h = r.histogram("server.checkpoint_snapshot_bytes",
                                    "sphinx-server/" + t.label)) {
      for (const double v : h->samples) checkpoint_bytes += v;
      checkpoint_images += h->samples.size();
    }
  }
  out.num("db.journal_records", static_cast<double>(journal));
  out.num("db.full_scans", static_cast<double>(scans));
  out.num("db.checkpoints",
          static_cast<double>(counter_sum(r, s, "server.checkpoints")));
  out.num("db.checkpoint_kb",
          checkpoint_images > 0
              ? checkpoint_bytes / static_cast<double>(checkpoint_images) / 1024.0
              : 0.0);

  double monitor_samples = 0.0;
  for (const obs::TraceEvent& e : r.trace().events()) {
    if (e.kind == obs::TraceKind::kMonitorSample) ++monitor_samples;
  }
  out.num("monitor.samples", monitor_samples);
  out.num("monitor.sample_s", log.layers[kMonitor].total());
  out.num("grid.outages", static_cast<double>(r.counter("site.outages", "grid")));

  out.num("obs.trace_events", static_cast<double>(r.trace().size()));
  double samples = 0.0;
  for (const auto& [name, h] : r.metrics().histograms()) {
    samples += static_cast<double>(h.samples.size());
  }
  out.num("obs.histogram_samples", samples);

  double attributed = 0.0;
  for (int l = 0; l < kUnattributed; ++l) {
    const double share = log.layers[l].total() / loop_s;
    out.num(std::string(kLayerNames[l]) + ".share", share);
    attributed += share;
  }
  // Loop overhead between steps counts as unattributed too.
  out.num("trace.unattributed_share", 1.0 - attributed);
}

struct Args {
  std::string workload;
  std::string mode;
  std::uint64_t seed = 0;
  int dags = 0;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--mode") {
      a.mode = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--dags") {
      a.dags = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !have_seed ||
      (a.mode != "setup" && a.mode != "plain" && a.mode != "traced")) {
    throw std::invalid_argument(
        "usage: perfbench_runner --workload W --seed N "
        "--mode setup|plain|traced [--dags N]");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    const bool traced = args.mode == "traced";
    Run run;
    build(run, args.workload, args.seed, args.dags, traced);

    JsonOut out;
    out.num("setup_s", run.setup_s);
    out.num("setup_calibrated_s", run.setup_calibrated_s);
    out.num("exp.scenario_s", run.scenario_s);
    out.num("workflow.generate_s", run.generate_s);
    if (args.mode != "setup") {
      StepLog log;
      const LoopTime loop = traced ? traced_loop(run, log) : plain_loop(run);
      run.crasher.reset();
      out.num("loop_s", loop.host_s);
      out.num("loop_calibrated_s", loop.calibrated_s);
      out.num("peak_rss_mb", peak_rss_mb());
      report_outcome(run, out);
      if (traced) {
        report_layers(run, log, loop.host_s, out);
        recover_after_run(run);
        report_recoveries(run.recoveries, out);
      }
    }
    std::printf("%s\n", out.done().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
