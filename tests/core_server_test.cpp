// Protocol-level tests of the SPHINX server and client: authorization,
// malformed payloads, report edge cases and recovery of in-flight work.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "chaos/oracle.hpp"
#include "exp/scenario.hpp"
#include "workflow/generator.hpp"

namespace sphinx::exp {
namespace {

ScenarioConfig quiet(std::uint64_t seed = 61) {
  ScenarioConfig config;
  config.seed = seed;
  config.site_failures = false;
  config.background_load = false;
  return config;
}

/// A raw Clarens client with an arbitrary proxy for poking the server.
class RawCaller {
 public:
  RawCaller(Scenario& scenario, rpc::Proxy proxy)
      : client_(scenario.bus(), "raw-caller", std::move(proxy)),
        engine_(scenario.engine()) {}

  /// Synchronous-style call: runs the engine until the response arrives.
  Expected<rpc::XrValue> call(const std::string& service,
                              const std::string& method,
                              std::vector<rpc::XrValue> params) {
    std::optional<Expected<rpc::XrValue>> result;
    client_.call(service, method, std::move(params),
                 [&result](Expected<rpc::XrValue> r) {
                   result = std::move(r);
                 });
    while (!result.has_value() && engine_.step()) {
    }
    SPHINX_ASSERT(result.has_value(), "no response received");
    return std::move(*result);
  }

 private:
  rpc::ClarensClient client_;
  sim::Engine& engine_;
};

rpc::Proxy vo_proxy(const std::string& vo) {
  return rpc::Proxy(rpc::Identity{"/CN=raw", "/CN=CA"}, vo, {}, 0.0,
                    hours(24));
}

TEST(ServerProtocol, RejectsUnknownVo) {
  Scenario scenario(quiet());
  scenario.add_tenant("t", TenantOptions{});
  RawCaller caller(scenario, vo_proxy("intruders"));
  const auto result =
      caller.call("sphinx-server/t", "sphinx.report", {rpc::XrValue(1)});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, "fault:3");  // authorization denied
}

TEST(ServerProtocol, RejectsMalformedSubmit) {
  Scenario scenario(quiet());
  scenario.add_tenant("t", TenantOptions{});
  RawCaller caller(scenario, vo_proxy("uscms"));
  // Wrong arity.
  auto r = caller.call("sphinx-server/t", "sphinx.submit_dag",
                       {rpc::XrValue("client")});
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, "fault:100");
  // Garbage dag payload.
  r = caller.call("sphinx-server/t", "sphinx.submit_dag",
                  {rpc::XrValue("client"), rpc::XrValue(1),
                   rpc::XrValue("not a dag")});
  ASSERT_FALSE(r.has_value());
  // Non-numeric priority.
  workflow::Dag dag(DagId(1), "x");
  workflow::JobSpec job;
  job.id = JobId(1);
  job.name = "j";
  job.output = "lfn://x";
  dag.add_job(job);
  r = caller.call("sphinx-server/t", "sphinx.submit_dag",
                  {rpc::XrValue("client"), rpc::XrValue(1),
                   core::encode_dag(dag), rpc::XrValue("high")});
  ASSERT_FALSE(r.has_value());
}

TEST(ServerProtocol, ReportForUnknownJobFaults) {
  Scenario scenario(quiet());
  scenario.add_tenant("t", TenantOptions{});
  RawCaller caller(scenario, vo_proxy("uscms"));
  core::TrackerReport report;
  report.job = JobId(999999);
  report.kind = core::ReportKind::kCompleted;
  report.site = SiteId(1);
  const auto r = caller.call("sphinx-server/t", "sphinx.report",
                             {core::encode_report(report)});
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, "fault:100");
}

TEST(ServerProtocol, SetQuotaOverRpc) {
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  RawCaller caller(scenario, vo_proxy("uscms"));
  const auto r = caller.call(
      "sphinx-server/t", "sphinx.set_quota",
      {rpc::XrValue(7), rpc::XrValue(3), rpc::XrValue("cpu_seconds"),
       rpc::XrValue(1234.5)});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(tenant.server->warehouse().quota_remaining(
                       UserId(7), SiteId(3), "cpu_seconds"),
                   1234.5);
}

TEST(ServerProtocol, SubmitReturnsDagIdAndStoresPriority) {
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  RawCaller caller(scenario, vo_proxy("uscms"));
  workflow::Dag dag(DagId(77), "raw-dag");
  workflow::JobSpec job;
  job.id = JobId(770);
  job.name = "j";
  job.inputs = {"lfn://in"};
  job.output = "lfn://raw-out";
  dag.add_job(job);
  const auto r = caller.call("sphinx-server/t", "sphinx.submit_dag",
                             {rpc::XrValue("raw-caller"), rpc::XrValue(5),
                              core::encode_dag(dag), rpc::XrValue(3.5)});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->as_int(), 77);
  const auto record = tenant.server->warehouse().dag(DagId(77));
  ASSERT_TRUE(record.has_value());
  EXPECT_DOUBLE_EQ(record->priority, 3.5);
  EXPECT_EQ(record->user, UserId(5));
  EXPECT_EQ(record->client, "raw-caller");
}

TEST(ServerProtocol, StoppedServerPlansNothing) {
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  auto generator =
      scenario.make_generator("w", workflow::WorkloadConfig{});
  const auto dag = generator.generate("stopped");
  scenario.start();
  tenant.server->stop();  // control process halted; endpoint still up
  scenario.engine().schedule_at(1.0, "submit",
                                [&] { tenant.client->submit(dag); });
  scenario.engine().run_until(minutes(30));
  // The DAG was received but never planned.
  EXPECT_EQ(tenant.server->stats().dags_received, 1u);
  EXPECT_EQ(tenant.server->stats().plans_sent, 0u);
  // Restart: scheduling resumes where it left off.
  tenant.server->start();
  scenario.run(hours(6));
  EXPECT_TRUE(tenant.client->all_dags_finished());
}

TEST(ServerProtocol, RecoveredServerKeepsQuotaState) {
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  tenant.server->set_quota(UserId(1), SiteId(2), "cpu_seconds", 500.0);
  tenant.server->warehouse().consume_quota(UserId(1), SiteId(2),
                                           "cpu_seconds", 100.0);
  const db::Journal journal = tenant.server->warehouse().journal();
  auto recovered = core::SphinxServer::recover(
      scenario.bus(), scenario.catalog(), scenario.rls(),
      scenario.transfers(), &scenario.monitoring(),
      [] {
        core::ServerConfig c;
        c.endpoint = "recovered";
        return c;
      }(),
      journal);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_DOUBLE_EQ((*recovered)
                       ->warehouse()
                       .quota_remaining(UserId(1), SiteId(2), "cpu_seconds"),
                   400.0);
}

TEST(ServerProtocol, RecoverFromCorruptJournalFails) {
  Scenario scenario(quiet());
  db::Journal junk;
  db::JournalEntry entry;
  entry.op = db::JournalEntry::Op::kInsert;
  entry.table = "never-created";
  entry.row = 1;
  junk.append(entry);
  const auto result = core::SphinxServer::recover(
      scenario.bus(), scenario.catalog(), scenario.rls(),
      scenario.transfers(), &scenario.monitoring(),
      [] {
        core::ServerConfig c;
        c.endpoint = "broken";
        return c;
      }(),
      junk);
  EXPECT_FALSE(result.has_value());
}

TEST(ServerProtocol, MidRunRecoveryRebuildsWorkState) {
  // Kill a server mid-run and rebuild it from nothing but the journal:
  // the derived work state (dirty queue, outstanding counters) must come
  // back exactly as a from-scratch scan of the recovered tables implies.
  Scenario scenario(quiet(17));
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  auto generator = scenario.make_generator("w", workflow::WorkloadConfig{});
  scenario.start();
  for (int i = 0; i < 6; ++i) {
    const auto dag = generator.generate("mid-" + std::to_string(i));
    scenario.engine().schedule_at(
        minutes(i), "submit", [&tenant, dag] { tenant.client->submit(dag); });
  }
  scenario.engine().run_until(minutes(10));
  tenant.server->stop();  // crash point: the journal is all that survives

  const auto recovered =
      core::DataWarehouse::recover_from(tenant.server->warehouse().journal());
  ASSERT_TRUE(recovered.has_value());
  const core::DataWarehouse& r = **recovered;
  EXPECT_EQ(r.all_dags().size(), 6u);

  // Counters: rebuilt map == scan of the recovered tables == scan of the
  // crashed instance's tables (the journal lost nothing).
  EXPECT_EQ(r.outstanding_by_site(), r.scan_outstanding_by_site());
  EXPECT_EQ(r.outstanding_by_site(),
            tenant.server->warehouse().scan_outstanding_by_site());

  // Work queue: exactly the DAGs a from-scratch scan says have pending
  // work -- received/reduced, or planning with unplanned jobs left.
  std::vector<DagId> expected;
  for (const auto& dag : r.all_dags()) {
    bool pending = dag.state == core::DagState::kReceived ||
                   dag.state == core::DagState::kReduced;
    if (dag.state == core::DagState::kPlanning) {
      for (const auto& job : r.jobs_of_dag(dag.id)) {
        if (job.state == core::JobState::kUnplanned) {
          pending = true;
          break;
        }
      }
    }
    if (pending) expected.push_back(dag.id);
  }
  EXPECT_EQ(r.dirty_dags(), expected);
  r.check_invariants();
}

/// A `length`-job chain: each job consumes its parent's output; the root
/// reads `root_input` (registered or not, at the caller's choice).
workflow::Dag chain_dag(Scenario& scenario, const std::string& name,
                        int length, const data::Lfn& root_input,
                        Duration compute_time = 60.0) {
  workflow::Dag dag(scenario.ids().dags.next(), name);
  JobId prev;
  data::Lfn prev_out = root_input;
  for (int i = 0; i < length; ++i) {
    workflow::JobSpec job;
    job.id = scenario.ids().jobs.next();
    job.name = name + "-" + std::to_string(i);
    job.compute_time = compute_time;
    job.inputs = {prev_out};
    job.output = "lfn://" + name + "/out" + std::to_string(i);
    job.output_bytes = 1e6;
    dag.add_job(job);
    if (i > 0) dag.add_edge(prev, job.id);
    prev = job.id;
    prev_out = job.output;
  }
  return dag;
}

TEST(ServerSweep, ParentBlockedChainsStayOffTheQueue) {
  // Ready-set planning: a DAG whose unplanned jobs all wait on parents
  // is not re-planned until a parent completes.  On a failure-free grid
  // every plan_dag call is then caused by a submission or a completion,
  // so calls that plan nothing cannot outnumber job completions.  A
  // sweep that re-queues parent-blocked DAGs runs one empty pass per
  // chain per 5 s sweep while a stage computes, far above that bound.
  Scenario scenario(quiet(29));
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  scenario.rls().register_replica("lfn://chains/seed", SiteId(1), 1e6);
  std::vector<workflow::Dag> dags;
  for (int i = 0; i < 6; ++i) {
    dags.push_back(chain_dag(scenario, "chain" + std::to_string(i), 5,
                             "lfn://chains/seed"));
  }
  scenario.start();
  scenario.engine().schedule_at(1.0, "submit", [&] {
    for (const auto& dag : dags) tenant.client->submit(dag);
  });
  scenario.run(hours(6));
  ASSERT_TRUE(tenant.client->all_dags_finished());

  const std::string server = "sphinx-server/t";
  const std::uint64_t empty =
      scenario.recorder().counter("server.empty_plans", server);
  const std::uint64_t completions =
      scenario.recorder().counter("tracker.completions", "sphinx-client/t");
  EXPECT_EQ(completions, 30u);
  EXPECT_EQ(scenario.recorder().counter("server.plans", server), 30u);
  EXPECT_LE(empty, completions);
}

TEST(ServerProtocol, RecoveredQueueMatchesLiveWithBlockedAndUnplaceableDags) {
  // Crash with both kinds of DAG holding unplanned work: chains whose
  // root is still computing (children blocked on parents, off the queue)
  // and single jobs whose input has no replica (ready but unplaceable,
  // re-queued by every sweep).  The recovered queue must be the live
  // one, byte for byte: the blocked chains absent, the unplaceable DAGs
  // present.
  Scenario scenario(quiet(31));
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  scenario.rls().register_replica("lfn://mixed/seed", SiteId(1), 1e6);
  std::vector<workflow::Dag> blocked;
  std::vector<workflow::Dag> unplaceable;
  for (int i = 0; i < 3; ++i) {
    blocked.push_back(chain_dag(scenario, "blocked" + std::to_string(i), 3,
                                "lfn://mixed/seed", hours(2)));
    unplaceable.push_back(
        chain_dag(scenario, "unplaceable" + std::to_string(i), 1,
                  "lfn://mixed/nowhere" + std::to_string(i)));
  }
  scenario.start();
  scenario.engine().schedule_at(1.0, "submit", [&] {
    for (int i = 0; i < 3; ++i) {
      tenant.client->submit(blocked[i]);
      tenant.client->submit(unplaceable[i]);
    }
  });
  scenario.engine().run_until(minutes(10));
  tenant.server->stop();  // crash point: the journal is all that survives

  const core::DataWarehouse& live = tenant.server->warehouse();
  std::vector<DagId> expected;
  for (const auto& dag : unplaceable) expected.push_back(dag.id());
  std::vector<DagId> queued = live.dirty_dags();
  std::sort(queued.begin(), queued.end());
  ASSERT_EQ(queued, expected);
  for (const auto& dag : blocked) {
    ASSERT_EQ(live.dag(dag.id())->state, core::DagState::kPlanning);
  }

  const auto recovered = core::DataWarehouse::recover_from(live.journal());
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ((*recovered)->dirty_dags(), live.dirty_dags());
  (*recovered)->check_invariants();
}

TEST(ClientProtocol, TimeoutRearmsFromObservationWithFreshBudgetOnReplan) {
  // Regression coverage for two tracker properties:
  //  1. Extension checks are rearmed one full period after *each*
  //     observation, so a progressing job is checked at t0+J, t0+2J, ...
  //     and hard-killed at t0+4J (J = job_timeout, 3 extensions).
  //  2. A replanned job starts with a fresh extensions budget and the
  //     dead attempt's entry is dropped (tracked_jobs() never grows).
  Scenario scenario(quiet());
  TenantOptions options;
  options.job_timeout = minutes(20);  // J = 1200 s
  Tenant& tenant = scenario.add_tenant("t", options);

  // One job that runs "forever": visibly progressing on a healthy site,
  // so every timeout check grants an extension until the budget is gone.
  workflow::Dag dag(DagId(1), "stuck");
  workflow::JobSpec job;
  job.id = JobId(1);
  job.name = "stuck-job";
  job.output = "lfn://stuck.out";
  job.compute_time = hours(200);
  dag.add_job(job);

  scenario.start();
  scenario.engine().schedule_at(1.0, "submit",
                                [&] { tenant.client->submit(dag); });
  const double J = minutes(20);
  const auto& stats = tenant.client->tracker_stats();

  // t = 3.5J: checks at ~J, ~2J, ~3J after submission each extended.
  scenario.run(3.5 * J);
  EXPECT_EQ(stats.extensions, 3u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(tenant.client->tracked_jobs(), 1u);

  // t = 4.5J: the fourth check found the budget exhausted -> hard kill,
  // cancellation reported, server replanned; the replacement attempt is
  // tracked with a *fresh* budget (no extension due yet).
  scenario.run(4.5 * J);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.extensions, 3u);
  EXPECT_EQ(tenant.client->tracked_jobs(), 1u);
  EXPECT_EQ(tenant.server->stats().replans, 1u);

  // t = 9.5J: attempt 2 burned its own 3 extensions before its kill at
  // ~8J; if the old attempt's used-up budget leaked into the new entry,
  // the second timeout would have come 3J earlier with no extensions.
  scenario.run(9.5 * J);
  EXPECT_EQ(stats.timeouts, 2u);
  EXPECT_GE(stats.extensions, 6u);
  EXPECT_EQ(tenant.client->tracked_jobs(), 1u);  // dead entries dropped

  // The flight recorder saw the same story under this client's endpoint.
  const auto& recorder = scenario.recorder();
  EXPECT_EQ(recorder.counter("tracker.timeouts", "sphinx-client/t"), 2u);
  EXPECT_EQ(recorder.counter("tracker.extensions", "sphinx-client/t"),
            stats.extensions);
}

TEST(ClientProtocol, RejectsBogusPlans) {
  Scenario scenario(quiet());
  Tenant& tenant = scenario.add_tenant("t", TenantOptions{});
  (void)tenant;
  RawCaller caller(scenario,
                   rpc::Proxy(rpc::Identity{"/CN=server", "/CN=CA"}, "ivdgl",
                              {}, 0.0, hours(24)));
  // Not a plan at all.
  auto r = caller.call("sphinx-client/t", "sphinx_client.execute_plan",
                       {rpc::XrValue("junk")});
  EXPECT_FALSE(r.has_value());
  // dag_done for a dag this client never submitted.
  r = caller.call("sphinx-client/t", "sphinx_client.dag_done",
                  {rpc::XrValue(424242), rpc::XrValue(1.0)});
  EXPECT_FALSE(r.has_value());
}

// --- checkpoint-timer edges across failover ---------------------------------

std::vector<SimTime> checkpoint_times(const Scenario& scenario) {
  std::vector<SimTime> times;
  for (const obs::TraceEvent& e : scenario.recorder().trace().events()) {
    if (e.kind == obs::TraceKind::kCheckpoint) times.push_back(e.at);
  }
  return times;
}

TEST(ServerCheckpoint, PeriodFiresExactlyOnTheSweepBoundary) {
  // checkpoint_period = 2 sweeps: the deciding sweep lands at *exactly*
  // last_checkpoint_at_ + period.  The trigger is `now >= last + period`;
  // a strict `>` would slip every period checkpoint one sweep late.
  Scenario scenario(quiet());
  TenantOptions options;
  options.checkpoint_period = 10.0;  // sweep_period is 5.0
  Tenant& tenant = scenario.add_tenant("t", options);
  auto generator = scenario.make_generator("w", workflow::WorkloadConfig{});
  const auto dag = generator.generate("boundary");
  scenario.start();
  scenario.engine().schedule_at(1.0, "submit",
                                [&tenant, dag] { tenant.client->submit(dag); });
  scenario.engine().run_until(minutes(1));

  const std::vector<SimTime> times = checkpoint_times(scenario);
  ASSERT_GE(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 10.0);
  for (std::size_t i = 0; i < times.size(); ++i) {
    // Every checkpoint lands on a period boundary, never a sweep late.
    EXPECT_DOUBLE_EQ(times[i], 10.0 + 10.0 * static_cast<double>(i));
  }
}

TEST(ServerCheckpoint, AdoptedShardKeepsPeriodCheckpointsInLockstep) {
  // An adopted shard re-derives last_checkpoint_at_/last_checkpoint_seq_
  // from the carried CheckpointImage (src/core/server.cpp), so its
  // post-adoption period checkpoints fire at exactly the times the
  // uncrashed baseline's do -- pinned by byte-diffing the terminal
  // journal and the chaos-stripped trace.
  auto run = [](bool crash) {
    auto scenario = std::make_unique<Scenario>(quiet(23));
    TenantOptions options;
    options.checkpoint_period = 10.0;
    Tenant& tenant = scenario->add_tenant("t", options);
    auto generator =
        scenario->make_generator("w", workflow::WorkloadConfig{});
    scenario->start();
    for (int i = 0; i < 4; ++i) {
      const auto dag = generator.generate("lockstep-" + std::to_string(i));
      scenario->engine().schedule_at(
          minutes(i), "submit", [&tenant, dag] { tenant.client->submit(dag); });
    }
    if (crash) {
      // Mid-period kill (not on a sweep boundary), well after the first
      // images published: the recovered cursors come from a real image.
      scenario->engine().schedule_at(97.0, "crash", [&scenario] {
        scenario->crash_server(0);
        ASSERT_TRUE(scenario->recover_server(0).ok());
      });
    }
    scenario->engine().run_until(minutes(30));
    return scenario;
  };

  const auto baseline = run(false);
  const auto adopted = run(true);
  const std::vector<SimTime> baseline_times = checkpoint_times(*baseline);
  ASSERT_GE(baseline_times.size(), 3u);
  EXPECT_EQ(checkpoint_times(*adopted), baseline_times);
  EXPECT_EQ(adopted->tenants()[0].server->warehouse().journal().serialize(),
            baseline->tenants()[0].server->warehouse().journal().serialize());
  EXPECT_EQ(
      chaos::strip_chaos_events(adopted->recorder().trace().to_jsonl()),
      chaos::strip_chaos_events(baseline->recorder().trace().to_jsonl()));
}

}  // namespace
}  // namespace sphinx::exp
