// Tests for the submission layer: ClassAds, the Condor-G gateway
// (stage-in, output registration, cancellation) and DAGMan.

#include <gtest/gtest.h>

#include "data/gridftp.hpp"
#include "data/rls.hpp"
#include "data/storage.hpp"
#include "grid/grid.hpp"
#include "submit/classad.hpp"
#include "submit/condor_g.hpp"
#include "submit/dagman.hpp"
#include "workflow/dag.hpp"

namespace sphinx::submit {
namespace {

constexpr double kMB = 1e6;

TEST(ClassAd, SetGetTyped) {
  ClassAd ad;
  ad.set("cpus", std::int64_t{16});
  ad.set("speed", 1.5);
  ad.set("site", std::string("acdc"));
  ad.set("healthy", true);
  EXPECT_EQ(ad.get_int("cpus"), 16);
  EXPECT_DOUBLE_EQ(ad.get_real("speed"), 1.5);
  EXPECT_DOUBLE_EQ(ad.get_real("cpus"), 16.0);  // int widens
  EXPECT_EQ(ad.get_string("site"), "acdc");
  EXPECT_TRUE(ad.get_bool("healthy"));
  EXPECT_TRUE(ad.has("cpus"));
  EXPECT_FALSE(ad.has("nope"));
  EXPECT_THROW((void)ad.get("nope"), AssertionError);
  EXPECT_THROW((void)ad.get_int("site"), AssertionError);
}

TEST(ClassAd, RequirementEvaluation) {
  ClassAd machine;
  machine.set("cpus", std::int64_t{16});
  machine.set("site", std::string("acdc"));

  EXPECT_TRUE(evaluate({"cpus", CmpOp::kGe, std::int64_t{8}}, machine));
  EXPECT_FALSE(evaluate({"cpus", CmpOp::kGt, std::int64_t{16}}, machine));
  EXPECT_TRUE(evaluate({"site", CmpOp::kEq, std::string("acdc")}, machine));
  EXPECT_TRUE(evaluate({"site", CmpOp::kNe, std::string("atlas")}, machine));
  // Missing attribute and incomparable types never match.
  EXPECT_FALSE(evaluate({"memory", CmpOp::kGe, std::int64_t{1}}, machine));
  EXPECT_FALSE(evaluate({"site", CmpOp::kEq, std::int64_t{1}}, machine));
}

TEST(ClassAd, MatchmakingDirectionalAndSymmetric) {
  ClassAd job;
  job.set("owner", std::string("juin"));
  job.add_requirement({"cpus", CmpOp::kGe, std::int64_t{8}});

  ClassAd machine;
  machine.set("cpus", std::int64_t{16});

  EXPECT_TRUE(job.matches(machine));
  EXPECT_TRUE(ClassAd::symmetric_match(job, machine));

  machine.add_requirement({"owner", CmpOp::kEq, std::string("someone-else")});
  EXPECT_TRUE(job.matches(machine));
  EXPECT_FALSE(ClassAd::symmetric_match(job, machine));
}

TEST(ClassAd, RenderLooksLikeSubmitFile) {
  ClassAd ad;
  ad.set("executable", std::string("reco"));
  ad.set("estimated_runtime", 60.0);
  ad.add_requirement({"site", CmpOp::kEq, std::string("acdc")});
  const std::string text = ad.render();
  EXPECT_NE(text.find("executable = \"reco\""), std::string::npos);
  EXPECT_NE(text.find("requirements = site == \"acdc\""), std::string::npos);
  EXPECT_NE(text.find("queue"), std::string::npos);
}

class GatewayFixture : public ::testing::Test {
 protected:
  GatewayFixture()
      : grid(engine, SeedTree(17)),
        transfers(engine),
        gateway(grid, transfers, rls, &storage, "gw-test") {
    grid::SiteSpec spec;
    spec.site.name = "exec";
    spec.site.cpus = 4;
    spec.site.runtime_noise = 0.0;
    exec_site = grid.add_site(spec);
    spec.site.name = "store";
    store_site = grid.add_site(spec);
    grid.start();
    transfers.set_link(exec_site, {10 * kMB, 10 * kMB});
    transfers.set_link(store_site, {10 * kMB, 10 * kMB});
    storage.add(exec_site, 1e12);
    rls.register_replica("lfn://in1", store_site, 100 * kMB);
    rls.register_replica("lfn://in2", store_site, 50 * kMB);
  }

  SubmitRequest basic_request(JobId id) {
    SubmitRequest request;
    request.job = id;
    request.name = "job";
    request.user = UserId(1);
    request.site = exec_site;
    request.compute_time = 60.0;
    request.inputs = {{"lfn://in1", store_site, 100 * kMB},
                      {"lfn://in2", store_site, 50 * kMB}};
    request.output = "lfn://out-" + std::to_string(id.value());
    request.output_bytes = 10 * kMB;
    return request;
  }

  sim::Engine engine;
  grid::Grid grid;
  data::TransferService transfers;
  data::ReplicaLocationService rls;
  data::StorageFabric storage;
  CondorG gateway;
  SiteId exec_site, store_site;
};

TEST_F(GatewayFixture, FullLifecycleWithStaging) {
  std::vector<GatewayJobState> states;
  SimTime completed_at = 0;
  ASSERT_TRUE(gateway.submit(basic_request(JobId(1)),
                             [&](const GatewayEvent& e) {
                               states.push_back(e.state);
                               if (e.state == GatewayJobState::kCompleted) {
                                 completed_at = e.at;
                               }
                             }));
  engine.run_until();
  ASSERT_GE(states.size(), 4u);
  EXPECT_EQ(states.back(), GatewayJobState::kCompleted);
  // 150 MB at 10 MB/s = 15 s staging + 60 s compute.
  EXPECT_NEAR(completed_at, 75.0, 1.0);
  // Output registered in RLS at the execution site and stored.
  ASSERT_TRUE(rls.exists("lfn://out-1"));
  EXPECT_EQ(rls.locate("lfn://out-1")[0].site, exec_site);
  EXPECT_TRUE(storage.find(exec_site)->has("lfn://out-1"));
}

TEST_F(GatewayFixture, SubmitAdRecordsDecision) {
  ASSERT_TRUE(gateway.submit(basic_request(JobId(1)), nullptr));
  const ClassAd* ad = gateway.submit_ad(JobId(1));
  ASSERT_NE(ad, nullptr);
  EXPECT_EQ(ad->get_string("vo"), "uscms");
  EXPECT_EQ(ad->get_int("input_count"), 2);
  EXPECT_NE(ad->get_string("grid_resource").find("exec"), std::string::npos);
  EXPECT_EQ(gateway.submit_ad(JobId(99)), nullptr);
}

TEST_F(GatewayFixture, SubmitToDownSiteFails) {
  grid.site(exec_site).go_down();
  bool saw_failed = false;
  EXPECT_FALSE(gateway.submit(basic_request(JobId(1)),
                              [&](const GatewayEvent& e) {
                                saw_failed = e.state == GatewayJobState::kFailed;
                              }));
  EXPECT_TRUE(saw_failed);
  EXPECT_EQ(gateway.state_of(JobId(1)), GatewayJobState::kFailed);
}

TEST_F(GatewayFixture, CancelDuringStagingKillsTransfers) {
  ASSERT_TRUE(gateway.submit(basic_request(JobId(1)), nullptr));
  engine.run_until(5.0);  // mid-stage-in
  EXPECT_EQ(transfers.active(), 1u);
  EXPECT_TRUE(gateway.cancel(JobId(1)));
  engine.run_until();
  EXPECT_EQ(gateway.state_of(JobId(1)), GatewayJobState::kRemoved);
  EXPECT_EQ(transfers.stats().cancelled, 1u);
  EXPECT_FALSE(rls.exists("lfn://out-1"));
}

TEST_F(GatewayFixture, CancelDuringLocalStageInEndsTheChain) {
  // The first input is already on the execution site, so it is a local
  // transfer that completes on the next event.  Cancelling the job before
  // that event fires must end the stage-in chain: the second (WAN) input
  // must never start for a removed job.
  SubmitRequest request = basic_request(JobId(1));
  request.inputs.front().source = exec_site;
  ASSERT_TRUE(gateway.submit(request, nullptr));
  while (transfers.stats().started == 0 && engine.step()) {
  }
  ASSERT_EQ(transfers.stats().started, 1u);
  EXPECT_TRUE(gateway.cancel(JobId(1)));
  engine.run_until();
  EXPECT_EQ(gateway.state_of(JobId(1)), GatewayJobState::kRemoved);
  EXPECT_EQ(transfers.stats().started, 1u);
  EXPECT_EQ(transfers.stats().completed, 0u);
  EXPECT_EQ(transfers.stats().cancelled, 1u);
  EXPECT_EQ(transfers.active(), 0u);
}

TEST_F(GatewayFixture, CancelUnknownOrTerminalFails) {
  EXPECT_FALSE(gateway.cancel(JobId(5)));
  ASSERT_TRUE(gateway.submit(basic_request(JobId(1)), nullptr));
  engine.run_until();
  EXPECT_FALSE(gateway.cancel(JobId(1)));  // completed
}

TEST_F(GatewayFixture, ResubmitAfterTerminalStateAllowed) {
  ASSERT_TRUE(gateway.submit(basic_request(JobId(1)), nullptr));
  engine.run_until(2.0);
  ASSERT_TRUE(gateway.cancel(JobId(1)));
  engine.run_until(3.0);
  ASSERT_TRUE(gateway.submit(basic_request(JobId(1)), nullptr));
  engine.run_until();
  EXPECT_EQ(gateway.state_of(JobId(1)), GatewayJobState::kCompleted);
}

TEST_F(GatewayFixture, QueueSummaryCounts) {
  for (int i = 1; i <= 6; ++i) {
    SubmitRequest r = basic_request(JobId(i));
    r.inputs.clear();  // no staging: straight to compute
    ASSERT_TRUE(gateway.submit(r, nullptr));
  }
  engine.run_until(1.0);
  const GatewayQueue q = gateway.queue();
  EXPECT_EQ(q.running, 4);  // 4 CPUs
  EXPECT_EQ(q.idle, 2);
  engine.run_until();
  EXPECT_EQ(gateway.queue().completed, 6);
  EXPECT_EQ(gateway.submissions(), 6u);
}

TEST_F(GatewayFixture, LostJobStaysRunningUntilTrackerActs) {
  SubmitRequest r = basic_request(JobId(1));
  r.inputs.clear();
  ASSERT_TRUE(gateway.submit(r, nullptr));
  engine.run_until(10.0);
  grid.site(exec_site).go_down();
  engine.run_until(hours(1));
  // No event ever arrives; the gateway still believes the job is running.
  EXPECT_EQ(gateway.state_of(JobId(1)), GatewayJobState::kRunning);
  // condor_rm against the dead site falls back to forced local removal.
  EXPECT_TRUE(gateway.cancel(JobId(1)));
  EXPECT_EQ(gateway.state_of(JobId(1)), GatewayJobState::kRemoved);
}

class DagManFixture : public GatewayFixture {
 protected:
  workflow::Dag chain_dag() {
    workflow::Dag dag(DagId(1), "chain");
    workflow::JobSpec a;
    a.id = JobId(11);
    a.name = "a";
    a.compute_time = 10.0;
    a.inputs = {"lfn://in1"};
    a.output = "lfn://mid";
    a.output_bytes = 10 * kMB;
    workflow::JobSpec b;
    b.id = JobId(12);
    b.name = "b";
    b.compute_time = 10.0;
    b.inputs = {"lfn://mid"};
    b.output = "lfn://final";
    b.output_bytes = kMB;
    dag.add_job(a);
    dag.add_job(b);
    dag.add_edge(JobId(11), JobId(12));
    return dag;
  }

  PlacementCallout fixed_site_callout() {
    return [this](const workflow::JobSpec& spec)
               -> std::optional<Placement> {
      Placement p;
      p.site = exec_site;
      for (const auto& lfn : spec.inputs) {
        const auto replicas = rls.locate(lfn);
        if (replicas.empty()) return std::nullopt;  // input not yet there
        p.inputs.push_back(
            {lfn, replicas[0].site, replicas[0].size_bytes});
      }
      return p;
    };
  }
};

TEST_F(DagManFixture, RunsChainInOrder) {
  SimTime finished = -1;
  DagMan dagman(gateway, chain_dag(), UserId(1), "uscms",
                fixed_site_callout(),
                [&](DagId, SimTime at) { finished = at; });
  dagman.start(0.0);
  engine.run_until();
  EXPECT_TRUE(dagman.finished());
  EXPECT_FALSE(dagman.failed());
  EXPECT_EQ(dagman.completed_jobs(), 2u);
  EXPECT_GT(finished, 20.0);  // both computes plus staging
  EXPECT_TRUE(rls.exists("lfn://final"));
}

TEST_F(DagManFixture, SecondJobWaitsForFirstOutput) {
  // b's input lfn://mid only exists after a completes; the callout defers
  // b until then, proving dependency-driven release.
  DagMan dagman(gateway, chain_dag(), UserId(1), "uscms",
                fixed_site_callout(), nullptr);
  dagman.start(0.0);
  engine.run_until(5.0);
  EXPECT_EQ(dagman.completed_jobs(), 0u);
  EXPECT_FALSE(rls.exists("lfn://mid"));
  engine.run_until();
  EXPECT_TRUE(dagman.finished());
}

TEST_F(DagManFixture, RetriesOnFailureUpToBudget) {
  // Site flips down after the first job starts; DAGMan's resubmissions
  // fail (down gatekeeper) until the budget is exhausted.
  DagMan dagman(gateway, chain_dag(), UserId(1), "uscms",
                fixed_site_callout(), nullptr, 2);
  dagman.start(0.0);
  engine.run_until(1.0);
  grid.site(exec_site).go_down();
  // Kick the gateway: force-remove triggers DAGMan's retry path.
  ASSERT_TRUE(gateway.cancel(JobId(11)));
  engine.run_until();
  EXPECT_TRUE(dagman.failed());
  EXPECT_FALSE(dagman.finished());
  EXPECT_GE(dagman.resubmissions(), 1u);
}

}  // namespace
}  // namespace sphinx::submit
