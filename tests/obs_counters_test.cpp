// Tests for the single counter path: every counter lives in a
// component's stats struct, and the recorder exports those structs --
// live while the component runs, folded into a run total when it is
// destroyed (a crashed server), so exported counters are run-wide while
// stats() stays per instance.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "obs/recorder.hpp"
#include "rpc/transport.hpp"
#include "workflow/generator.hpp"

namespace sphinx::exp {
namespace {

constexpr const char* kServer = "sphinx-server/t";
constexpr const char* kClient = "sphinx-client/t";

/// 30 DAGs, all submitted by t = 155 s, with the straggler defense on,
/// on the failure-enabled seed-7 grid; `crash_at` > 0 crashes and
/// recovers the server at that time.
struct CounterRun {
  std::unique_ptr<Scenario> scenario;
  std::vector<workflow::Dag> dags;

  explicit CounterRun(SimTime crash_at = 0.0) {
    ScenarioConfig config;
    config.seed = 7;
    scenario = std::make_unique<Scenario>(config);
    TenantOptions options;
    options.speculate = true;
    Tenant& tenant = scenario->add_tenant("t", options);
    auto generator =
        scenario->make_generator("shared", workflow::WorkloadConfig{});
    dags = generator.generate_batch("t", 30);
    scenario->start();
    for (std::size_t k = 0; k < dags.size(); ++k) {
      scenario->engine().schedule_at(
          10.0 + 5.0 * static_cast<double>(k), "submit",
          [&tenant, dag = &dags[k]] { tenant.client->submit(*dag); });
    }
    if (crash_at > 0.0) {
      scenario->engine().schedule_at(crash_at, "crash", [this] {
        ASSERT_TRUE(scenario->crash_and_recover_server(0).ok());
      });
    }
    scenario->run(hours(48));
  }

  [[nodiscard]] Tenant& tenant() { return scenario->tenants().front(); }
  [[nodiscard]] std::uint64_t counter(const std::string& name,
                                      const std::string& source) const {
    return scenario->recorder().counter(name, source);
  }
  [[nodiscard]] std::size_t traced(obs::TraceKind kind,
                                   const std::string& source) const {
    std::size_t n = 0;
    for (const obs::TraceEvent& e : scenario->recorder().trace().events()) {
      if (e.kind == kind && e.source == source) ++n;
    }
    return n;
  }
};

template <class Stats, std::size_t N>
void expect_exported(const CounterRun& run,
                     const obs::CounterField<Stats> (&fields)[N],
                     const Stats& stats, const std::string& source) {
  for (const obs::CounterField<Stats>& f : fields) {
    EXPECT_EQ(run.counter(f.name, source), stats.*f.field)
        << f.name << "@" << source;
  }
}

TEST(ExportedCounters, EqualTheirStructFieldsOnALiveRun) {
  CounterRun run;
  Tenant& tenant = run.tenant();
  ASSERT_TRUE(tenant.client->all_dags_finished());
  expect_exported(run, core::kServerCounters, tenant.server->stats(), kServer);
  expect_exported(run, core::kTrackerCounters, tenant.client->tracker_stats(),
                  kClient);
  expect_exported(run, rpc::kBusCounters, run.scenario->bus().stats(), "bus");
  expect_exported(run, kCrashCounters, run.scenario->crash_stats(), "chaos");
  // site.outages@grid sums every site's failure model: one per traced
  // outage, the permanent black hole included.
  EXPECT_GT(run.counter("site.outages", "grid"), 0u);
  std::size_t outages = 0;
  std::size_t repairs = 0;
  for (const obs::TraceEvent& e : run.scenario->recorder().trace().events()) {
    if (e.kind == obs::TraceKind::kSiteOutage) ++outages;
    if (e.kind == obs::TraceKind::kSiteRepair) ++repairs;
  }
  EXPECT_EQ(run.counter("site.outages", "grid"), outages);
  EXPECT_EQ(run.counter("site.repairs", "grid"), repairs);
  EXPECT_EQ(run.counter("tracker.dags_done", kClient), run.dags.size());
}

TEST(ExportedCounters, ServerPlansCountSweepPlansAndPlansSentAddReplicas) {
  CounterRun run;
  const core::ServerStats& stats = run.tenant().server->stats();
  ASSERT_GT(stats.speculations, 0u) << "the run must launch replicas";
  // server.plans is the sweep-plan count: one per plan_sent trace event.
  EXPECT_EQ(run.counter("server.plans", kServer),
            run.traced(obs::TraceKind::kPlanSent, kServer));
  EXPECT_EQ(stats.plans, run.counter("server.plans", kServer));
  // plans_sent() is every plan a client received, replicas included.
  EXPECT_EQ(stats.plans_sent(), stats.plans + stats.speculations);
  EXPECT_EQ(stats.speculations,
            run.traced(obs::TraceKind::kSpeculationLaunched, kServer));
  EXPECT_EQ(run.tenant().client->tracker_stats().plans_received,
            stats.plans_sent());
}

TEST(ExportedCounters, SurviveServerCrashAndRecovery) {
  CounterRun run(300.0);
  Tenant& tenant = run.tenant();
  ASSERT_TRUE(tenant.client->all_dags_finished());
  const core::ServerStats& stats = tenant.server->stats();
  EXPECT_EQ(run.counter("server.crashes", "chaos"), 1u);
  EXPECT_EQ(run.counter("server.recoveries", "chaos"), 1u);
  // Every DAG reached the crashed instance; the recovered one received
  // none, yet the exported count spans both incarnations.
  EXPECT_EQ(stats.dags_received, 0u);
  EXPECT_EQ(run.counter("server.dags_received", kServer), run.dags.size());
  // Plans: the recovered instance counts its own, the export all of them.
  EXPECT_LT(stats.plans, run.counter("server.plans", kServer));
  EXPECT_EQ(run.counter("server.plans", kServer),
            run.traced(obs::TraceKind::kPlanSent, kServer));
  EXPECT_EQ(run.counter("server.speculations", kServer),
            run.traced(obs::TraceKind::kSpeculationLaunched, kServer));
}

TEST(ExportedCounters, BusRegistrationSurvivesEitherDestructionOrder) {
  sim::Engine engine;
  const auto send = [&engine](rpc::MessageBus& bus) {
    bus.send("client", "server", "m");
    engine.run_until();
  };
  {  // bus first: its count outlives it in the recorder
    obs::Recorder recorder(engine);
    {
      rpc::MessageBus bus(engine, Rng(1), 0.1, 0.0);
      bus.register_endpoint("server", [](const rpc::Envelope&) {});
      bus.set_recorder(&recorder);
      send(bus);
    }
    EXPECT_EQ(recorder.counter("bus.delivered", "bus"), 1u);
  }
  {  // recorder first: the bus keeps delivering and counting
    rpc::MessageBus bus(engine, Rng(1), 0.1, 0.0);
    bus.register_endpoint("server", [](const rpc::Envelope&) {});
    {
      obs::Recorder recorder(engine);
      bus.set_recorder(&recorder);
      send(bus);
      EXPECT_EQ(recorder.counter("bus.sent", "bus"), 1u);
    }
    bus.set_recorder(nullptr);
    send(bus);
    EXPECT_EQ(bus.stats().delivered, 2u);
  }
}

}  // namespace
}  // namespace sphinx::exp
