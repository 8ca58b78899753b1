/// Microbenchmarks for the scheduling core itself: strategy decision
/// cost, warehouse sweep building blocks, and full end-to-end simulation
/// throughput (events per second of one complete experiment).

#include <benchmark/benchmark.h>

#include "core/algorithms.hpp"
#include "exp/scenario.hpp"
#include "workflow/generator.hpp"

namespace {

using namespace sphinx;

core::PlanningContext synthetic_context(int sites) {
  core::PlanningContext ctx;
  Rng rng(7);
  for (int i = 0; i < sites; ++i) {
    core::CandidateSite site;
    site.id = SiteId(static_cast<std::uint64_t>(i + 1));
    site.cpus = static_cast<int>(rng.uniform_int(8, 256));
    site.outstanding = rng.uniform_int(0, 40);
    site.monitored = true;
    site.mon_queued = static_cast<int>(rng.uniform_int(0, 80));
    site.mon_running = static_cast<int>(rng.uniform_int(0, 200));
    site.samples = rng.uniform_int(1, 50);
    site.completed = site.samples;
    site.avg_completion = rng.uniform(60.0, 1500.0);
    ctx.sites.push_back(site);
  }
  return ctx;
}

void BM_StrategyDecision(benchmark::State& state) {
  const auto algorithm =
      core::make_algorithm(static_cast<core::Algorithm>(state.range(1)));
  const auto ctx = synthetic_context(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithm->select(ctx));
  }
  state.SetLabel(algorithm->name());
}
BENCHMARK(BM_StrategyDecision)
    ->ArgsProduct({{15, 100}, {0, 1, 2, 3}});

void BM_EndToEndExperiment(benchmark::State& state) {
  // One full single-tenant run: N DAGs x 10 jobs on the quiet grid.
  const int dags = static_cast<int>(state.range(0));
  for (auto _ : state) {
    exp::ScenarioConfig config;
    config.seed = 5;
    config.site_failures = false;
    config.background_load = false;
    exp::Scenario scenario(config);
    exp::Tenant& tenant = scenario.add_tenant("bench", exp::TenantOptions{});
    auto generator =
        scenario.make_generator("bench", workflow::WorkloadConfig{});
    const auto batch = generator.generate_batch("bench", dags);
    scenario.start();
    scenario.engine().schedule_at(1.0, "submit", [&] {
      for (const auto& dag : batch) tenant.client->submit(dag);
    });
    scenario.run(hours(24));
    benchmark::DoNotOptimize(tenant.client->dags_finished());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(
                                scenario.engine().events_fired()));
  }
  state.SetLabel("items = engine events");
}
BENCHMARK(BM_EndToEndExperiment)->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

/// A `length`-job chain; each job consumes its parent's output and the
/// root reads `input`.
workflow::Dag chain_dag(std::uint64_t base, std::uint64_t length,
                        const std::string& input) {
  workflow::Dag dag(DagId(base), "sweep-" + std::to_string(base));
  std::string prev = input;
  for (std::uint64_t k = 1; k <= length; ++k) {
    workflow::JobSpec job;
    job.id = JobId(base * 10 + k);
    job.name = "j" + std::to_string(k);
    job.compute_time = 60.0;
    job.inputs = {prev};
    job.output = "lfn://sweep-out/" + std::to_string(base * 10 + k);
    prev = job.output;
    dag.add_job(job);
    if (k > 1) dag.add_edge(JobId(base * 10 + k - 1), job.id);
  }
  return dag;
}

void BM_SweepCost(benchmark::State& state) {
  // Sweep cost must be O(changed work): N parked planning DAGs sit in
  // the warehouse while a fixed handful stays blocked (inputs with no
  // replicas), so every sweep retries only the blocked ones.  A parked
  // DAG is a chain whose root is planned and in flight: length 1 is an
  // idle, fully planned DAG; length 4 leaves three jobs waiting on
  // parents, the shape paper workloads produce.  Growing N 100x should
  // leave the per-sweep time roughly flat for both.
  const std::uint64_t parked = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t length = static_cast<std::uint64_t>(state.range(1));
  constexpr std::uint64_t kActive = 8;
  exp::ScenarioConfig config;
  config.seed = 5;
  config.site_failures = false;
  config.background_load = false;
  exp::Scenario scenario(config);
  exp::Tenant& tenant = scenario.add_tenant("bench", exp::TenantOptions{});
  core::DataWarehouse& wh = tenant.server->warehouse();
  for (std::uint64_t i = 1; i <= parked; ++i) {
    wh.insert_dag(chain_dag(i, length, "lfn://sweep-in"), "bench", UserId(1),
                  0.0);
    wh.set_dag_state(DagId(i), core::DagState::kPlanning);
    wh.set_job_planned(JobId(i * 10 + 1), SiteId(1), 0.0);
  }
  for (std::uint64_t i = parked + 1; i <= parked + kActive; ++i) {
    // Unplanned job whose input has no replica: blocked every sweep.
    wh.insert_dag(chain_dag(i, 1, "lfn://nowhere/" + std::to_string(i)),
                  "bench", UserId(1), 0.0);
    wh.set_dag_state(DagId(i), core::DagState::kPlanning);
  }
  tenant.server->sweep();  // settle: the parked DAGs drain and stay parked
  for (auto _ : state) {
    tenant.server->sweep();
  }
  state.SetLabel("parked=" + std::to_string(parked) +
                 " length=" + std::to_string(length) + " active=8");
}
BENCHMARK(BM_SweepCost)
    ->ArgsProduct({{100, 1000, 10000}, {1, 4}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
