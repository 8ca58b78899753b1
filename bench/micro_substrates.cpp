/// Microbenchmarks for the data substrates the planner leans on: RLS
/// lookups (single vs clubbed), replica selection, the GridFTP fluid
/// model (arrival churn and 1k/10k concurrent flows), and XML-RPC wire
/// costs (round trips with the payload codecs, and serialize()/parse()
/// alone for a report, a plan and a DAG).

#include <benchmark/benchmark.h>

#include "core/codec.hpp"
#include "data/gridftp.hpp"
#include "data/replication.hpp"
#include "data/rls.hpp"
#include "rpc/xmlrpc.hpp"
#include "workflow/generator.hpp"

namespace {

using namespace sphinx;

data::ReplicaLocationService make_rls(int lfns, int replicas_per) {
  data::ReplicaLocationService rls;
  for (int i = 0; i < lfns; ++i) {
    for (int r = 0; r < replicas_per; ++r) {
      rls.register_replica("lfn://bench/f" + std::to_string(i),
                           SiteId(static_cast<std::uint64_t>(1 + (i + r) % 15)),
                           1e8);
    }
  }
  return rls;
}

void BM_RlsLocateSingle(benchmark::State& state) {
  const auto rls = make_rls(10000, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rls.locate("lfn://bench/f" + std::to_string(i++ % 10000)));
  }
}
BENCHMARK(BM_RlsLocateSingle);

void BM_RlsLocateBulk(benchmark::State& state) {
  // The "clubbed" call SPHINX uses for whole-DAG reduction.
  const auto rls = make_rls(10000, 2);
  std::vector<data::Lfn> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back("lfn://bench/f" + std::to_string(i * 97 % 10000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rls.locate_bulk(batch));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_RlsLocateBulk);

void BM_ReplicaSelection(benchmark::State& state) {
  sim::Engine engine;
  data::TransferService transfers(engine);
  for (std::uint64_t s = 1; s <= 15; ++s) {
    transfers.set_link(SiteId(s), {10e6 * static_cast<double>(s), 10e6});
  }
  std::vector<data::Replica> replicas;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    replicas.push_back({"lfn://x", SiteId(s), 1.5e8});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        data::select_replica(replicas, SiteId(15), transfers));
  }
}
BENCHMARK(BM_ReplicaSelection);

void BM_GridFtpChurn(benchmark::State& state) {
  // Continuous arrivals/completions exercise the fluid rebalancing.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    data::TransferService transfers(engine);
    for (std::uint64_t s = 1; s <= 15; ++s) {
      transfers.set_link(SiteId(s), {20e6, 20e6});
    }
    int done = 0;
    for (int i = 0; i < n; ++i) {
      engine.schedule_at(static_cast<double>(i), "xfer", [&, i] {
        transfers.transfer(SiteId(1 + i % 15), SiteId(1 + (i + 7) % 15), 5e7,
                           [&done](TransferId, Duration) { ++done; });
      });
    }
    engine.run_until();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GridFtpChurn)->Range(64, 1024);

void BM_GridFtpConcurrent(benchmark::State& state) {
  // N flows alive at once across 15 sites, run until drained: every
  // start and every completion batch re-rates all live flows.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    data::TransferService transfers(engine);
    for (std::uint64_t s = 1; s <= 15; ++s) {
      transfers.set_link(SiteId(s), {20e6, 20e6});
    }
    int done = 0;
    for (int i = 0; i < n; ++i) {
      transfers.transfer(SiteId(1 + i % 15), SiteId(1 + (i + 7) % 15),
                         5e7 + 1e6 * (i % 97),
                         [&done](TransferId, Duration) { ++done; });
    }
    engine.run_until();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GridFtpConcurrent)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

workflow::Dag wire_dag() {
  workflow::IdSpace ids;
  data::ReplicaLocationService rls;
  workflow::WorkloadGenerator generator(workflow::WorkloadConfig{}, Rng(1),
                                        ids, rls, {SiteId(1), SiteId(2)});
  return generator.generate("wire");
}

core::TrackerReport wire_report() {
  core::TrackerReport report;
  report.job = JobId(42);
  report.kind = core::ReportKind::kCompleted;
  report.site = SiteId(3);
  report.completion_time = 321.5;
  return report;
}

/// A plan the shape the planner emits: three staged inputs, persisted
/// output, a priority nudge.
core::ExecutionPlan wire_plan() {
  core::ExecutionPlan plan;
  plan.job = JobId(4242);
  plan.dag = DagId(17);
  plan.job_name = "wire-job-7";
  plan.site = SiteId(5);
  plan.compute_time = 60.0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    plan.inputs.push_back({"lfn://wire/input-" + std::to_string(i),
                           SiteId(1 + i),
                           6.4e7 + 1.1e6 * static_cast<double>(i)});
  }
  plan.output = "lfn://wire/output-7";
  plan.output_bytes = 3.3e7;
  plan.attempt = 2;
  plan.persist_output = true;
  plan.persistent_site = SiteId(1);
  plan.batch_priority = 0.15;
  return plan;
}

/// The three messages the client and server exchange most, by payload:
/// 0 = sphinx.report, 1 = execute_plan, 2 = sphinx.submit_dag.
rpc::MethodCall wire_call(std::int64_t kind) {
  switch (kind) {
    case 0: return {"sphinx.report", {core::encode_report(wire_report())}};
    case 1: return {"execute_plan", {core::encode_plan(wire_plan())}};
    default:
      return {"sphinx.submit_dag",
              {rpc::XrValue("client"), rpc::XrValue(1),
               core::encode_dag(wire_dag())}};
  }
}

void BM_XmlRpcDagRoundTrip(benchmark::State& state) {
  const workflow::Dag dag = wire_dag();
  for (auto _ : state) {
    rpc::MethodCall call;
    call.method = "sphinx.submit_dag";
    call.params = {rpc::XrValue("client"), rpc::XrValue(1),
                   core::encode_dag(dag)};
    const std::string wire = call.serialize();
    const auto parsed = rpc::MethodCall::parse(wire);
    benchmark::DoNotOptimize(core::decode_dag(parsed->params[2]));
  }
}
BENCHMARK(BM_XmlRpcDagRoundTrip);

void BM_XmlRpcReportRoundTrip(benchmark::State& state) {
  const core::TrackerReport report = wire_report();
  for (auto _ : state) {
    rpc::MethodCall call;
    call.method = "sphinx.report";
    call.params = {core::encode_report(report)};
    const auto parsed = rpc::MethodCall::parse(call.serialize());
    benchmark::DoNotOptimize(core::decode_report(parsed->params[0]));
  }
}
BENCHMARK(BM_XmlRpcReportRoundTrip);

void BM_XmlRpcPlanRoundTrip(benchmark::State& state) {
  const core::ExecutionPlan plan = wire_plan();
  for (auto _ : state) {
    rpc::MethodCall call;
    call.method = "execute_plan";
    call.params = {core::encode_plan(plan)};
    const auto parsed = rpc::MethodCall::parse(call.serialize());
    benchmark::DoNotOptimize(core::decode_plan(parsed->params[0]));
  }
}
BENCHMARK(BM_XmlRpcPlanRoundTrip);

/// serialize() alone; the arg picks the payload (see wire_call).
void BM_XmlRpcWrite(benchmark::State& state) {
  const rpc::MethodCall call = wire_call(state.range(0));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string wire = call.serialize();
    bytes += wire.size();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_XmlRpcWrite)->ArgName("payload")->DenseRange(0, 2);

/// MethodCall::parse() alone; the arg picks the payload (see wire_call).
void BM_XmlRpcParse(benchmark::State& state) {
  const std::string wire = wire_call(state.range(0)).serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpc::MethodCall::parse(wire));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_XmlRpcParse)->ArgName("payload")->DenseRange(0, 2);

}  // namespace
