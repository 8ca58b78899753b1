// Property-style tests: invariants that must hold across randomized
// inputs and operation sequences (parameterized by seed).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "chaos/schedule.hpp"
#include "common/stats.hpp"
#include "data/gridftp.hpp"
#include "db/database.hpp"
#include "db/encoding.hpp"
#include "exp/scenario.hpp"
#include "grid/site.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "workflow/generator.hpp"

namespace sphinx {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

// --- engine determinism ---------------------------------------------------

TEST_P(SeededProperty, EngineRunsAreBitIdentical) {
  const auto trace = [&](std::uint64_t seed) {
    sim::Engine engine;
    Rng rng(seed);
    std::vector<double> fired_times;
    // A random mix of plain events, chains and cancellations.
    std::vector<sim::EventHandle> handles;
    for (int i = 0; i < 200; ++i) {
      handles.push_back(engine.schedule_at(
          rng.uniform(0, 1000), "e",
          [&fired_times, &engine] { fired_times.push_back(engine.now()); }));
    }
    for (int i = 0; i < 50; ++i) {
      engine.cancel(handles[static_cast<std::size_t>(
          rng.uniform_int(0, 199))]);
    }
    engine.run_until();
    return fired_times;
  };
  EXPECT_EQ(trace(GetParam()), trace(GetParam()));
}

// --- transfer byte conservation -------------------------------------------

TEST_P(SeededProperty, TransferServiceConservesBytes) {
  sim::Engine engine;
  data::TransferService transfers(engine);
  Rng rng(GetParam());
  for (std::uint64_t s = 1; s <= 6; ++s) {
    transfers.set_link(SiteId(s), {rng.uniform(2e6, 30e6),
                                   rng.uniform(2e6, 30e6)});
  }
  double requested = 0.0;
  double completed_bytes = 0.0;
  std::vector<std::pair<TransferId, double>> started;
  for (int i = 0; i < 120; ++i) {
    const double bytes = rng.uniform(1e6, 2e8);
    const auto src = SiteId(static_cast<std::uint64_t>(rng.uniform_int(1, 6)));
    const auto dst = SiteId(static_cast<std::uint64_t>(rng.uniform_int(1, 6)));
    engine.schedule_at(rng.uniform(0, 500), "start", [&, src, dst, bytes] {
      requested += bytes;
      const TransferId id = transfers.transfer(
          src, dst, bytes,
          [&completed_bytes, bytes](TransferId, Duration) {
            completed_bytes += bytes;
          });
      started.emplace_back(id, bytes);
    });
  }
  // Random cancellations along the way.
  for (int i = 0; i < 20; ++i) {
    engine.schedule_at(rng.uniform(100, 400), "cancel", [&] {
      if (started.empty()) return;
      transfers.cancel(started[static_cast<std::size_t>(
                                   rng.uniform_int(
                                       0, static_cast<std::int64_t>(
                                              started.size() - 1)))]
                           .first);
    });
  }
  engine.run_until();
  EXPECT_EQ(transfers.active(), 0u);
  const auto& stats = transfers.stats();
  EXPECT_EQ(stats.started, 120u);
  EXPECT_EQ(stats.completed + stats.cancelled, stats.started);
  // Every completed transfer delivered exactly its bytes; moved bytes are
  // completed bytes plus partial progress of cancelled ones.
  EXPECT_GE(stats.bytes_moved + 1.0, completed_bytes);
  EXPECT_LE(completed_bytes, requested + 1.0);
}

// --- site CPU accounting under chaos ---------------------------------------

TEST_P(SeededProperty, SiteAccountingSurvivesChaos) {
  sim::Engine engine;
  grid::SiteConfig config;
  config.name = "chaos";
  config.cpus = 8;
  config.runtime_noise = 0.2;
  grid::Site site(engine, SiteId(1), config, Rng(GetParam()));
  Rng rng(GetParam() ^ 0xabcdef);

  std::vector<SubmissionId> live;
  std::size_t events_after_terminal = 0;
  std::unordered_map<std::uint64_t, bool> terminal;

  for (int i = 0; i < 300; ++i) {
    engine.schedule_at(rng.uniform(0, 2000), "op", [&] {
      const double dice = rng.uniform();
      if (dice < 0.55) {
        grid::RemoteJob job;
        job.compute_time = rng.uniform(10, 300);
        job.vo = rng.chance(0.5) ? "uscms" : "background";
        const auto sid = site.submit(std::move(job), [&](const grid::JobEvent& e) {
          if (terminal[e.submission.value()]) ++events_after_terminal;
          if (grid::is_terminal(e.state)) terminal[e.submission.value()] = true;
        });
        if (sid.has_value()) live.push_back(*sid);
      } else if (dice < 0.75 && !live.empty()) {
        (void)site.cancel(live[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size() - 1)))]);
      } else if (dice < 0.82) {
        site.go_down();
      } else if (dice < 0.89) {
        site.become_black_hole();
      } else if (dice < 0.93) {
        site.degrade();
      } else {
        site.recover();
      }
      // Invariant: the queue report never exceeds physical CPUs.
      if (const auto q = site.query(); q.has_value()) {
        EXPECT_GE(q->running, 0);
        EXPECT_LE(q->running, config.cpus);
        EXPECT_GE(q->queued, 0);
        EXPECT_EQ(q->free_cpus, q->cpus - q->running);
      }
    });
  }
  engine.run_until(hours(24));
  EXPECT_EQ(events_after_terminal, 0u) << "events emitted after terminal state";
  // Counter algebra: everything submitted ends somewhere.
  const auto& counters = site.counters();
  EXPECT_LE(counters.completed + counters.cancelled + counters.lost,
            counters.submitted);
}

// --- journal replay equivalence ---------------------------------------------

TEST_P(SeededProperty, JournalReplayMatchesOriginal) {
  Rng rng(GetParam());
  db::Database original;
  db::Table& table = original.create_table(
      "t", db::Schema{{"k", db::ValueType::kInt},
                      {"s", db::ValueType::kText},
                      {"x", db::ValueType::kReal}});
  std::vector<db::RowId> rows;
  for (int i = 0; i < 400; ++i) {
    const double dice = rng.uniform();
    if (dice < 0.6 || rows.empty()) {
      rows.push_back(table.insert({db::Value(rng.uniform_int(0, 1000)),
                                   db::Value("s" + std::to_string(i % 17)),
                                   db::Value(rng.uniform(0, 1))}));
    } else if (dice < 0.85) {
      table.update(rows[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(rows.size() - 1)))],
                   table.schema().index_of("s"),
                   db::Value("u" + std::to_string(i)));
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(rows.size() - 1)));
      table.erase(rows[idx]);
      rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  // Replay directly and through the text form; both must equal original.
  db::Database direct;
  ASSERT_TRUE(direct.recover(original.journal()).ok());
  const auto parsed = db::Journal::parse(original.journal().serialize());
  ASSERT_TRUE(parsed.has_value());
  db::Database via_text;
  ASSERT_TRUE(via_text.recover(*parsed).ok());

  const auto snapshot = [](const db::Database& d) {
    std::vector<std::string> out;
    d.table("t").for_each([&out](const db::Row& row) {
      std::string line = std::to_string(row.id);
      for (const auto& cell : row.cells) {
        line += '|';
        db::append_value(line, cell);
      }
      out.push_back(std::move(line));
    });
    return out;
  };
  EXPECT_EQ(snapshot(direct), snapshot(original));
  EXPECT_EQ(snapshot(via_text), snapshot(original));
}

// --- workload generator invariants ------------------------------------------

TEST_P(SeededProperty, GeneratedWorkloadsAreWellFormed) {
  workflow::IdSpace ids;
  data::ReplicaLocationService rls;
  workflow::WorkloadConfig config;
  Rng meta(GetParam());
  config.jobs_per_dag = static_cast<int>(meta.uniform_int(1, 25));
  config.min_inputs = static_cast<int>(meta.uniform_int(1, 3));
  config.max_inputs = config.min_inputs + static_cast<int>(meta.uniform_int(0, 3));
  config.max_parents = static_cast<int>(meta.uniform_int(0, 4));
  workflow::WorkloadGenerator generator(config, Rng(GetParam()), ids, rls,
                                        {SiteId(1), SiteId(2), SiteId(3)});
  for (int d = 0; d < 10; ++d) {
    const workflow::Dag dag = generator.generate("p" + std::to_string(d));
    ASSERT_TRUE(dag.validate().ok());
    EXPECT_EQ(dag.size(), static_cast<std::size_t>(config.jobs_per_dag));
    for (const auto& job : dag.jobs()) {
      EXPECT_GE(static_cast<int>(job.inputs.size()), config.min_inputs);
      EXPECT_LE(static_cast<int>(job.inputs.size()),
                std::max(config.max_inputs, config.max_parents));
      EXPECT_LE(dag.parents(job.id).size(),
                static_cast<std::size_t>(config.max_parents));
      // Every non-parent input must be resolvable through the RLS.
      for (const auto& input : job.inputs) {
        bool from_parent = false;
        for (const JobId parent : dag.parents(job.id)) {
          if (dag.job(parent).output == input) from_parent = true;
        }
        if (!from_parent) {
          EXPECT_TRUE(rls.exists(input)) << input;
        }
      }
    }
  }
}

// --- chaos schedule synthesis ----------------------------------------------

TEST_P(SeededProperty, ChaosSchedulesAreSortedAndNonOverlapping) {
  chaos::ScheduleConfig config;
  const auto schedule =
      chaos::synthesize(GetParam(), config, exp::Scenario::site_names());
  EXPECT_GT(schedule.outage_count(), 0u);
  for (const auto& [site, list] : schedule.outages) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_GE(list[i].at, 0.0);
      EXPECT_GE(list[i].duration, config.min_duration);
      if (i > 0) {
        // Next outage starts strictly after the previous repair (the
        // FailureModel schedule contract, plus the 1 s seq-order gap).
        EXPECT_GE(list[i].at,
                  list[i - 1].at + list[i - 1].duration + 1.0);
      }
    }
  }
  for (std::size_t i = 1; i < schedule.crash_records.size(); ++i) {
    EXPECT_GT(schedule.crash_records[i], schedule.crash_records[i - 1]);
  }
}

TEST_P(SeededProperty, ChaosScheduleSynthesisIsSeedDeterministic) {
  chaos::ScheduleConfig config;
  const auto sites = exp::Scenario::site_names();
  const auto a = chaos::synthesize(GetParam(), config, sites);
  const auto b = chaos::synthesize(GetParam(), config, sites);
  EXPECT_EQ(chaos::to_json(a), chaos::to_json(b));
  const auto other = chaos::synthesize(GetParam() + 1000, config, sites);
  EXPECT_NE(chaos::to_json(a), chaos::to_json(other));
}

TEST_P(SeededProperty, ScheduledOutagesAlternateWithRepairs) {
  // Drive a real scenario from a synthesized schedule and read the
  // flight recorder back: per site, outage and repair events must
  // strictly alternate starting with an outage, and every repair lands
  // after its outage.  (The final outage may still be open at horizon.)
  chaos::ScheduleConfig config;
  config.span = hours(3);
  config.outages = 6;
  config.bursts = 1;
  config.burst_sites = 2;
  const auto schedule =
      chaos::synthesize(GetParam(), config, exp::Scenario::site_names());

  exp::ScenarioConfig scenario_config;
  scenario_config.seed = GetParam();
  scenario_config.site_failures = false;
  scenario_config.outage_schedules = schedule.outages;
  exp::Scenario scenario(scenario_config);
  scenario.add_tenant("alt", {});
  scenario.start();
  scenario.run(hours(12));

  std::map<std::string, int> open;  // site -> currently-down?
  std::map<std::string, SimTime> last_outage_at;
  std::size_t outages_seen = 0;
  for (const auto& event : scenario.recorder().trace().events()) {
    if (event.kind == obs::TraceKind::kSiteOutage) {
      EXPECT_EQ(open[event.source], 0) << event.source << " double outage";
      open[event.source] = 1;
      last_outage_at[event.source] = event.at;
      ++outages_seen;
    } else if (event.kind == obs::TraceKind::kSiteRepair) {
      EXPECT_EQ(open[event.source], 1) << event.source << " repair w/o outage";
      open[event.source] = 0;
      EXPECT_GT(event.at, last_outage_at[event.source]);
    }
  }
  EXPECT_EQ(outages_seen, schedule.outage_count());
}

// --- stats edge cases -----------------------------------------------------

TEST_P(SeededProperty, PercentileSingleSampleIsThatSample) {
  Rng rng(GetParam());
  const double x = rng.uniform(-1000.0, 1000.0);
  // With one sample every quantile is the sample itself.
  EXPECT_DOUBLE_EQ(percentile({x}, 0.0), x);
  EXPECT_DOUBLE_EQ(percentile({x}, 0.5), x);
  EXPECT_DOUBLE_EQ(percentile({x}, 1.0), x);
}

TEST_P(SeededProperty, PercentileExtremesAreMinAndMax) {
  Rng rng(GetParam());
  std::vector<double> samples;
  double min = 0.0;
  double max = 0.0;
  const int n = static_cast<int>(rng.uniform_int(1, 50));
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(-1e6, 1e6);
    samples.push_back(x);
    min = samples.size() == 1 ? x : std::min(min, x);
    max = samples.size() == 1 ? x : std::max(max, x);
  }
  EXPECT_DOUBLE_EQ(percentile(samples, 0.0), min);
  EXPECT_DOUBLE_EQ(percentile(samples, 1.0), max);
  // Quantiles are monotone in q.
  EXPECT_LE(percentile(samples, 0.25), percentile(samples, 0.75));
}

TEST_P(SeededProperty, RunningStatsMergeWithEmptySideIsIdentity) {
  Rng rng(GetParam());
  RunningStats filled;
  const int n = static_cast<int>(rng.uniform_int(1, 40));
  for (int i = 0; i < n; ++i) filled.add(rng.uniform(-100.0, 100.0));

  // empty.merge(filled) == filled.
  RunningStats left;
  left.merge(filled);
  EXPECT_EQ(left.count(), filled.count());
  EXPECT_DOUBLE_EQ(left.mean(), filled.mean());
  EXPECT_DOUBLE_EQ(left.variance(), filled.variance());
  EXPECT_DOUBLE_EQ(left.min(), filled.min());
  EXPECT_DOUBLE_EQ(left.max(), filled.max());

  // filled.merge(empty) leaves filled untouched.
  RunningStats right = filled;
  right.merge(RunningStats{});
  EXPECT_EQ(right.count(), filled.count());
  EXPECT_DOUBLE_EQ(right.mean(), filled.mean());
  EXPECT_DOUBLE_EQ(right.variance(), filled.variance());
  EXPECT_DOUBLE_EQ(right.min(), filled.min());
  EXPECT_DOUBLE_EQ(right.max(), filled.max());
}

TEST_P(SeededProperty, RunningStatsMergeMatchesBulkAccumulation) {
  Rng rng(GetParam());
  RunningStats a;
  RunningStats b;
  RunningStats bulk;
  const int n = static_cast<int>(rng.uniform_int(1, 60));
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(-50.0, 50.0);
    (i % 2 == 0 ? a : b).add(x);
    bulk.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), bulk.count());
  EXPECT_NEAR(a.mean(), bulk.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), bulk.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(a.min(), bulk.min());
  EXPECT_DOUBLE_EQ(a.max(), bulk.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u));

}  // namespace
}  // namespace sphinx
