// Tests for the SPHINX data warehouse: schema, state transitions, site
// statistics (including censored cancellations), quotas and recovery.

#include <gtest/gtest.h>

#include "core/warehouse.hpp"
#include "workflow/generator.hpp"

namespace sphinx::core {
namespace {

workflow::Dag two_job_dag(std::uint64_t base = 100) {
  workflow::Dag dag(DagId(base), "wh-dag");
  workflow::JobSpec a;
  a.id = JobId(base + 1);
  a.name = "a";
  a.compute_time = 60.0;
  a.inputs = {"lfn://in"};
  a.output = "lfn://mid";
  a.output_bytes = 5e6;
  workflow::JobSpec b;
  b.id = JobId(base + 2);
  b.name = "b";
  b.compute_time = 30.0;
  b.inputs = {"lfn://mid"};
  b.output = "lfn://out";
  b.output_bytes = 1e6;
  dag.add_job(a);
  dag.add_job(b);
  dag.add_edge(a.id, b.id);
  return dag;
}

TEST(Warehouse, InsertDagMaterializesRows) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "client-1", UserId(9), 12.5);

  const auto dag = wh.dag(DagId(100));
  ASSERT_TRUE(dag.has_value());
  EXPECT_EQ(dag->name, "wh-dag");
  EXPECT_EQ(dag->client, "client-1");
  EXPECT_EQ(dag->user, UserId(9));
  EXPECT_EQ(dag->state, DagState::kReceived);
  EXPECT_DOUBLE_EQ(dag->received_at, 12.5);
  EXPECT_EQ(dag->total_jobs, 2);

  const auto jobs = wh.jobs_of_dag(DagId(100));
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].state, JobState::kUnplanned);
  EXPECT_EQ(jobs[0].attempt, 0);
  EXPECT_EQ(wh.job_inputs(JobId(101)),
            std::vector<data::Lfn>{"lfn://in"});
  EXPECT_EQ(wh.job_parents(JobId(102)), std::vector<JobId>{JobId(101)});
  EXPECT_TRUE(wh.job_parents(JobId(101)).empty());
}

TEST(Warehouse, DagStateTransitions) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "c", UserId(1), 0.0);
  EXPECT_EQ(wh.dags_in_state(DagState::kReceived).size(), 1u);
  wh.set_dag_state(DagId(100), DagState::kPlanning);
  EXPECT_TRUE(wh.dags_in_state(DagState::kReceived).empty());
  EXPECT_EQ(wh.dags_in_state(DagState::kPlanning).size(), 1u);
  wh.set_dag_finished(DagId(100), 500.0);
  const auto dag = wh.dag(DagId(100));
  EXPECT_EQ(dag->state, DagState::kFinished);
  EXPECT_DOUBLE_EQ(dag->finished_at, 500.0);
  EXPECT_THROW(wh.set_dag_state(DagId(999), DagState::kPlanning),
               AssertionError);
}

TEST(Warehouse, JobPlanningIncrementsAttempt) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "c", UserId(1), 0.0);
  wh.set_job_planned(JobId(101), SiteId(4), 10.0);
  auto job = wh.job(JobId(101));
  EXPECT_EQ(job->state, JobState::kPlanned);
  EXPECT_EQ(job->site, SiteId(4));
  EXPECT_EQ(job->attempt, 1);
  // Replanning after a cancellation bumps the attempt again.
  wh.set_job_state(JobId(101), JobState::kUnplanned);
  wh.set_job_planned(JobId(101), SiteId(5), 20.0);
  job = wh.job(JobId(101));
  EXPECT_EQ(job->attempt, 2);
  EXPECT_EQ(job->site, SiteId(5));
}

TEST(Warehouse, CompletedJobsAndOutstanding) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "c", UserId(1), 0.0);
  EXPECT_TRUE(wh.completed_jobs(DagId(100)).empty());
  wh.set_job_planned(JobId(101), SiteId(4), 1.0);
  wh.set_job_planned(JobId(102), SiteId(4), 1.0);
  EXPECT_EQ(wh.outstanding_on_site(SiteId(4)), 2);
  wh.set_job_state(JobId(101), JobState::kCompleted);
  EXPECT_EQ(wh.outstanding_on_site(SiteId(4)), 1);
  EXPECT_EQ(wh.completed_jobs(DagId(100)).size(), 1u);
  const auto by_site = wh.outstanding_by_site();
  EXPECT_EQ(by_site.at(SiteId(4)), 1);
}

TEST(Warehouse, SiteStatsEwmaAndReliability) {
  DataWarehouse wh;
  EXPECT_TRUE(wh.site_available(SiteId(1)));  // no data = available
  wh.record_completion(SiteId(1), 100.0);
  auto stats = wh.site_stats(SiteId(1));
  EXPECT_EQ(stats.completed, 1);
  EXPECT_DOUBLE_EQ(stats.avg_completion, 100.0);
  wh.record_completion(SiteId(1), 200.0);
  stats = wh.site_stats(SiteId(1));
  EXPECT_EQ(stats.samples, 2);
  // EWMA(0.3): 0.3*200 + 0.7*100 = 130.
  EXPECT_NEAR(stats.avg_completion, 130.0, 1e-9);
  EXPECT_TRUE(wh.site_available(SiteId(1)));

  wh.record_cancellation(SiteId(1));
  EXPECT_TRUE(wh.site_available(SiteId(1)));  // 1 cancel <= 2 completed
  wh.record_cancellation(SiteId(1));
  wh.record_cancellation(SiteId(1));
  EXPECT_FALSE(wh.site_available(SiteId(1)));  // 3 > 2
}

TEST(Warehouse, CensoredCancellationRaisesEwma) {
  DataWarehouse wh;
  wh.record_completion(SiteId(2), 100.0);
  wh.record_cancellation(SiteId(2), 900.0);  // timed out after 900 s
  const auto stats = wh.site_stats(SiteId(2));
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.samples, 2);
  EXPECT_GT(stats.avg_completion, 100.0);
  // First-ever observation may be censored too.
  wh.record_cancellation(SiteId(3), 900.0);
  EXPECT_DOUBLE_EQ(wh.site_stats(SiteId(3)).avg_completion, 900.0);
  // Zero-duration cancellation (no information) leaves the EWMA alone.
  wh.record_cancellation(SiteId(4));
  EXPECT_EQ(wh.site_stats(SiteId(4)).samples, 0);
}

TEST(Warehouse, QuotaLifecycle) {
  DataWarehouse wh;
  const UserId user(7);
  const SiteId site(3);
  // No quota row: unconstrained.
  EXPECT_TRUE(std::isinf(wh.quota_remaining(user, site, "cpu_seconds")));
  wh.consume_quota(user, site, "cpu_seconds", 100.0);  // no-op
  EXPECT_TRUE(std::isinf(wh.quota_remaining(user, site, "cpu_seconds")));

  wh.set_quota(user, site, "cpu_seconds", 1000.0);
  EXPECT_DOUBLE_EQ(wh.quota_remaining(user, site, "cpu_seconds"), 1000.0);
  wh.consume_quota(user, site, "cpu_seconds", 400.0);
  EXPECT_DOUBLE_EQ(wh.quota_remaining(user, site, "cpu_seconds"), 600.0);
  wh.refund_quota(user, site, "cpu_seconds", 100.0);
  EXPECT_DOUBLE_EQ(wh.quota_remaining(user, site, "cpu_seconds"), 700.0);
  // Refund never goes below zero used.
  wh.refund_quota(user, site, "cpu_seconds", 1e9);
  EXPECT_DOUBLE_EQ(wh.quota_remaining(user, site, "cpu_seconds"), 1000.0);
  // Quotas are per (user, site, resource).
  EXPECT_TRUE(std::isinf(wh.quota_remaining(UserId(8), site, "cpu_seconds")));
  EXPECT_TRUE(std::isinf(wh.quota_remaining(user, SiteId(4), "cpu_seconds")));
  EXPECT_TRUE(std::isinf(wh.quota_remaining(user, site, "disk_bytes")));
  // set_quota on an existing row updates the limit, preserving usage.
  wh.consume_quota(user, site, "cpu_seconds", 300.0);
  wh.set_quota(user, site, "cpu_seconds", 2000.0);
  EXPECT_DOUBLE_EQ(wh.quota_remaining(user, site, "cpu_seconds"), 1700.0);
}

TEST(Warehouse, RecoveryPreservesEverything) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "client-x", UserId(3), 5.0);
  wh.set_job_planned(JobId(101), SiteId(2), 8.0);
  wh.set_job_state(JobId(101), JobState::kRunning);
  wh.record_completion(SiteId(2), 250.0);
  wh.record_cancellation(SiteId(9), 900.0);
  wh.set_quota(UserId(3), SiteId(2), "cpu_seconds", 5000.0);
  wh.consume_quota(UserId(3), SiteId(2), "cpu_seconds", 60.0);

  auto recovered = DataWarehouse::recover_from(wh.journal());
  ASSERT_TRUE(recovered.has_value());
  DataWarehouse& r = **recovered;
  EXPECT_EQ(r.dag(DagId(100))->client, "client-x");
  EXPECT_EQ(r.job(JobId(101))->state, JobState::kRunning);
  EXPECT_EQ(r.job(JobId(101))->site, SiteId(2));
  EXPECT_EQ(r.job(JobId(101))->attempt, 1);
  EXPECT_DOUBLE_EQ(r.site_stats(SiteId(2)).avg_completion, 250.0);
  EXPECT_EQ(r.site_stats(SiteId(9)).cancelled, 1);
  EXPECT_DOUBLE_EQ(r.quota_remaining(UserId(3), SiteId(2), "cpu_seconds"),
                   4940.0);
  // Recovered warehouse keeps journaling and can recover again (chain).
  r.record_completion(SiteId(2), 100.0);
  auto second = DataWarehouse::recover_from(r.journal());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*second)->site_stats(SiteId(2)).samples, 2);
}

TEST(Warehouse, RecoverySurvivesTextSerialization) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "c", UserId(1), 0.0);
  wh.set_job_planned(JobId(101), SiteId(2), 1.0);
  const std::string text = wh.journal().serialize();
  const auto parsed = db::Journal::parse(text);
  ASSERT_TRUE(parsed.has_value());
  const auto recovered = DataWarehouse::recover_from(*parsed);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ((*recovered)->job(JobId(101))->site, SiteId(2));
}

TEST(Warehouse, RecoveryRejectsAForeignSchema) {
  // A journal whose tables are not the warehouse's own cannot be bound to
  // its resolved table handles.
  db::Database foreign;
  foreign.create_table("dags", db::Schema{{"dag_id", db::ValueType::kInt}});
  const auto recovered = DataWarehouse::recover_from(foreign.journal());
  ASSERT_FALSE(recovered.has_value());
  EXPECT_EQ(recovered.error().code, "recover_schema");
}

TEST(Warehouse, DirtyQueueDrivesTheSweep) {
  DataWarehouse wh;
  // Submission enqueues the DAG.
  wh.insert_dag(two_job_dag(), "c", UserId(1), 0.0);
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(100)});

  // Draining empties the queue and yields a fresh record.
  auto drained = wh.drain_dirty_dags();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].id, DagId(100));
  EXPECT_EQ(drained[0].state, DagState::kReceived);
  EXPECT_TRUE(wh.dirty_dags().empty());
  EXPECT_TRUE(wh.drain_dirty_dags().empty());

  // Planning a job creates no new work; completing one does (the
  // children may now be ready).
  wh.set_dag_state(DagId(100), DagState::kPlanning);
  (void)wh.drain_dirty_dags();  // the state change itself enqueued it
  wh.set_job_planned(JobId(101), SiteId(4), 1.0);
  EXPECT_TRUE(wh.dirty_dags().empty());
  wh.set_job_state(JobId(101), JobState::kCompleted);
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(100)});

  // A cancellation bounces the job back to unplanned: work again.
  (void)wh.drain_dirty_dags();
  wh.set_job_planned(JobId(102), SiteId(4), 2.0);
  wh.set_job_state(JobId(102), JobState::kUnplanned);
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(100)});

  // Finishing the DAG removes it from the queue: no work after the end.
  wh.set_dag_finished(DagId(100), 10.0);
  EXPECT_TRUE(wh.dirty_dags().empty());
}

TEST(Warehouse, DrainYieldsSubmissionOrder) {
  DataWarehouse wh;
  // Submission order (table row order), not DAG-id order.
  wh.insert_dag(two_job_dag(200), "c", UserId(1), 0.0);
  wh.insert_dag(two_job_dag(100), "c", UserId(1), 1.0);
  const auto ids = wh.dirty_dags();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], DagId(200));
  EXPECT_EQ(ids[1], DagId(100));
  const auto drained = wh.drain_dirty_dags();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].id, DagId(200));
  EXPECT_EQ(drained[1].id, DagId(100));
  // Marking is idempotent: one queue entry per DAG.
  wh.mark_dag_dirty(DagId(100));
  wh.mark_dag_dirty(DagId(100));
  EXPECT_EQ(wh.dirty_dags().size(), 1u);
}

TEST(Warehouse, OutstandingCountersMatchScan) {
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(100), "c", UserId(1), 0.0);
  wh.insert_dag(two_job_dag(200), "c", UserId(1), 0.0);
  EXPECT_EQ(wh.outstanding_by_site(), wh.scan_outstanding_by_site());

  wh.set_job_planned(JobId(101), SiteId(4), 1.0);
  wh.set_job_planned(JobId(102), SiteId(5), 1.0);
  wh.set_job_planned(JobId(201), SiteId(4), 1.0);
  EXPECT_EQ(wh.outstanding_by_site(), wh.scan_outstanding_by_site());
  EXPECT_EQ(wh.outstanding_on_site(SiteId(4)), 2);

  // Submitted and running still count as outstanding (eq. 1/2).
  wh.set_job_state(JobId(101), JobState::kSubmitted);
  wh.set_job_state(JobId(101), JobState::kRunning);
  EXPECT_EQ(wh.outstanding_by_site(), wh.scan_outstanding_by_site());
  EXPECT_EQ(wh.outstanding_on_site(SiteId(4)), 2);

  // Completion and cancellation-to-unplanned both release the slot.
  wh.set_job_state(JobId(101), JobState::kCompleted);
  wh.set_job_state(JobId(201), JobState::kUnplanned);
  EXPECT_EQ(wh.outstanding_by_site(), wh.scan_outstanding_by_site());
  EXPECT_EQ(wh.outstanding_on_site(SiteId(4)), 0);
  // Zero entries are erased, matching the scan map exactly.
  EXPECT_FALSE(wh.outstanding_by_site().contains(SiteId(4)));
  EXPECT_EQ(wh.outstanding_by_site().at(SiteId(5)), 1);
  wh.check_invariants();
}

TEST(Warehouse, RecoveryRebuildsWorkState) {
  DataWarehouse wh;
  // DAG 100: planning with an unplanned job -> work to retry.
  wh.insert_dag(two_job_dag(100), "c", UserId(1), 0.0);
  wh.set_dag_state(DagId(100), DagState::kPlanning);
  wh.set_job_planned(JobId(101), SiteId(4), 1.0);
  // DAG 200: planning, fully planned -> idle until something reports.
  wh.insert_dag(two_job_dag(200), "c", UserId(1), 0.0);
  wh.set_dag_state(DagId(200), DagState::kPlanning);
  wh.set_job_planned(JobId(201), SiteId(4), 1.0);
  wh.set_job_planned(JobId(202), SiteId(5), 1.0);
  // DAG 300: freshly received -> work for the reducer.
  wh.insert_dag(two_job_dag(300), "c", UserId(1), 2.0);
  // DAG 400: finished -> never work again.
  wh.insert_dag(two_job_dag(400), "c", UserId(1), 3.0);
  wh.set_job_planned(JobId(401), SiteId(5), 3.0);
  wh.set_job_state(JobId(401), JobState::kCompleted);
  wh.set_job_planned(JobId(402), SiteId(5), 4.0);
  wh.set_job_state(JobId(402), JobState::kCompleted);
  wh.set_dag_finished(DagId(400), 5.0);

  const auto recovered = DataWarehouse::recover_from(wh.journal());
  ASSERT_TRUE(recovered.has_value());
  const DataWarehouse& r = **recovered;
  // Recovery reproduces the live queue *exactly* -- not an approximation
  // from the tables.  Nothing drained yet, so every unfinished DAG that
  // was ever enqueued (100, 200, 300) is still queued; finished 400 is
  // not.  The chaos differential oracle depends on this equality.
  const std::vector<DagId> expected{DagId(100), DagId(200), DagId(300)};
  EXPECT_EQ(wh.dirty_dags(), expected);
  EXPECT_EQ(r.dirty_dags(), wh.dirty_dags());
  // Counters equal a from-scratch scan of the recovered jobs table.
  EXPECT_EQ(r.outstanding_by_site(), r.scan_outstanding_by_site());
  EXPECT_EQ(r.outstanding_on_site(SiteId(4)), 2);  // jobs 101, 201
  EXPECT_EQ(r.outstanding_on_site(SiteId(5)), 1);  // job 202
  r.check_invariants();
}

TEST(Warehouse, RecoveryReplaysDrainPoints) {
  // "Enqueued, not yet swept" and "already swept" leave identical
  // tables; only the journaled drain ledger separates them.  Recovery
  // must land on the same side of the drain as the crashed server.
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(100), "c", UserId(1), 0.0);
  wh.set_dag_state(DagId(100), DagState::kPlanning);
  wh.set_job_planned(JobId(101), SiteId(4), 1.0);
  wh.set_job_planned(JobId(102), SiteId(4), 1.0);

  const auto dirty_after_recovery = [&wh] {
    const auto recovered = DataWarehouse::recover_from(wh.journal());
    EXPECT_TRUE(recovered.has_value());
    return (*recovered)->dirty_dags();
  };

  // Sweep boundary: drained, fully planned, nothing to retry -> idle.
  (void)wh.drain_dirty_dags();
  EXPECT_EQ(dirty_after_recovery(), wh.dirty_dags());
  EXPECT_TRUE(wh.dirty_dags().empty());

  // A completion re-enqueues the DAG: a crash before the next sweep must
  // recover it queued...
  wh.set_job_state(JobId(101), JobState::kCompleted);
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(100)});
  EXPECT_EQ(dirty_after_recovery(), wh.dirty_dags());

  // ...and a crash after that sweep must recover it idle again, even
  // though the tables are byte-identical in both snapshots.
  (void)wh.drain_dirty_dags();
  EXPECT_TRUE(wh.dirty_dags().empty());
  EXPECT_EQ(dirty_after_recovery(), wh.dirty_dags());
}

TEST(Warehouse, CheckpointRecoveryPreservesEverything) {
  // The checkpoint + suffix mirror of RecoveryPreservesEverything: half
  // the history lands in the image, half in the journal suffix, and the
  // recovered warehouse must be indistinguishable from a full replay.
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "client-x", UserId(3), 5.0);
  wh.set_job_planned(JobId(101), SiteId(2), 8.0);
  wh.record_completion(SiteId(2), 250.0);

  const auto stats = wh.checkpoint(9.0);
  EXPECT_TRUE(stats.truncated);
  EXPECT_GT(stats.compacted_records, 0u);
  EXPECT_TRUE(wh.journal().empty());  // O(state): prefix discarded
  EXPECT_EQ(wh.journal().base_seq(), stats.seq);

  wh.set_job_state(JobId(101), JobState::kRunning);
  wh.record_cancellation(SiteId(9), 900.0);
  wh.set_quota(UserId(3), SiteId(2), "cpu_seconds", 5000.0);
  wh.consume_quota(UserId(3), SiteId(2), "cpu_seconds", 60.0);

  // The compacted journal alone is not recoverable -- it needs its image.
  const auto replay_only = DataWarehouse::recover_from(wh.journal());
  ASSERT_FALSE(replay_only.has_value());
  EXPECT_EQ(replay_only.error().code, "recover_suffix");

  ASSERT_TRUE(wh.checkpoint_image().has_value());
  auto recovered =
      DataWarehouse::recover_from(*wh.checkpoint_image(), wh.journal());
  ASSERT_TRUE(recovered.has_value());
  DataWarehouse& r = **recovered;
  EXPECT_EQ(r.dag(DagId(100))->client, "client-x");
  EXPECT_EQ(r.job(JobId(101))->state, JobState::kRunning);
  EXPECT_EQ(r.job(JobId(101))->attempt, 1);
  EXPECT_DOUBLE_EQ(r.site_stats(SiteId(2)).avg_completion, 250.0);
  EXPECT_EQ(r.site_stats(SiteId(9)).cancelled, 1);
  EXPECT_DOUBLE_EQ(r.quota_remaining(UserId(3), SiteId(2), "cpu_seconds"),
                   4940.0);
  EXPECT_EQ(r.outstanding_by_site(), r.scan_outstanding_by_site());
  EXPECT_EQ(r.dirty_dags(), wh.dirty_dags());
  // The recovered journal is the crashed journal, byte for byte -- the
  // recovered server is itself recoverable the same way (chain).
  EXPECT_EQ(r.journal().serialize(), wh.journal().serialize());
  r.record_completion(SiteId(2), 100.0);
  ASSERT_TRUE(r.checkpoint_image().has_value());  // carried across recovery
  auto second =
      DataWarehouse::recover_from(*r.checkpoint_image(), r.journal());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*second)->site_stats(SiteId(2)).samples, 2);
  r.check_invariants();
}

TEST(Warehouse, MidCheckpointCrashLeavesJournalRecoverable) {
  // A crash between image publication and journal truncation: the image
  // exists but the journal still holds the full history.  Recovery must
  // skip the already-snapshotted prefix and complete the truncation.
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(), "c", UserId(1), 0.0);
  wh.set_job_planned(JobId(101), SiteId(4), 1.0);

  const auto stats = wh.checkpoint(2.0, [](const CheckpointImage&) {
    return true;  // simulate the kill inside the window
  });
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(wh.journal().base_seq(), 0u);  // untruncated
  EXPECT_GT(wh.journal().size(), 0u);

  wh.set_job_state(JobId(101), JobState::kCompleted);  // post-window suffix

  ASSERT_TRUE(wh.checkpoint_image().has_value());
  const auto recovered =
      DataWarehouse::recover_from(*wh.checkpoint_image(), wh.journal());
  ASSERT_TRUE(recovered.has_value());
  const DataWarehouse& r = **recovered;
  EXPECT_EQ(r.job(JobId(101))->state, JobState::kCompleted);
  EXPECT_EQ(r.dirty_dags(), wh.dirty_dags());
  // Recovery finished what the crash interrupted: the journal it carries
  // is the compacted suffix, based at the image's sequence.
  EXPECT_EQ(r.journal().base_seq(), wh.checkpoint_image()->seq);
  EXPECT_EQ(r.journal().next_seq(), wh.journal().next_seq());
  r.check_invariants();
}

TEST(Warehouse, DrainLedgerStaysExactAcrossCheckpoints) {
  // The drain-ledger regression: "completion-dirtied, not yet swept" is
  // invisible to the tables (no unplanned job, DAG still planning), so
  // the final re-mark pass cannot reconstruct it.  The image must carry
  // the live queue exactly, on whichever side of the checkpoint the
  // drain and the re-dirtying completion fall.
  DataWarehouse wh;
  wh.insert_dag(two_job_dag(100), "c", UserId(1), 0.0);
  wh.set_dag_state(DagId(100), DagState::kPlanning);
  wh.set_job_planned(JobId(101), SiteId(4), 1.0);
  wh.set_job_planned(JobId(102), SiteId(4), 1.0);
  (void)wh.drain_dirty_dags();  // drain point precedes every checkpoint

  const auto dirty_after_checkpoint_recovery = [&wh] {
    const auto recovered =
        DataWarehouse::recover_from(*wh.checkpoint_image(), wh.journal());
    EXPECT_TRUE(recovered.has_value());
    (*recovered)->check_invariants();
    return (*recovered)->dirty_dags();
  };

  // Completion lands *after* the checkpoint: image says idle, the
  // journal suffix re-marks the DAG.
  wh.checkpoint(2.0);
  wh.set_job_state(JobId(101), JobState::kCompleted);
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(100)});
  EXPECT_EQ(dirty_after_checkpoint_recovery(), wh.dirty_dags());

  // Completion precedes the *next* checkpoint: the suffix is empty and
  // only the image's captured queue knows the DAG is still pending.
  wh.checkpoint(3.0);
  EXPECT_TRUE(wh.journal().empty());
  EXPECT_EQ(wh.dirty_dags(), std::vector<DagId>{DagId(100)});
  EXPECT_EQ(dirty_after_checkpoint_recovery(), wh.dirty_dags());

  // And after the sweep drains it, a checkpointed recovery lands idle
  // again, even though the tables are identical to the pending case.
  (void)wh.drain_dirty_dags();
  wh.checkpoint(4.0);
  EXPECT_TRUE(wh.dirty_dags().empty());
  EXPECT_EQ(dirty_after_checkpoint_recovery(), wh.dirty_dags());
}

TEST(Warehouse, UnknownLookupsAreSafe) {
  DataWarehouse wh;
  EXPECT_FALSE(wh.dag(DagId(1)).has_value());
  EXPECT_FALSE(wh.job(JobId(1)).has_value());
  EXPECT_TRUE(wh.jobs_of_dag(DagId(1)).empty());
  EXPECT_EQ(wh.outstanding_on_site(SiteId(1)), 0);
  EXPECT_EQ(wh.site_stats(SiteId(1)).completed, 0);
}

}  // namespace
}  // namespace sphinx::core
