#include "core/warehouse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>

#include "common/contracts.hpp"
#include "obs/recorder.hpp"

namespace sphinx::core {

using db::Value;

namespace {
// EWMA weight for completion-time tracking: recent behaviour dominates on
// a dynamic grid, but not so sharply that one outlier flips the ranking.
constexpr double kEwmaAlpha = 0.3;
// Straggler detector sample rings: runtime observations retained per
// (site, job-class) key.  Bounded so the journal and the percentile scan
// both stay O(1) per key while the distribution still adapts.
constexpr std::size_t kMaxRuntimeSamples = 32;

// Column positions, in the order schemas() declares them.  Every table is
// checked against its declaration when the warehouse resolves it, so rows
// are read and written by position.
namespace dag_col {
enum : std::size_t {
  kDagId, kName, kClient, kUser, kState, kReceivedAt, kFinishedAt,
  kTotalJobs, kPriority, kDeadline
};
}  // namespace dag_col
namespace job_col {
enum : std::size_t {
  kJobId, kDagId, kName, kState, kSite, kComputeTime, kOutput, kOutputBytes,
  kAttempt, kPlannedAt
};
}  // namespace job_col
namespace input_col {
enum : std::size_t { kJobId, kLfn };
}  // namespace input_col
namespace dep_col {
enum : std::size_t { kJobId, kParent };
}  // namespace dep_col
namespace stats_col {
enum : std::size_t { kSiteId, kCompleted, kCancelled, kAvgCompletion, kSamples };
}  // namespace stats_col
namespace quota_col {
enum : std::size_t { kUser, kSite, kResource, kLimit, kUsed };
}  // namespace quota_col
namespace soft_col {
enum : std::size_t { kKey, kValue };
}  // namespace soft_col
namespace outbox_col {
enum : std::size_t { kSeq, kService, kPayload, kAttempt, kLastSentAt };
}  // namespace outbox_col
namespace spec_col {
enum : std::size_t {
  kJobId, kDagId, kPrimarySite, kPrimaryAttempt, kPrimaryPlannedAt,
  kSpecSite, kSpecAttempt, kState, kLaunchedAt
};
}  // namespace spec_col
namespace sample_col {
enum : std::size_t { kSite, kClass, kRuntime };
}  // namespace sample_col

/// The warehouse schema, in creation order (the order of
/// DataWarehouse::Tables).  Hot-path columns declare their hash index in
/// the schema itself, so the index set is journaled with the kCreateTable
/// entry and recovery rebuilds it without a separate recreation pass.
std::vector<std::pair<std::string, db::Schema>> schemas() {
  using db::indexed;
  using db::ValueType;
  std::vector<std::pair<std::string, db::Schema>> out;
  out.emplace_back("dags", db::Schema{{indexed("dag_id", ValueType::kInt),
                                       {"name", ValueType::kText},
                                       {"client", ValueType::kText},
                                       {"user", ValueType::kInt},
                                       indexed("state", ValueType::kText),
                                       {"received_at", ValueType::kReal},
                                       {"finished_at", ValueType::kReal},
                                       {"total_jobs", ValueType::kInt},
                                       {"priority", ValueType::kReal},
                                       {"deadline", ValueType::kReal}}});
  out.emplace_back("jobs", db::Schema{{indexed("job_id", ValueType::kInt),
                                       indexed("dag_id", ValueType::kInt),
                                       {"name", ValueType::kText},
                                       indexed("state", ValueType::kText),
                                       {"site", ValueType::kInt},
                                       {"compute_time", ValueType::kReal},
                                       {"output", ValueType::kText},
                                       {"output_bytes", ValueType::kReal},
                                       {"attempt", ValueType::kInt},
                                       {"planned_at", ValueType::kReal}}});
  out.emplace_back("job_inputs",
                   db::Schema{{indexed("job_id", ValueType::kInt),
                               {"lfn", ValueType::kText}}});
  out.emplace_back("job_deps",
                   db::Schema{{indexed("job_id", ValueType::kInt),
                               indexed("parent", ValueType::kInt)}});
  out.emplace_back("site_stats",
                   db::Schema{{indexed("site_id", ValueType::kInt),
                               {"completed", ValueType::kInt},
                               {"cancelled", ValueType::kInt},
                               {"avg_completion", ValueType::kReal},
                               {"samples", ValueType::kInt}}});
  out.emplace_back("quotas", db::Schema{{indexed("user", ValueType::kInt),
                                         {"site", ValueType::kInt},
                                         {"resource", ValueType::kText},
                                         {"limit", ValueType::kReal},
                                         {"used", ValueType::kReal}}});
  // Key/value store for scheduling-module soft state (strategy cursors).
  // Journaled like everything else, so a recovered server's strategy
  // resumes mid-rotation instead of resetting to job zero.
  out.emplace_back("scheduler_state",
                   db::Schema{{indexed("key", ValueType::kText),
                               {"value", ValueType::kText}}});
  // In-flight calls of the server's outbound RPC client.  Journaled so a
  // journal-recovered server re-arms the exact retry schedule the
  // crashed instance had in flight (see ClarensClient::restore_call).
  out.emplace_back("rpc_outbox",
                   db::Schema{{indexed("seq", ValueType::kInt),
                               {"service", ValueType::kText},
                               {"payload", ValueType::kText},
                               {"attempt", ValueType::kInt},
                               {"last_sent_at", ValueType::kReal}}});
  // Straggler defense.  Speculation races are scheduler state proper --
  // recovery must re-arm an open race exactly, so the rows ride the
  // journal like jobs do.  The runtime-sample rings feed the detector's
  // per-(site, class) percentiles; journaling them keeps a recovered
  // detector's decisions byte-identical to the crashed instance's.
  out.emplace_back("speculations",
                   db::Schema{{indexed("job_id", ValueType::kInt),
                               {"dag_id", ValueType::kInt},
                               {"primary_site", ValueType::kInt},
                               {"primary_attempt", ValueType::kInt},
                               {"primary_planned_at", ValueType::kReal},
                               {"spec_site", ValueType::kInt},
                               {"spec_attempt", ValueType::kInt},
                               indexed("state", ValueType::kText),
                               {"launched_at", ValueType::kReal}}});
  out.emplace_back("runtime_samples",
                   db::Schema{{indexed("site", ValueType::kInt),
                               indexed("class", ValueType::kInt),
                               {"runtime", ValueType::kReal}}});
  // One-row drain ledger.  The dirty queue itself is derived state, but
  // *when* each sweep cleared it is history only the journal carries:
  // rebuild_work_state() replays the enqueue rules over the journal and
  // needs the clear points to land in order between them.
  out.emplace_back("work_queue",
                   db::Schema{{"drains", ValueType::kInt}});
  return out;
}

SiteId site_cell(const Value& v) {
  return SiteId(static_cast<std::uint64_t>(v.as_int()));
}

}  // namespace

DataWarehouse::DataWarehouse() : DataWarehouse(true) {}

DataWarehouse::DataWarehouse(bool with_schema) {
  if (with_schema) create_schema();
}

void DataWarehouse::create_schema() {
  for (auto& [name, schema] : schemas()) {
    db_.create_table(name, std::move(schema));
  }
  const StatusOrError resolved = resolve_tables();
  SPHINX_ASSERT(resolved.ok(), "a fresh schema resolves");
  tables_.work_queue->insert({Value(std::int64_t{0})});
}

StatusOrError DataWarehouse::resolve_tables() {
  db::Table** const handles[] = {
      &tables_.dags,         &tables_.jobs,        &tables_.job_inputs,
      &tables_.job_deps,     &tables_.site_stats,  &tables_.quotas,
      &tables_.soft_state,   &tables_.rpc_outbox,  &tables_.speculations,
      &tables_.runtime_samples, &tables_.work_queue};
  const auto declared = schemas();
  SPHINX_ASSERT(declared.size() == std::size(handles),
                "every declared table needs a handle");
  for (std::size_t i = 0; i < declared.size(); ++i) {
    const auto& [name, schema] = declared[i];
    if (!db_.has_table(name)) {
      return make_error("recover_schema", "no table " + name);
    }
    db::Table& table = db_.table(name);
    if (table.schema().columns() != schema.columns()) {
      return make_error("recover_schema",
                        "table " + name + " differs from its declaration");
    }
    *handles[i] = &table;
  }
  return {};
}

Expected<std::unique_ptr<DataWarehouse>> DataWarehouse::recover_from(
    const db::Journal& journal) {
  if (journal.base_seq() != 0) {
    return Unexpected<Error>{
        Error{"recover_suffix",
              "journal is a compacted suffix; recovery needs its "
              "checkpoint image"}};
  }
  // Construct without a schema: the journal replays table creation, and
  // the journaled schema declares the indexes, so replay rebuilds those
  // too.  Only the derived work state needs explicit reconstruction.
  auto warehouse =
      std::unique_ptr<DataWarehouse>(new DataWarehouse(false));
  if (const auto status = warehouse->db_.recover(
          journal, 0, db::Database::Sweep::kByCaller);
      !status.ok()) {
    return Unexpected<Error>{status.error()};
  }
  if (const auto status = warehouse->finish_recovery(); !status.ok()) {
    return Unexpected<Error>{status.error()};
  }
  return warehouse;
}

Expected<std::unique_ptr<DataWarehouse>> DataWarehouse::recover_from(
    const CheckpointImage& checkpoint, const db::Journal& journal) {
  auto warehouse =
      std::unique_ptr<DataWarehouse>(new DataWarehouse(false));
  if (const auto status = warehouse->db_.restore(
          *checkpoint.database, db::Database::Sweep::kByCaller);
      !status.ok()) {
    return Unexpected<Error>{status.error()};
  }
  // Replay only the post-checkpoint suffix.  When the crash landed
  // between image publication and truncation the journal still holds the
  // compacted prefix; skipping entries below checkpoint.seq completes
  // the interrupted truncation.
  if (const auto status = warehouse->db_.recover(
          journal, checkpoint.seq, db::Database::Sweep::kByCaller);
      !status.ok()) {
    return Unexpected<Error>{status.error()};
  }
  // Carry the image so rebuild_work_state() can seed the dirty queue
  // from it and so a later crash can pair the (now compacted) journal
  // with the image that anchors its sequence numbers.
  warehouse->checkpoint_ = checkpoint;
  if (const auto status = warehouse->finish_recovery(); !status.ok()) {
    return Unexpected<Error>{status.error()};
  }
  return warehouse;
}

StatusOrError DataWarehouse::finish_recovery() {
  if (auto status = resolve_tables(); !status.ok()) return status;
  rebuild_work_state();
  // The recovery's one sweep, before the server serves: the db layer's
  // structural checks (restore and replay deferred theirs to here) plus
  // the warehouse's own.
  check_invariants();
  return {};
}

DataWarehouse::CheckpointStats DataWarehouse::checkpoint(
    SimTime now, const std::function<bool(const CheckpointImage&)>& mid_hook) {
  CheckpointImage image;
  image.seq = db_.journal().next_seq();
  image.at = now;
  db_.snapshot();
  image.database = db_.image();
  image.dirty_rows.assign(dirty_rows_.begin(), dirty_rows_.end());

  CheckpointStats stats;
  stats.seq = image.seq;
  stats.compacted_records = db_.journal().size();
  stats.snapshot_bytes = image.database->size();

  // Publish first: from here on a recovered instance no longer needs the
  // journal prefix, whether or not the truncation below completes.
  checkpoint_ = std::move(image);
  if (mid_hook && mid_hook(*checkpoint_)) {
    return stats;  // crashing mid-checkpoint; journal left untruncated
  }
  db_.truncate_journal(checkpoint_->seq);
  stats.truncated = true;
  SPHINX_POSTCONDITION(db_.journal().base_seq() == checkpoint_->seq,
                       "compaction must advance the journal base to the "
                       "checkpoint sequence");
  return stats;
}

void DataWarehouse::rebuild_work_state() {
  // With a checkpoint image carried, the journal is (or is treated as) a
  // suffix: drain points and enqueues at or before the checkpoint were
  // compacted away, so the queue replay below must start from the
  // image's dirty queue rather than empty.  The drain-ledger exactness
  // argument is unchanged -- the image captured the live queue at the
  // checkpoint, and the suffix carries every enqueue/drain after it.
  dirty_rows_.clear();
  if (checkpoint_.has_value()) {
    dirty_rows_.insert(checkpoint_->dirty_rows.begin(),
                       checkpoint_->dirty_rows.end());
  }
  outstanding_ = scan_outstanding_by_site();

  // The dirty queue is history, not state: "job completed, DAG queued,
  // sweep pending" and "job completed, sweep already ran" leave
  // identical tables, so no table scan can reconstruct it.  Replay the
  // live enqueue/clear rules over the journal instead -- every enqueue
  // rides a journaled write, and the drain ledger marks where each sweep
  // cleared the queue -- so the recovered queue IS the crashed server's
  // queue, not an approximation (the chaos harness's differential oracle
  // compares the two runs byte-for-byte).
  const db::Table& dags = *tables_.dags;
  const db::Table& jobs = *tables_.jobs;
  const std::string dag_finished = to_string(DagState::kFinished);
  const std::string job_unplanned = to_string(JobState::kUnplanned);
  const std::string job_completed = to_string(JobState::kCompleted);
  for (const db::JournalEntry& entry : db_.journal().entries()) {
    switch (entry.op) {
      case db::JournalEntry::Op::kInsert:
        // record_dag: a received DAG is work for the reducer.
        if (entry.table == dags.name()) dirty_rows_.insert(entry.row);
        break;
      case db::JournalEntry::Op::kUpdate:
        if (entry.table == dags.name() && entry.column == dag_col::kState) {
          // set_dag_state / set_dag_finished: the next stage owns it,
          // finished DAGs hold no pending work.
          if (entry.cells[0].as_text() == dag_finished) {
            dirty_rows_.erase(entry.row);
          } else {
            dirty_rows_.insert(entry.row);
          }
        } else if (entry.table == jobs.name() &&
                   entry.column == job_col::kState) {
          // update_job_state: falling back to unplanned or completing
          // creates planner work for the owning DAG.
          const std::string& text = entry.cells[0].as_text();
          if (text == job_unplanned || text == job_completed) {
            const db::Row* job_row = jobs.find(entry.row);
            if (job_row == nullptr) break;
            const db::Row* dag_row =
                dags.find_first(dag_col::kDagId, job_row->cells[job_col::kDagId]);
            if (dag_row != nullptr) dirty_rows_.insert(dag_row->id);
          }
        } else if (entry.table == tables_.work_queue->name()) {
          dirty_rows_.clear();  // a sweep drained everything queued so far
        }
        break;
      case db::JournalEntry::Op::kErase:
        if (entry.table == dags.name()) dirty_rows_.erase(entry.row);
        break;
      case db::JournalEntry::Op::kCreateTable:
        break;
    }
  }

  // One enqueue has no journal footprint: the sweep re-marks any drained
  // DAG holding a ready job it could not place (no input replica, no
  // feasible site).  A job becomes ready-unplanned only through a
  // journaled enqueue (insert, a fall back to unplanned, its last
  // parent's completion), and leaves that state only through a sweep, so
  // such DAGs stay continuously dirty on a live server.  Queueing every
  // unfinished DAG that holds a ready unplanned job therefore reproduces
  // those marks exactly; DAGs whose unplanned jobs all wait on parents
  // were never re-marked and are not queued here either.
  dags.for_each([&](const db::Row& row) {
    if (row.cells[dag_col::kState].as_text() == dag_finished) return;
    const DagId dag(
        static_cast<std::uint64_t>(row.cells[dag_col::kDagId].as_int()));
    if (!ready_jobs(dag).empty()) dirty_rows_.insert(row.id);
  });
}

// --- DAGs ---------------------------------------------------------------

const db::Row* DataWarehouse::dag_row(DagId id) const {
  return tables_.dags->find_first(dag_col::kDagId, Value(id.value()));
}

const db::Row* DataWarehouse::job_row(JobId id) const {
  return tables_.jobs->find_first(job_col::kJobId, Value(id.value()));
}

void DataWarehouse::insert_dag(const workflow::Dag& dag,
                               const std::string& client, UserId user,
                               SimTime now, double priority,
                               SimTime deadline) {
  const db::RowId row = tables_.dags->insert(
      {Value(dag.id().value()), Value(dag.name()), Value(client),
       Value(user.value()), Value(to_string(DagState::kReceived)), Value(now),
       Value(kNever), Value(static_cast<std::int64_t>(dag.size())),
       Value(priority), Value(deadline)});
  dirty_rows_.insert(row);  // a received DAG is work for the reducer
  for (const workflow::JobSpec& job : dag.jobs()) {
    tables_.jobs->insert({Value(job.id.value()), Value(dag.id().value()),
                          Value(job.name), Value(to_string(JobState::kUnplanned)),
                          Value(std::int64_t{0}), Value(job.compute_time),
                          Value(job.output), Value(job.output_bytes),
                          Value(std::int64_t{0}), Value(kNever)});
    for (const data::Lfn& lfn : job.inputs) {
      tables_.job_inputs->insert({Value(job.id.value()), Value(lfn)});
    }
    for (const JobId parent : dag.parents(job.id)) {
      tables_.job_deps->insert({Value(job.id.value()), Value(parent.value())});
    }
  }
}

DagRecord DataWarehouse::decode_dag(const db::Row& row) {
  using namespace dag_col;
  DagRecord rec;
  rec.id = DagId(static_cast<std::uint64_t>(row.cells[kDagId].as_int()));
  rec.name = row.cells[kName].as_text();
  rec.client = row.cells[kClient].as_text();
  rec.user = UserId(static_cast<std::uint64_t>(row.cells[kUser].as_int()));
  rec.state = dag_state_from(row.cells[kState].as_text());
  rec.received_at = row.cells[kReceivedAt].as_real();
  rec.finished_at = row.cells[kFinishedAt].as_real();
  rec.total_jobs = row.cells[kTotalJobs].as_int();
  rec.priority = row.cells[kPriority].as_real();
  rec.deadline = row.cells[kDeadline].as_real();
  return rec;
}

std::vector<DagRecord> DataWarehouse::dags_in_state(DagState state) const {
  const db::Table& dags = *tables_.dags;
  std::vector<DagRecord> out;
  for (const db::RowId id :
       dags.find_by(dag_col::kState, Value(to_string(state)))) {
    out.push_back(decode_dag(*dags.find(id)));
  }
  return out;
}

std::optional<DagRecord> DataWarehouse::dag(DagId id) const {
  const db::Row* row = dag_row(id);
  if (row == nullptr) return std::nullopt;
  return decode_dag(*row);
}

void DataWarehouse::set_dag_state(DagId id, DagState state) {
  const db::Row* row = dag_row(id);
  SPHINX_ASSERT(row != nullptr, "set_dag_state: unknown dag");
  SPHINX_PRECONDITION(
      is_legal_transition(dag_state_from(row->cells[dag_col::kState].as_text()),
                          state),
      "dag automaton only moves forward");
  const db::RowId row_id = row->id;
  tables_.dags->update(row_id, dag_col::kState, Value(to_string(state)));
  if (state == DagState::kFinished) {
    dirty_rows_.erase(row_id);
  } else {
    dirty_rows_.insert(row_id);  // the next pipeline stage owns it now
  }
}

void DataWarehouse::set_dag_finished(DagId id, SimTime at) {
  const db::Row* row = dag_row(id);
  SPHINX_ASSERT(row != nullptr, "set_dag_finished: unknown dag");
  SPHINX_PRECONDITION(at >= row->cells[dag_col::kReceivedAt].as_real(),
                      "dag cannot finish before it was received");
  const db::RowId row_id = row->id;
  tables_.dags->update(row_id, dag_col::kState,
                       Value(to_string(DagState::kFinished)));
  tables_.dags->update(row_id, dag_col::kFinishedAt, Value(at));
  dirty_rows_.erase(row_id);  // finished DAGs hold no pending work
}

std::vector<DagRecord> DataWarehouse::all_dags() const {
  std::vector<DagRecord> out;
  tables_.dags->for_each(
      [&out](const db::Row& row) { out.push_back(decode_dag(row)); });
  return out;
}

// --- jobs ---------------------------------------------------------------

JobRecord DataWarehouse::decode_job(const db::Row& row) {
  using namespace job_col;
  JobRecord rec;
  rec.id = JobId(static_cast<std::uint64_t>(row.cells[kJobId].as_int()));
  rec.dag = DagId(static_cast<std::uint64_t>(row.cells[kDagId].as_int()));
  rec.name = row.cells[kName].as_text();
  rec.state = job_state_from(row.cells[kState].as_text());
  rec.site = site_cell(row.cells[kSite]);
  rec.compute_time = row.cells[kComputeTime].as_real();
  rec.output = row.cells[kOutput].as_text();
  rec.output_bytes = row.cells[kOutputBytes].as_real();
  rec.attempt = static_cast<int>(row.cells[kAttempt].as_int());
  rec.planned_at = row.cells[kPlannedAt].as_real();
  return rec;
}

SpeculationRecord DataWarehouse::decode_speculation(const db::Row& row) {
  using namespace spec_col;
  SpeculationRecord rec;
  rec.job = JobId(static_cast<std::uint64_t>(row.cells[kJobId].as_int()));
  rec.dag = DagId(static_cast<std::uint64_t>(row.cells[kDagId].as_int()));
  rec.primary_site = site_cell(row.cells[kPrimarySite]);
  rec.primary_attempt = static_cast<int>(row.cells[kPrimaryAttempt].as_int());
  rec.primary_planned_at = row.cells[kPrimaryPlannedAt].as_real();
  rec.spec_site = site_cell(row.cells[kSpecSite]);
  rec.spec_attempt = static_cast<int>(row.cells[kSpecAttempt].as_int());
  rec.state = speculation_state_from(row.cells[kState].as_text());
  rec.launched_at = row.cells[kLaunchedAt].as_real();
  return rec;
}

std::optional<JobRecord> DataWarehouse::job(JobId id) const {
  const db::Row* row = job_row(id);
  if (row == nullptr) return std::nullopt;
  return decode_job(*row);
}

std::vector<JobRecord> DataWarehouse::jobs_of_dag(DagId id) const {
  const db::Table& jobs = *tables_.jobs;
  std::vector<JobRecord> out;
  for (const db::RowId row : jobs.find_by(job_col::kDagId, Value(id.value()))) {
    out.push_back(decode_job(*jobs.find(row)));
  }
  return out;
}

std::vector<JobRecord> DataWarehouse::jobs_in_state(JobState state) const {
  const db::Table& jobs = *tables_.jobs;
  std::vector<JobRecord> out;
  for (const db::RowId row :
       jobs.find_by(job_col::kState, Value(to_string(state)))) {
    out.push_back(decode_job(*jobs.find(row)));
  }
  return out;
}

void DataWarehouse::set_job_state(JobId id, JobState state,
                                  std::string_view reason) {
  const db::Row* row = job_row(id);
  SPHINX_ASSERT(row != nullptr, "set_job_state: unknown job");
  const JobState old_state =
      job_state_from(row->cells[job_col::kState].as_text());
  SPHINX_PRECONDITION(is_legal_transition(old_state, state),
                      "illegal job state transition " +
                          std::string(to_string(old_state)) + " -> " +
                          to_string(state));
  const SiteId site = site_cell(row->cells[job_col::kSite]);
  const Value dag_key = row->cells[job_col::kDagId];
  const std::int64_t attempt = row->cells[job_col::kAttempt].as_int();
  const db::RowId row_id = row->id;
  tables_.jobs->update(row_id, job_col::kState, Value(to_string(state)));

  // Maintain the outstanding counters on the transition itself.
  const bool was_out = is_outstanding(old_state);
  const bool now_out = is_outstanding(state);
  if (was_out && !now_out) {
    const auto it = outstanding_.find(site);
    SPHINX_ASSERT(it != outstanding_.end() && it->second > 0,
                  "outstanding counter underflow");
    if (--it->second == 0) outstanding_.erase(it);
  } else if (!was_out && now_out) {
    ++outstanding_[site];
  }

  // A job falling back to unplanned (replanning) or completing (children
  // may become ready; the DAG may finish) creates planner work.
  if (state == JobState::kUnplanned || state == JobState::kCompleted) {
    const db::Row* dag = tables_.dags->find_first(dag_col::kDagId, dag_key);
    if (dag != nullptr) dirty_rows_.insert(dag->id);
  }

  if (recorder_ != nullptr) {
    std::string detail = std::string(to_string(old_state)) + "->" +
                         to_string(state);
    if (!reason.empty()) {
      detail += " (";
      detail += reason;
      detail += ")";
    }
    recorder_->event(obs::TraceKind::kJobTransition, recorder_source_,
                     "job:" + std::to_string(id.value()), std::move(detail),
                     static_cast<double>(attempt));
  }
}

void DataWarehouse::set_job_planned(JobId id, SiteId site, SimTime at) {
  const db::Row* row = job_row(id);
  SPHINX_ASSERT(row != nullptr, "set_job_planned: unknown job");
  SPHINX_PRECONDITION(
      is_legal_transition(job_state_from(row->cells[job_col::kState].as_text()),
                          JobState::kPlanned),
      "job must be plannable to receive a plan");
  const db::RowId row_id = row->id;
  const std::int64_t attempt = row->cells[job_col::kAttempt].as_int() + 1;
  db::Table& jobs = *tables_.jobs;
  jobs.update(row_id, job_col::kState, Value(to_string(JobState::kPlanned)));
  jobs.update(row_id, job_col::kSite, Value(site.value()));
  jobs.update(row_id, job_col::kAttempt, Value(attempt));
  jobs.update(row_id, job_col::kPlannedAt, Value(at));
  ++outstanding_[site];  // planned counts as outstanding until it resolves

  if (recorder_ != nullptr) {
    recorder_->event(obs::TraceKind::kJobTransition, recorder_source_,
                     "job:" + std::to_string(id.value()),
                     attempt > 1 ? std::string("unplanned->planned (replan)")
                                 : std::string("unplanned->planned"),
                     static_cast<double>(attempt));
  }
}

void DataWarehouse::set_recorder(obs::Recorder* recorder, std::string source) {
  recorder_ = recorder;
  recorder_source_ = std::move(source);
}

std::vector<data::Lfn> DataWarehouse::job_inputs(JobId id) const {
  const db::Table& inputs = *tables_.job_inputs;
  std::vector<data::Lfn> out;
  for (const db::RowId row :
       inputs.find_by(input_col::kJobId, Value(id.value()))) {
    out.push_back(inputs.find(row)->cells[input_col::kLfn].as_text());
  }
  return out;
}

std::vector<JobId> DataWarehouse::job_parents(JobId id) const {
  const db::Table& deps = *tables_.job_deps;
  std::vector<JobId> out;
  for (const db::RowId row : deps.find_by(dep_col::kJobId, Value(id.value()))) {
    out.emplace_back(static_cast<std::uint64_t>(
        deps.find(row)->cells[dep_col::kParent].as_int()));
  }
  return out;
}

std::vector<JobId> DataWarehouse::job_children(JobId id) const {
  const db::Table& deps = *tables_.job_deps;
  std::vector<JobId> out;
  for (const db::RowId row :
       deps.find_by(dep_col::kParent, Value(id.value()))) {
    out.emplace_back(static_cast<std::uint64_t>(
        deps.find(row)->cells[dep_col::kJobId].as_int()));
  }
  return out;
}

std::unordered_set<JobId> DataWarehouse::completed_jobs(DagId dag) const {
  std::unordered_set<JobId> out;
  for (const JobRecord& job : jobs_of_dag(dag)) {
    if (job.state == JobState::kCompleted) out.insert(job.id);
  }
  return out;
}

std::vector<JobRecord> DataWarehouse::ready_jobs(DagId dag) const {
  std::vector<JobRecord> out = jobs_of_dag(dag);
  std::unordered_set<JobId> completed;
  for (const JobRecord& job : out) {
    if (job.state == JobState::kCompleted) completed.insert(job.id);
  }
  std::erase_if(out, [&](const JobRecord& job) {
    if (job.state != JobState::kUnplanned) return true;
    const auto parents = job_parents(job.id);
    return !std::all_of(parents.begin(), parents.end(),
                        [&](JobId p) { return completed.contains(p); });
  });
  return out;
}

std::int64_t DataWarehouse::outstanding_on_site(SiteId site) const {
  const auto it = outstanding_.find(site);
  return it == outstanding_.end() ? 0 : it->second;
}

std::unordered_map<SiteId, std::int64_t> DataWarehouse::outstanding_by_site()
    const {
  return outstanding_;
}

std::unordered_map<SiteId, std::int64_t>
DataWarehouse::scan_outstanding_by_site() const {
  std::unordered_map<SiteId, std::int64_t> out;
  tables_.jobs->for_each([&](const db::Row& row) {
    if (is_outstanding(job_state_from(row.cells[job_col::kState].as_text()))) {
      ++out[site_cell(row.cells[job_col::kSite])];
    }
  });
  // Racing speculations hold the primary attempt's unit (the job row
  // only counts the replica).
  const std::string racing = to_string(SpeculationState::kRacing);
  tables_.speculations->for_each([&](const db::Row& row) {
    if (row.cells[spec_col::kState].as_text() != racing) return;
    ++out[site_cell(row.cells[spec_col::kPrimarySite])];
  });
  return out;
}

// --- work queue ---------------------------------------------------------

void DataWarehouse::mark_dag_dirty(DagId id) {
  const db::Row* row = dag_row(id);
  SPHINX_ASSERT(row != nullptr, "mark_dag_dirty: unknown dag");
  dirty_rows_.insert(row->id);
}

std::vector<DagRecord> DataWarehouse::drain_dirty_dags() {
  if (!dirty_rows_.empty()) {
    // Journal the drain point (empty sweeps write nothing): without it a
    // recovered server cannot tell "enqueued, not yet swept" from
    // "already swept" -- both leave identical tables.
    db::Table& ledger = *tables_.work_queue;
    db::RowId ledger_row = db::kInvalidRow;
    std::int64_t drains = 0;
    ledger.for_each([&ledger_row, &drains](const db::Row& row) {
      ledger_row = row.id;
      drains = row.cells[0].as_int();
    });
    SPHINX_ASSERT(ledger_row != db::kInvalidRow, "drain ledger row missing");
    ledger.update(ledger_row, 0, Value(drains + 1));
  }
  const db::Table& dags = *tables_.dags;
  std::vector<DagRecord> out;
  out.reserve(dirty_rows_.size());
  for (const db::RowId row_id : dirty_rows_) {
    const db::Row* row = dags.find(row_id);
    if (row == nullptr) continue;
    DagRecord rec = decode_dag(*row);
    if (rec.state == DagState::kFinished) continue;
    out.push_back(std::move(rec));
  }
  dirty_rows_.clear();
  return out;
}

std::vector<DagId> DataWarehouse::dirty_dags() const {
  const db::Table& dags = *tables_.dags;
  std::vector<DagId> out;
  out.reserve(dirty_rows_.size());
  for (const db::RowId row_id : dirty_rows_) {
    const db::Row* row = dags.find(row_id);
    if (row == nullptr) continue;
    out.emplace_back(
        static_cast<std::uint64_t>(row->cells[dag_col::kDagId].as_int()));
  }
  return out;
}

// --- site stats -----------------------------------------------------------

const db::Row* DataWarehouse::site_stats_row(SiteId site) const {
  return tables_.site_stats->find_first(stats_col::kSiteId,
                                        Value(site.value()));
}

SiteStats DataWarehouse::site_stats(SiteId site) const {
  using namespace stats_col;
  SiteStats out;
  out.site = site;
  const db::Row* row = site_stats_row(site);
  if (row == nullptr) return out;
  out.completed = row->cells[kCompleted].as_int();
  out.cancelled = row->cells[kCancelled].as_int();
  out.avg_completion = row->cells[kAvgCompletion].as_real();
  out.samples = row->cells[kSamples].as_int();
  return out;
}

void DataWarehouse::record_completion(SiteId site, Duration completion_time) {
  using namespace stats_col;
  SPHINX_PRECONDITION(completion_time >= 0 && !std::isnan(completion_time),
                      "completion time must be a non-negative duration");
  db::Table& stats = *tables_.site_stats;
  const db::Row* row = site_stats_row(site);
  if (row == nullptr) {
    stats.insert({Value(site.value()), Value(std::int64_t{1}),
                  Value(std::int64_t{0}), Value(completion_time),
                  Value(std::int64_t{1})});
    return;
  }
  const db::RowId id = row->id;
  const std::int64_t completed = row->cells[kCompleted].as_int() + 1;
  const std::int64_t samples = row->cells[kSamples].as_int() + 1;
  const double prev = row->cells[kAvgCompletion].as_real();
  const double next = samples == 1
                          ? completion_time
                          : kEwmaAlpha * completion_time +
                                (1.0 - kEwmaAlpha) * prev;
  stats.update(id, kCompleted, Value(completed));
  stats.update(id, kSamples, Value(samples));
  stats.update(id, kAvgCompletion, Value(next));
}

void DataWarehouse::record_cancellation(SiteId site,
                                        Duration censored_duration) {
  using namespace stats_col;
  db::Table& stats = *tables_.site_stats;
  const db::Row* row = site_stats_row(site);
  if (row == nullptr) {
    stats.insert({Value(site.value()), Value(std::int64_t{0}),
                  Value(std::int64_t{1}), Value(censored_duration),
                  Value(censored_duration > 0 ? std::int64_t{1}
                                              : std::int64_t{0})});
    return;
  }
  const db::RowId id = row->id;
  const std::int64_t cancelled = row->cells[kCancelled].as_int() + 1;
  const std::int64_t samples = row->cells[kSamples].as_int() + 1;
  const double prev = row->cells[kAvgCompletion].as_real();
  stats.update(id, kCancelled, Value(cancelled));
  if (censored_duration > 0) {
    const double next = samples == 1 ? censored_duration
                                     : kEwmaAlpha * censored_duration +
                                           (1.0 - kEwmaAlpha) * prev;
    stats.update(id, kSamples, Value(samples));
    stats.update(id, kAvgCompletion, Value(next));
  }
}

bool DataWarehouse::site_available(SiteId site) const {
  const SiteStats stats = site_stats(site);
  return stats.cancelled <= stats.completed;
}

// --- straggler defense ------------------------------------------------------

void DataWarehouse::record_runtime_sample(SiteId site, int job_class,
                                          Duration runtime) {
  SPHINX_PRECONDITION(runtime >= 0 && !std::isnan(runtime),
                      "runtime sample must be a non-negative duration");
  db::Table& table = *tables_.runtime_samples;
  // Ring bound: evict the oldest sample of this (site, class) key first.
  // find_by yields insertion order, so the first class match is oldest.
  std::size_t held = 0;
  db::RowId oldest = db::kInvalidRow;
  for (const db::RowId id :
       table.find_by(sample_col::kSite, Value(site.value()))) {
    const db::Row* row = table.find(id);
    if (static_cast<int>(row->cells[sample_col::kClass].as_int()) !=
        job_class) {
      continue;
    }
    ++held;
    if (oldest == db::kInvalidRow) oldest = id;
  }
  if (held >= kMaxRuntimeSamples) table.erase(oldest);
  table.insert({Value(site.value()), Value(std::int64_t{job_class}),
                Value(runtime)});
}

std::vector<double> DataWarehouse::runtime_samples(SiteId site,
                                                   int job_class) const {
  const db::Table& table = *tables_.runtime_samples;
  std::vector<double> out;
  for (const db::RowId id :
       table.find_by(sample_col::kSite, Value(site.value()))) {
    const db::Row* row = table.find(id);
    if (static_cast<int>(row->cells[sample_col::kClass].as_int()) !=
        job_class) {
      continue;
    }
    out.push_back(row->cells[sample_col::kRuntime].as_real());
  }
  return out;
}

std::vector<double> DataWarehouse::runtime_samples_all_sites(
    int job_class) const {
  const db::Table& table = *tables_.runtime_samples;
  std::vector<double> out;
  for (const db::RowId id :
       table.find_by(sample_col::kClass, Value(std::int64_t{job_class}))) {
    out.push_back(table.find(id)->cells[sample_col::kRuntime].as_real());
  }
  return out;
}

void DataWarehouse::speculate_job(JobId id, SiteId spec_site, SimTime at) {
  const db::Row* row = job_row(id);
  SPHINX_PRECONDITION(row != nullptr, "speculate_job: unknown job");
  const JobState state = job_state_from(row->cells[job_col::kState].as_text());
  SPHINX_PRECONDITION(
      state == JobState::kSubmitted || state == JobState::kRunning,
      "only a submitted/running job can be speculatively replicated");
  const SiteId primary_site = site_cell(row->cells[job_col::kSite]);
  SPHINX_PRECONDITION(primary_site != spec_site,
                      "replica must race on a different site");
  SPHINX_PRECONDITION(!active_speculation(id).has_value(),
                      "job already has an open race");
  const std::int64_t primary_attempt = row->cells[job_col::kAttempt].as_int();
  const double primary_planned_at = row->cells[job_col::kPlannedAt].as_real();
  const Value dag_key = row->cells[job_col::kDagId];
  const db::RowId row_id = row->id;

  tables_.speculations->insert(
      {Value(id.value()), dag_key, Value(primary_site.value()),
       Value(primary_attempt), Value(primary_planned_at),
       Value(spec_site.value()), Value(primary_attempt + 1),
       Value(to_string(SpeculationState::kRacing)), Value(at)});
  // Retarget the job row at the replica.  Direct writes: the automaton
  // forbids kSubmitted/kRunning -> kPlanned for a single attempt, but
  // here the original attempt stays live on the racing row.
  db::Table& jobs = *tables_.jobs;
  jobs.update(row_id, job_col::kState, Value(to_string(JobState::kPlanned)));
  jobs.update(row_id, job_col::kSite, Value(spec_site.value()));
  jobs.update(row_id, job_col::kAttempt, Value(primary_attempt + 1));
  jobs.update(row_id, job_col::kPlannedAt, Value(at));
  // The primary's unit moved onto the racing row; the replica's is new.
  ++outstanding_[spec_site];

  if (recorder_ != nullptr) {
    recorder_->event(obs::TraceKind::kJobTransition, recorder_source_,
                     "job:" + std::to_string(id.value()),
                     std::string(to_string(state)) + "->planned (speculate)",
                     static_cast<double>(primary_attempt + 1));
  }
}

std::optional<SpeculationRecord> DataWarehouse::active_speculation(
    JobId id) const {
  const db::Table& table = *tables_.speculations;
  for (const db::RowId row_id :
       table.find_by(spec_col::kJobId, Value(id.value()))) {
    SpeculationRecord rec = decode_speculation(*table.find(row_id));
    if (rec.state == SpeculationState::kRacing) return rec;
  }
  return std::nullopt;
}

std::optional<SpeculationRecord> DataWarehouse::latest_speculation(
    JobId id) const {
  const db::Table& table = *tables_.speculations;
  // find_by yields insertion order; the last row is the newest race.
  const std::vector<db::RowId> rows =
      table.find_by(spec_col::kJobId, Value(id.value()));
  if (rows.empty()) return std::nullopt;
  return decode_speculation(*table.find(rows.back()));
}

std::vector<SpeculationRecord> DataWarehouse::racing_speculations() const {
  const db::Table& table = *tables_.speculations;
  std::vector<SpeculationRecord> out;
  for (const db::RowId row_id : table.find_by(
           spec_col::kState, Value(to_string(SpeculationState::kRacing)))) {
    out.push_back(decode_speculation(*table.find(row_id)));
  }
  return out;
}

void DataWarehouse::resolve_speculation(JobId id,
                                        SpeculationState final_state) {
  SPHINX_PRECONDITION(final_state != SpeculationState::kRacing,
                      "a race resolves to a terminal state");
  db::Table& table = *tables_.speculations;
  const db::Row* racing_row = nullptr;
  for (const db::RowId row_id :
       table.find_by(spec_col::kJobId, Value(id.value()))) {
    const db::Row* row = table.find(row_id);
    if (speculation_state_from(row->cells[spec_col::kState].as_text()) ==
        SpeculationState::kRacing) {
      racing_row = row;
      break;
    }
  }
  SPHINX_PRECONDITION(racing_row != nullptr,
                      "resolve_speculation: job has no open race");
  const SpeculationRecord rec = decode_speculation(*racing_row);
  table.update(racing_row->id, spec_col::kState, Value(to_string(final_state)));

  const auto retire = [this](SiteId site) {
    const auto it = outstanding_.find(site);
    SPHINX_ASSERT(it != outstanding_.end() && it->second > 0,
                  "outstanding counter underflow");
    if (--it->second == 0) outstanding_.erase(it);
  };
  if (final_state == SpeculationState::kSpecDead) {
    // Replica died: hand the job row back to the surviving primary.  The
    // attempt column stays at the replica's number -- reusing the burnt
    // one would collide with the client's (job, attempt) duplicate guard
    // on the next replan.
    const db::Row* job = job_row(id);
    SPHINX_ASSERT(job != nullptr, "resolve_speculation: unknown job");
    SPHINX_ASSERT(job->cells[job_col::kAttempt].as_int() == rec.spec_attempt,
                  "racing job row must still track the replica attempt");
    tables_.jobs->update(job->id, job_col::kSite,
                         Value(rec.primary_site.value()));
    // The primary's unit transfers from the racing row to the job row;
    // net change is the replica's retirement.
    retire(rec.spec_site);
  } else {
    retire(rec.primary_site);
  }
}

// --- RPC outbox -------------------------------------------------------------

void DataWarehouse::outbox_upsert(std::uint64_t seq, const std::string& service,
                                  const std::string& payload, int attempt,
                                  SimTime last_sent_at) {
  db::Table& table = *tables_.rpc_outbox;
  const db::Row* row = table.find_first(
      outbox_col::kSeq, Value(static_cast<std::int64_t>(seq)));
  if (row == nullptr) {
    table.insert({Value(static_cast<std::int64_t>(seq)), Value(service),
                  Value(payload), Value(std::int64_t{attempt}),
                  Value(last_sent_at)});
    return;
  }
  const db::RowId id = row->id;
  table.update(id, outbox_col::kAttempt, Value(std::int64_t{attempt}));
  table.update(id, outbox_col::kLastSentAt, Value(last_sent_at));
}

void DataWarehouse::outbox_erase(std::uint64_t seq) {
  db::Table& table = *tables_.rpc_outbox;
  const db::Row* row = table.find_first(
      outbox_col::kSeq, Value(static_cast<std::int64_t>(seq)));
  if (row != nullptr) table.erase(row->id);
}

std::vector<OutboxEntry> DataWarehouse::outbox_entries() const {
  using namespace outbox_col;
  std::vector<OutboxEntry> entries;
  tables_.rpc_outbox->for_each([&](const db::Row& row) {
    OutboxEntry entry;
    entry.seq = static_cast<std::uint64_t>(row.cells[kSeq].as_int());
    entry.service = row.cells[kService].as_text();
    entry.payload = row.cells[kPayload].as_text();
    entry.attempt = static_cast<int>(row.cells[kAttempt].as_int());
    entry.last_sent_at = row.cells[kLastSentAt].as_real();
    entries.push_back(std::move(entry));
  });
  std::sort(entries.begin(), entries.end(),
            [](const OutboxEntry& a, const OutboxEntry& b) {
              return a.seq < b.seq;
            });
  return entries;
}

// --- scheduler soft state ---------------------------------------------------

void DataWarehouse::set_scheduler_state(const std::string& key,
                                        const std::string& value) {
  db::Table& table = *tables_.soft_state;
  const db::Row* row = table.find_first(soft_col::kKey, Value(key));
  if (row == nullptr) {
    table.insert({Value(key), Value(value)});
    return;
  }
  if (row->cells[soft_col::kValue].as_text() == value) return;
  table.update(row->id, soft_col::kValue, Value(value));
}

std::string DataWarehouse::scheduler_state(const std::string& key) const {
  const db::Row* row =
      tables_.soft_state->find_first(soft_col::kKey, Value(key));
  if (row == nullptr) return "";
  return row->cells[soft_col::kValue].as_text();
}

// --- quotas -----------------------------------------------------------------

const db::Row* DataWarehouse::quota_row(UserId user, SiteId site,
                                        const std::string& resource) const {
  const db::Table& quotas = *tables_.quotas;
  for (const db::RowId id :
       quotas.find_by(quota_col::kUser, Value(user.value()))) {
    const db::Row* row = quotas.find(id);
    if (site_cell(row->cells[quota_col::kSite]) == site &&
        row->cells[quota_col::kResource].as_text() == resource) {
      return row;
    }
  }
  return nullptr;
}

void DataWarehouse::set_quota(UserId user, SiteId site,
                              const std::string& resource, double limit) {
  const db::Row* row = quota_row(user, site, resource);
  if (row == nullptr) {
    tables_.quotas->insert({Value(user.value()), Value(site.value()),
                            Value(resource), Value(limit), Value(0.0)});
  } else {
    tables_.quotas->update(row->id, quota_col::kLimit, Value(limit));
  }
}

double DataWarehouse::quota_remaining(UserId user, SiteId site,
                                      const std::string& resource) const {
  const db::Row* row = quota_row(user, site, resource);
  if (row == nullptr) return std::numeric_limits<double>::infinity();
  return row->cells[quota_col::kLimit].as_real() -
         row->cells[quota_col::kUsed].as_real();
}

void DataWarehouse::consume_quota(UserId user, SiteId site,
                                  const std::string& resource, double amount) {
  SPHINX_PRECONDITION(amount >= 0, "quota consumption must be non-negative");
  const db::Row* row = quota_row(user, site, resource);
  if (row == nullptr) return;
  const double used = row->cells[quota_col::kUsed].as_real() + amount;
  tables_.quotas->update(row->id, quota_col::kUsed, Value(used));
  SPHINX_POSTCONDITION(used >= 0, "quota usage went negative");
}

void DataWarehouse::refund_quota(UserId user, SiteId site,
                                 const std::string& resource, double amount) {
  SPHINX_PRECONDITION(amount >= 0, "quota refund must be non-negative");
  const db::Row* row = quota_row(user, site, resource);
  if (row == nullptr) return;
  const double used = row->cells[quota_col::kUsed].as_real() - amount;
  tables_.quotas->update(row->id, quota_col::kUsed,
                         Value(used < 0 ? 0.0 : used));
}

// --- contracts --------------------------------------------------------------

void DataWarehouse::check_invariants() const {
#if SPHINX_CONTRACTS_ENABLED
  db_.check_invariants();

  // Jobs: state text parses, outstanding jobs are placed and attempted.
  std::unordered_map<std::uint64_t, std::int64_t> jobs_per_dag;
  tables_.jobs->for_each([&](const db::Row& row) {
    JobRecord job;
    try {
      job = decode_job(row);
    } catch (const AssertionError& e) {
      SPHINX_INVARIANT(false, std::string("job row does not parse: ") +
                                  e.what());
    }
    ++jobs_per_dag[job.dag.value()];
    SPHINX_INVARIANT(job.attempt >= 0, "job attempt counter went negative");
    if (is_outstanding(job.state)) {
      SPHINX_INVARIANT(job.site.value() != 0,
                       "outstanding job has no site assigned");
      SPHINX_INVARIANT(job.attempt >= 1,
                       "outstanding job was never planned");
    }
  });

  // DAGs: state text parses, finish times are coherent, and the recorded
  // job total matches the job table (journal/table consistency: both are
  // rebuilt from the same journal on recovery).
  tables_.dags->for_each([&](const db::Row& row) {
    DagRecord dag;
    try {
      dag = decode_dag(row);
    } catch (const AssertionError& e) {
      SPHINX_INVARIANT(false, std::string("dag row does not parse: ") +
                                  e.what());
    }
    SPHINX_INVARIANT(dag.total_jobs >= 0, "dag job total went negative");
    SPHINX_INVARIANT(jobs_per_dag[dag.id.value()] == dag.total_jobs,
                     "dag job total disagrees with the jobs table");
    if (dag.state == DagState::kFinished) {
      SPHINX_INVARIANT(dag.finished_at < kNever,
                       "finished dag has no finish time");
      SPHINX_INVARIANT(dag.finished_at >= dag.received_at,
                       "dag finished before it was received");
    }
  });

  // Site statistics: counters never regress below zero; an empty sample
  // set cannot carry an average.
  tables_.site_stats->for_each([&](const db::Row& row) {
    const std::int64_t completed = row.cells[stats_col::kCompleted].as_int();
    const std::int64_t cancelled = row.cells[stats_col::kCancelled].as_int();
    const double avg = row.cells[stats_col::kAvgCompletion].as_real();
    const std::int64_t samples = row.cells[stats_col::kSamples].as_int();
    SPHINX_INVARIANT(completed >= 0 && cancelled >= 0 && samples >= 0,
                     "site statistics counter went negative");
    SPHINX_INVARIANT(avg >= 0 && !std::isnan(avg),
                     "site completion average must be non-negative");
    SPHINX_INVARIANT(samples > 0 || avg == 0,
                     "site carries an average with no samples");
  });

  // Quotas: limits and usage are non-negative.
  tables_.quotas->for_each([&](const db::Row& row) {
    SPHINX_INVARIANT(row.cells[quota_col::kLimit].as_real() >= 0,
                     "quota limit went negative");
    SPHINX_INVARIANT(row.cells[quota_col::kUsed].as_real() >= 0,
                     "quota usage went negative");
  });

  // Speculation races: rows parse, attempts are consecutive, the two
  // sites differ, at most one race per job is open, and an open race's
  // job row still tracks the replica attempt.
  std::unordered_set<std::uint64_t> racing_jobs;
  tables_.speculations->for_each([&](const db::Row& row) {
    SpeculationRecord rec;
    try {
      rec = decode_speculation(row);
    } catch (const AssertionError& e) {
      SPHINX_INVARIANT(false, std::string("speculation row does not parse: ") +
                                  e.what());
    }
    SPHINX_INVARIANT(rec.primary_attempt >= 1,
                     "race opened on a never-planned attempt");
    SPHINX_INVARIANT(rec.spec_attempt == rec.primary_attempt + 1,
                     "replica attempt must directly succeed the primary");
    SPHINX_INVARIANT(rec.primary_site != rec.spec_site,
                     "race must span two sites");
    if (rec.state != SpeculationState::kRacing) return;
    SPHINX_INVARIANT(racing_jobs.insert(rec.job.value()).second,
                     "job holds two open races");
    const std::optional<JobRecord> job_rec = job(rec.job);
    SPHINX_INVARIANT(job_rec.has_value(), "open race names a missing job");
    SPHINX_INVARIANT(is_outstanding(job_rec->state),
                     "open race on a job that is not outstanding");
    SPHINX_INVARIANT(
        job_rec->attempt == rec.spec_attempt && job_rec->site == rec.spec_site,
        "racing job row must track the replica attempt");
  });

  // Runtime sample rings: non-negative values, ring bound respected.
  {
    std::map<std::pair<std::int64_t, std::int64_t>, std::size_t> ring_sizes;
    tables_.runtime_samples->for_each([&](const db::Row& row) {
      SPHINX_INVARIANT(row.cells[sample_col::kRuntime].as_real() >= 0,
                       "runtime sample went negative");
      ++ring_sizes[{row.cells[sample_col::kSite].as_int(),
                    row.cells[sample_col::kClass].as_int()}];
    });
    for (const auto& [key, size] : ring_sizes) {
      SPHINX_INVARIANT(size <= kMaxRuntimeSamples,
                       "runtime sample ring exceeded its bound");
    }
  }

  // Derived work state mirrors the tables: the live counters must equal a
  // fresh scan, and every queued dirty row names a live, unfinished DAG.
  SPHINX_INVARIANT(outstanding_ == scan_outstanding_by_site(),
                   "live outstanding counters diverged from the jobs table");
  for (const db::RowId row_id : dirty_rows_) {
    const db::Row* row = tables_.dags->find(row_id);
    SPHINX_INVARIANT(row != nullptr, "dirty queue names a missing dag row");
    SPHINX_INVARIANT(
        dag_state_from(row->cells[dag_col::kState].as_text()) !=
            DagState::kFinished,
        "dirty queue holds a finished dag");
  }
#endif
}

void DataWarehouse::check_dag_invariants(DagId id) const {
#if SPHINX_CONTRACTS_ENABLED
  const std::optional<DagRecord> rec = dag(id);
  SPHINX_INVARIANT(rec.has_value(), "check_dag_invariants: unknown dag");
  std::int64_t job_count = 0;
  for (const JobRecord& job : jobs_of_dag(id)) {
    ++job_count;
    SPHINX_INVARIANT(job.attempt >= 0, "job attempt counter went negative");
    if (is_outstanding(job.state)) {
      SPHINX_INVARIANT(job.site.value() != 0,
                       "outstanding job has no site assigned");
      SPHINX_INVARIANT(job.attempt >= 1,
                       "outstanding job was never planned");
    }
  }
  SPHINX_INVARIANT(rec->total_jobs >= 0, "dag job total went negative");
  SPHINX_INVARIANT(job_count == rec->total_jobs,
                   "dag job total disagrees with the jobs table");
  if (rec->state == DagState::kFinished) {
    SPHINX_INVARIANT(rec->finished_at < kNever,
                     "finished dag has no finish time");
    SPHINX_INVARIANT(rec->finished_at >= rec->received_at,
                     "dag finished before it was received");
  }
#else
  (void)id;
#endif
}

}  // namespace sphinx::core
