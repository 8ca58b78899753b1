#pragma once
/// \file client.hpp
/// The SPHINX client: lightweight scheduling agent + job tracker.
///
/// "The client is a lightweight portable scheduling agent that represents
/// the server for processing scheduling requests" (paper section 3.1).
/// It submits abstract DAGs to the server, receives per-job execution
/// plans, turns them into Condor-G submissions, and runs the *job
/// tracker*: watching execution status, reporting completion times back
/// to the server, cancelling jobs that exceed their timeout and
/// requesting replanning -- the mechanism behind every fault-tolerance
/// result in the paper (Figures 2 and 8).

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "core/codec.hpp"
#include "obs/recorder.hpp"
#include "rpc/clarens.hpp"
#include "submit/condor_g.hpp"
#include "workflow/dag.hpp"

namespace sphinx::core {

struct ClientConfig {
  std::string endpoint = "sphinx-client";
  std::string server = "sphinx-server";
  UserId user = UserId(1);
  std::string vo = "uscms";
  /// Tracker timeout: a job that has made no visible progress this long
  /// after submission is cancelled and replanning is requested.  A job
  /// observed staging or computing on a responsive site is granted up to
  /// `max_timeout_extensions` further periods before the hard kill --
  /// slow is not dead, and cancelling a half-staged job only to restage
  /// it elsewhere makes congestion worse.
  Duration job_timeout = minutes(30);
  int max_timeout_extensions = 3;
  /// Straggler defense: upper bound on speculative attempts this client
  /// will track concurrently.  The server's own per-DAG/global budgets
  /// are tighter; this is the cross-layer contract check -- exceeding it
  /// means the server's budget enforcement is broken.
  std::size_t speculation_budget = 8;
};

/// Completion record for one DAG (client-side timing).
struct DagOutcome {
  DagId id;
  std::string name;
  SimTime submitted_at = 0.0;
  SimTime finished_at = kNever;
  SimTime deadline = kNever;  ///< QoS deadline; kNever = best effort
  [[nodiscard]] bool done() const noexcept { return finished_at < kNever; }
  [[nodiscard]] Duration completion_time() const noexcept {
    return finished_at - submitted_at;
  }
  /// True when a QoS deadline existed and was met.
  [[nodiscard]] bool deadline_met() const noexcept {
    return deadline < kNever && done() && finished_at <= deadline;
  }
};

/// Tracker counters (Figure 8's timeout counts come from here).
struct TrackerStats {
  std::size_t plans_received = 0;
  std::size_t submissions = 0;
  std::size_t timeouts = 0;          ///< tracker-initiated cancellations
  std::size_t extensions = 0;        ///< timeouts deferred due to progress
  std::size_t held_or_failed = 0;    ///< site-initiated failures observed
  std::size_t completions = 0;
  std::size_t persisted_outputs = 0; ///< final outputs sent to archive
  /// Re-delivered plans skipped by the (job, attempt) duplicate guard; a
  /// duplicate must never reach the gateway as a second submission.
  std::size_t duplicate_plans = 0;
  /// Re-delivered dag_done notifications; the recorded finish time of
  /// the first delivery is kept.
  std::size_t duplicate_dag_done = 0;
  /// Straggler defense: speculative (racing) plans accepted.
  std::size_t speculative_plans = 0;
  /// cancel_attempt requests that found a live attempt to kill (the
  /// loser of a first-completion-wins race).
  std::size_t race_cancels = 0;
  /// Completions of a racing attempt observed after the sibling already
  /// completed; arbitrated away (no stats, no report).
  std::size_t duplicate_completions = 0;
};

class SphinxClient {
 public:
  SphinxClient(rpc::MessageBus& bus, submit::CondorG& gateway,
               ClientConfig config, rpc::Proxy proxy);
  ~SphinxClient();

  SphinxClient(const SphinxClient&) = delete;
  SphinxClient& operator=(const SphinxClient&) = delete;

  /// Sends an abstract DAG to the server for scheduling.  Higher
  /// `priority` requests are planned first when resources are contended;
  /// a finite `deadline` (absolute sim time) requests QoS: among equal
  /// priorities the server plans earliest-deadline DAGs first.
  void submit(const workflow::Dag& dag, double priority = 0.0,
              SimTime deadline = kNever);

  /// DAGs with a deadline that finished on time / in total.
  [[nodiscard]] std::pair<std::size_t, std::size_t> deadline_hits() const;

  // --- observability ----------------------------------------------------
  [[nodiscard]] const std::vector<DagOutcome>& dag_outcomes() const noexcept {
    return outcomes_;
  }
  [[nodiscard]] std::size_t dags_finished() const noexcept;
  [[nodiscard]] bool all_dags_finished() const noexcept;
  /// Average DAG completion time over finished DAGs (Figures 2-5a, 7a).
  [[nodiscard]] double avg_dag_completion() const;
  /// Average job execution time over completed attempts (Figures 3-5b).
  [[nodiscard]] double avg_job_execution() const;
  /// Average idle (queuing) time over completed attempts (Figures 3-5b).
  [[nodiscard]] double avg_job_idle() const;
  [[nodiscard]] const TrackerStats& tracker_stats() const noexcept {
    return tracker_;
  }
  /// Per-site completed-job counts and mean completion times as this
  /// client observed them (Figure 6).
  struct SiteObservation {
    std::size_t completed = 0;
    RunningStats completion_times;
  };
  [[nodiscard]] const std::unordered_map<SiteId, SiteObservation>&
  site_observations() const noexcept {
    return per_site_;
  }

  [[nodiscard]] const ClientConfig& config() const noexcept { return config_; }

  /// Attaches a flight recorder: tracker timeouts, extensions and
  /// completion observations are traced under this client's endpoint.
  /// Observation only.
  void set_recorder(obs::Recorder* recorder) noexcept {
    recorder_ = recorder;
  }

  /// Jobs currently tracked (terminal entries are erased as their
  /// lifecycle ends, so this does not grow with run length).
  [[nodiscard]] std::size_t tracked_jobs() const noexcept {
    return tracked_.size();
  }

  /// Distinct (job, attempt) pairs ever handed to the gateway.  On a
  /// healthy run this equals tracker_stats().submissions -- the lossy
  /// smoke gate asserts exactly that to prove no plan executed twice.
  [[nodiscard]] std::size_t unique_submissions() const noexcept {
    return submitted_attempts_.size();
  }

 private:
  struct Tracked {
    ExecutionPlan plan;
    SimTime submitted_at = 0.0;
    SimTime started_at = kNever;
    sim::EventHandle timeout;
    int extensions = 0;
    bool terminal = false;
    /// A speculative replica whose race is still open on this side: set
    /// on arrival, cleared when the last non-racing attempt of the job
    /// leaves the tracker (the server has then settled the race).
    bool racing = false;
  };

  /// Tracker entries are keyed per (job, attempt): a speculation race has
  /// two live attempts of one JobId at once.
  using Key = std::pair<std::uint64_t, int>;

  Expected<rpc::XrValue> handle_execute_plan(
      const std::vector<rpc::XrValue>& params);
  Expected<rpc::XrValue> handle_dag_done(
      const std::vector<rpc::XrValue>& params);
  Expected<rpc::XrValue> handle_cancel_attempt(
      const std::vector<rpc::XrValue>& params);
  void on_gateway_event(const submit::GatewayEvent& event);
  void on_timeout(JobId job, int attempt);
  void report(const TrackerReport& report);
  void finish_tracking(Tracked& tracked);
  void erase_tracked(Key key);

  rpc::MessageBus& bus_;
  submit::CondorG& gateway_;
  ClientConfig config_;
  std::unique_ptr<rpc::ClarensService> service_;
  std::unique_ptr<rpc::ClarensClient> rpc_;
  std::map<Key, Tracked> tracked_;
  /// Jobs whose first completion has already been observed; a sibling
  /// attempt completing later is the race loser and is arbitrated away.
  std::unordered_set<std::uint64_t> completed_jobs_;
  /// Tracked entries with `racing` set, for the budget contract.
  std::size_t racing_now_ = 0;  // sphinx-lint: derived(handle_execute_plan, erase_tracked)
  /// Every (job, attempt) accepted for submission, for the duplicate-plan
  /// guard.  Legitimate replans always carry a fresh attempt number, so
  /// a repeat pair can only be a duplicate delivery.
  std::set<std::pair<std::uint64_t, int>> submitted_attempts_;
  std::unordered_map<DagId, std::size_t> outcome_index_;
  std::vector<DagOutcome> outcomes_;
  TrackerStats tracker_;
  RunningStats exec_times_;
  RunningStats idle_times_;
  std::unordered_map<SiteId, SiteObservation> per_site_;
  obs::Recorder* recorder_ = nullptr;
  Logger log_{"sphinx-client"};
};

}  // namespace sphinx::core
