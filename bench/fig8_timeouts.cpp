/// Figure 8: "the number of times jobs were rescheduled in each of the
/// scheduling strategies", 120 DAGs x 10 jobs.
///
/// Paper values: completion-time 125, queue-length 154, round-robin and
/// num-cpus somewhat higher, and num-cpus *without feedback* 2258 -- an
/// order of magnitude above everything else ("without any feedback
/// information, the number of resubmissions is very high").  A
/// resubmission happens whenever the tracker cancels a timed-out job or
/// observes a held/failed one and the server replans it.

#include "bench_common.hpp"
#include "common/table.hpp"

int main() {
  using namespace sphinx;
  using namespace sphinx::bench;

  print_header("Figure 8",
               "reschedules per strategy (120 dags x 10 jobs/dag)");

  auto specs = exp::standard_panel();
  exp::TenantOptions nofb;
  nofb.algorithm = core::Algorithm::kNumCpus;
  nofb.use_feedback = false;
  specs.push_back({"num-cpus w/o feedback", nofb});

  exp::Experiment experiment(paper_config(120));
  const auto results = experiment.run(specs);

  // Headline numbers come from the flight recorder's per-server replan
  // counters (ServerStats::replans, one increment per attempt > 1 plan
  // in the planner sweep), which stay run-wide across server crashes.
  const auto& recorder = experiment.recorder();
  const auto reschedules = [&](const std::string& label) -> double {
    return static_cast<double>(
        recorder.counter("server.replans", "sphinx-server/" + label));
  };

  std::printf("\nJob reschedules (timeouts + held/failed resubmissions):\n");
  double max_value = 1.0;
  for (const auto& r : results) {
    max_value = std::max(max_value, reschedules(r.label));
  }
  for (const auto& r : results) {
    std::printf("%s\n",
                bar_line(r.label, reschedules(r.label), max_value, 40,
                         "reschedules")
                    .c_str());
  }
  std::printf("\nRun summary:\n%s\n", exp::render_summary(results).c_str());

  const double best = reschedules(results.front().label);   // completion-time
  const double worst = reschedules(results.back().label);   // no feedback
  if (best > 0.0) {
    std::printf("no-feedback / completion-time reschedule ratio: %.1fx "
                "(paper: 2258 / 125 = 18x)\n",
                worst / best);
  }
  return 0;
}
