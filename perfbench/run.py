#!/usr/bin/env python3
"""SPHINX simulator benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper_panel|flat_scale|fault_recovery
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call builds perfbench_runner
(and the SPHINX library it links) with CMake into $CARGO_TARGET_DIR, or
.bench_build when that is unset.  Each repetition of the workload then
runs in a process of its own, one at a time, until S seconds have passed
and each DAG set has run once.

--trace 0 prints the end-to-end metrics, measured on the untraced loop
(Scenario::run).  --trace 1 pairs untraced and traced repetitions and
prints the per-layer metrics of the traced loop.  Both check the simulated
outputs; the last line of stdout is one JSON object, and the exit code is
non-zero when a check fails.  README.md explains the workloads, the
metrics and the attribution rule.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# The figure benches' workload seed.  With it paper_panel is exactly
# bench/fig5_algorithms_120, whose stdout numbers are checked as well.
COMMITTED_SEED = 20050404
FIG5_COMPLETION_S = "3953.2,4110.4,4105.2,4661.0"
FIG5_PLANS = "1267,1273,1324,1394"

# Setup-only processes per run, on top of the one inside each repetition.
SETUP_SAMPLES = 5

# Metric names and units, declared once in BENCHMARK.json at the root.
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as spec:
    SPEC = json.load(spec)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench_runner; returns its path."""
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_runner")


def repetition(exe, workload, seed, mode, dags=None):
    """Runs one perfbench_runner process and returns its JSON report."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if dags is not None:
        cmd += ["--dags", str(dags)]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["seed"] = seed
    return report


def workload_seeds(seed):
    """The DAG sets a --trace 0 run alternates between.

    The committed set reproduces the figure benches, so its simulated
    outcomes repeat exactly and are the ones reported.  Across seeds they
    would not: over 24 flat_scale DAG sets the replans ranged from 346 to
    1849.  The set drawn from `seed` keeps the timing honest on inputs no
    change was tuned on; it is timed and checked, but not reported.
    """
    return [COMMITTED_SEED, seed]


def repeat(seconds, body, minimum):
    """Calls body(i) for i = 0, 1, ... until it has been called `minimum`
    times and `seconds` have passed."""
    start = time.perf_counter()
    results = []
    while len(results) < minimum or time.perf_counter() - start < seconds:
        results.append(body(len(results)))
    return results


def milliseconds(reps, key):
    """Pools a per-repetition comma-separated list of milliseconds."""
    return [float(ms) for rep in reps for ms in rep[key].split(",")]


def percentile(values, q):
    """Nearest-rank percentile, as the runner computes it."""
    ordered = sorted(values)
    return ordered[int(q * (len(ordered) - 1) + 0.5)]


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)
            log("CHECK FAILED: " + message)


def check_outcome(checks, reps, workload, dags):
    """Checks every repetition's simulated outcome; returns one repetition
    per workload seed."""
    by_seed = {}
    for rep in reps:
        first = by_seed.setdefault(rep["seed"], rep)
        checks.expect(rep["digest"] == first["digest"],
                      f"repetitions of seed {rep['seed']} gave different "
                      "simulated results (nondeterminism)")
        checks.expect(rep["tenants_double_run"] == 0,
                      "a tenant's submissions != unique submissions: "
                      "a plan ran twice")
        checks.expect(rep["dags_submitted"] == rep["dags_generated"],
                      f"{rep['dags_generated']} DAGs generated but "
                      f"{rep['dags_submitted']} submitted")
    fig5 = by_seed.get(COMMITTED_SEED)
    if workload == "paper_panel" and fig5 is not None and dags is None:
        checks.expect(fig5["tenant_completion_s"] == FIG5_COMPLETION_S,
                      "paper_panel completion times "
                      f"{fig5['tenant_completion_s']} differ from fig5's "
                      f"{FIG5_COMPLETION_S}")
        checks.expect(fig5["tenant_plans"] == FIG5_PLANS,
                      f"paper_panel plans {fig5['tenant_plans']} differ "
                      f"from fig5's {FIG5_PLANS}")
    return by_seed


def end_to_end(exe, args, checks):
    seeds = workload_seeds(args.seed)
    setups = [repetition(exe, args.workload, seeds[i % len(seeds)], "setup",
                         args.dags) for i in range(SETUP_SAMPLES)]
    reps = repeat(args.seconds, lambda i: repetition(
        exe, args.workload, seeds[i % len(seeds)], "plain", args.dags),
        minimum=len(seeds))
    committed = check_outcome(checks, reps, args.workload,
                              args.dags)[COMMITTED_SEED]

    def rate(loop):
        return statistics.median(r["dags_finished"] / r[loop] for r in reps)

    def setup(key):
        return statistics.median(r[key] for r in setups + reps)

    log(f"{len(reps)} repetitions, {len(setups) + len(reps)} setups; "
        f"uncalibrated medians: dags_per_s {rate('loop_s'):.4g}, "
        f"setup_s {setup('setup_s'):.4g}")
    values = {
        "dags_per_s": rate("loop_calibrated_s"),
        "setup_s": setup("setup_calibrated_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "dag_done_ratio": sum(r["dags_finished"] for r in reps) /
                          sum(r["dags_submitted"] for r in reps),
        "sim_dag_completion_s": committed["sim_dag_completion_s"],
        "sim_reschedules": committed["sim_reschedules"],
    }
    return reps, values, END_TO_END


def per_layer(exe, args, checks):
    # Every pair runs the committed DAG set, so counts repeat exactly.
    pairs = repeat(args.seconds, lambda i: (
        repetition(exe, args.workload, COMMITTED_SEED, "plain", args.dags),
        repetition(exe, args.workload, COMMITTED_SEED, "traced", args.dags)),
        minimum=1)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    check_outcome(checks, plain + traced, args.workload, args.dags)
    checks.expect(all(t["digest"] == p["digest"] for p, t in pairs),
                  "the traced loop changed the simulated results")
    recoveries = milliseconds(traced, "recovery_calibrated_ms")
    log(f"{len(pairs)} plain/traced pairs, {len(recoveries)} recoveries")

    values = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            values[name] = statistics.median(
                t["loop_calibrated_s"] / p["loop_calibrated_s"]
                for p, t in pairs)
        elif name == "db.recovery_ms":
            values[name] = statistics.median(recoveries)
        elif name == "db.recovery_ms.p90":
            values[name] = percentile(recoveries, 0.9)
        else:
            values[name] = statistics.median(t[name] for t in traced)
    return traced, values, PER_LAYER


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--dags", type=int, default=None,
                        help="DAGs per tenant instead of the workload's "
                             "stated size (harness tests only)")
    args = parser.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    checks = Checks()
    measure = per_layer if args.trace else end_to_end
    try:
        reps, values, units = measure(exe, args, checks)
    except subprocess.CalledProcessError as error:
        log(f"runner failed ({error.returncode}): {error.stderr.strip()}")
        return 1

    attempted = sum(r["dags_submitted"] for r in reps)
    finished = sum(r["dags_finished"] for r in reps)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": int(attempted),
        "failed": int(attempted - finished),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
