#!/usr/bin/env sh
# One-command correctness gate: plain build + tests, the ASan+UBSan
# preset, and sphinx-lint.  Run from the repository root:
#
#   tools/check.sh          # everything
#   tools/check.sh fast     # skip the sanitizer build
set -eu

cd "$(dirname "$0")/.."

echo "== build + test (relwithdebinfo) =="
cmake --preset relwithdebinfo
cmake --build --preset relwithdebinfo
ctest --preset relwithdebinfo

echo "== sphinx-lint =="
# The full static pass: the 7 hygiene/determinism regex rules plus the
# declaration-aware analyzer rules (ordered-escape taint, rng stream
# discipline, derived-state, observe-only) over everything we compile.
# src/ctrl (the lease/failover control plane) is named explicitly: it is
# already inside src/, but the control plane must never regress on the
# determinism rules, so the gate stays loud about covering it.
./build/relwithdebinfo/tools/sphinx_lint/sphinx_lint \
  --root . src src/ctrl tests bench examples tools

echo "== rng stream registry gate =="
# docs/rng_streams.md is generated from the seeds.stream() literals the
# analyzer extracts; the committed copy must match byte-for-byte.
./build/relwithdebinfo/tools/sphinx_lint/sphinx_lint \
  --root . --rng-registry src tests bench examples tools \
  > build/relwithdebinfo/rng_streams.md
diff docs/rng_streams.md build/relwithdebinfo/rng_streams.md || {
  echo "rng registry drift: regenerate with" >&2
  echo "  sphinx_lint --rng-registry > docs/rng_streams.md" >&2
  exit 1
}
echo "rng registry: docs/rng_streams.md in sync"

echo "== flight-recorder determinism gate =="
# Two same-seed failure-enabled runs must emit byte-identical trace and
# metrics files; any nondeterminism in the pipeline shows up as a diff.
det_dir=build/relwithdebinfo/determinism
rm -rf "$det_dir"
mkdir -p "$det_dir"
./build/relwithdebinfo/tools/record/sphinx_record --seed 7 \
  --trace "$det_dir/trace_a.jsonl" --metrics "$det_dir/metrics_a.json"
./build/relwithdebinfo/tools/record/sphinx_record --seed 7 \
  --trace "$det_dir/trace_b.jsonl" --metrics "$det_dir/metrics_b.json"
diff "$det_dir/trace_a.jsonl" "$det_dir/trace_b.jsonl"
diff "$det_dir/metrics_a.json" "$det_dir/metrics_b.json"
echo "determinism gate: trace and metrics byte-identical"

echo "== lossy-network smoke gate =="
# Same run under an unreliable wire: 5% loss, 2% duplication and a 60 s
# client<->server partition.  sphinx_record itself asserts the delivery
# contract (every DAG finishes, no plan executes twice); the diff then
# proves the whole fault pipeline is deterministic.
lossy_dir=build/relwithdebinfo/lossy
rm -rf "$lossy_dir"
mkdir -p "$lossy_dir"
./build/relwithdebinfo/tools/record/sphinx_record --seed 7 \
  --loss 0.05 --duplicate 0.02 --partition-at 600 --partition-duration 60 \
  --trace "$lossy_dir/trace_a.jsonl" --metrics "$lossy_dir/metrics_a.json"
./build/relwithdebinfo/tools/record/sphinx_record --seed 7 \
  --loss 0.05 --duplicate 0.02 --partition-at 600 --partition-duration 60 \
  --trace "$lossy_dir/trace_b.jsonl" --metrics "$lossy_dir/metrics_b.json"
diff "$lossy_dir/trace_a.jsonl" "$lossy_dir/trace_b.jsonl"
diff "$lossy_dir/metrics_a.json" "$lossy_dir/metrics_b.json"
# The same wire with the straggler defense on, at 120 DAGs so replicas
# race their primaries while reports are lost or duplicated; the
# client's speculation-budget contract must hold throughout.
./build/relwithdebinfo/tools/record/sphinx_record --seed 7 --dags 120 \
  --speculate --loss 0.05 --duplicate 0.02 \
  --trace "$lossy_dir/spec_trace_a.jsonl" \
  --metrics "$lossy_dir/spec_metrics_a.json"
./build/relwithdebinfo/tools/record/sphinx_record --seed 7 --dags 120 \
  --speculate --loss 0.05 --duplicate 0.02 \
  --trace "$lossy_dir/spec_trace_b.jsonl" \
  --metrics "$lossy_dir/spec_metrics_b.json"
diff "$lossy_dir/spec_trace_a.jsonl" "$lossy_dir/spec_trace_b.jsonl"
diff "$lossy_dir/spec_metrics_a.json" "$lossy_dir/spec_metrics_b.json"
echo "lossy-network gate: delivery contract held, outputs byte-identical"

echo "== chaos smoke campaign =="
# A fixed-seed 8-run chaos campaign (scheduled outages + mid-run server
# crash/recovery, differential + invariant oracles) must pass and must
# print a byte-identical report across two invocations.  Checkpointing
# is the campaign default (checkpoint every 64 records), and each
# schedule includes a mid-checkpoint crash point -- a kill between
# checkpoint publication and journal truncation -- so the gate covers
# checkpoint + suffix recovery, not just full replay.
chaos_dir=build/relwithdebinfo/chaos
rm -rf "$chaos_dir"
mkdir -p "$chaos_dir"
./build/relwithdebinfo/tools/chaos/sphinx_chaos campaign --runs 8 --seed 7 \
  --repro "$chaos_dir/chaos_repro.json" > "$chaos_dir/report_a.txt"
./build/relwithdebinfo/tools/chaos/sphinx_chaos campaign --runs 8 --seed 7 \
  --repro "$chaos_dir/chaos_repro.json" > "$chaos_dir/report_b.txt"
diff "$chaos_dir/report_a.txt" "$chaos_dir/report_b.txt"
echo "chaos gate: campaign green and byte-identical"

echo "== failover smoke gate =="
# A 2-shard failover campaign: one scheduler is fail-stop killed while a
# client<->server partition covers the handoff, and a surviving peer
# adopts the dead shard from its checkpoint + journal suffix.  Every pair
# must pass the failover differential oracle (adoption byte-invisible to
# the scheduling layer), and two invocations must print byte-identical
# reports.
failover_dir=build/relwithdebinfo/failover
rm -rf "$failover_dir"
mkdir -p "$failover_dir"
./build/relwithdebinfo/tools/chaos/sphinx_chaos failover --runs 3 --seed 7 \
  > "$failover_dir/report_a.txt"
./build/relwithdebinfo/tools/chaos/sphinx_chaos failover --runs 3 --seed 7 \
  > "$failover_dir/report_b.txt"
diff "$failover_dir/report_a.txt" "$failover_dir/report_b.txt"
echo "failover gate: adoption green and byte-identical"

echo "== straggler-defense smoke gate =="
# The speculative-replication A/B: each run executes one degraded-heavy
# outage schedule (long black-hole/degraded windows) twice with the same
# seed -- speculation OFF then ON.  The tool itself asserts the win
# condition (pooled p99 DAG completion improves, tracker timeouts do not
# increase) and exports the pooled numbers to BENCH_straggler.json; the
# diff proves the whole defense -- detector, race arbitration,
# loser-cancel -- is deterministic.
straggler_dir=build/relwithdebinfo/straggler
rm -rf "$straggler_dir"
mkdir -p "$straggler_dir"
./build/relwithdebinfo/tools/chaos/sphinx_chaos straggler --runs 6 \
  --seed 975 --json BENCH_straggler.json > "$straggler_dir/report_a.txt"
./build/relwithdebinfo/tools/chaos/sphinx_chaos straggler --runs 6 \
  --seed 975 --json BENCH_straggler.json > "$straggler_dir/report_b.txt"
diff "$straggler_dir/report_a.txt" "$straggler_dir/report_b.txt"
echo "straggler gate: p99/timeouts improved, report byte-identical"

echo "== sweep-cost benchmark =="
# Records the per-sweep cost with 100/1,000/10,000 parked DAGs, idle
# (BM_SweepCost/N/1) or parent-blocked 4-job chains (BM_SweepCost/N/4),
# in BENCH_sweep.json.  Timings are informational; nothing here checks
# them.  The O(changed work) gate is the tier-1 count test
# ServerSweep.ParentBlockedChainsStayOffTheQueue (server.empty_plans must
# not exceed job completions), which ctest above already ran.
./build/relwithdebinfo/bench/micro_scheduler \
  --benchmark_filter=BM_SweepCost \
  --benchmark_out=BENCH_sweep.json --benchmark_out_format=json

echo "== recovery benchmark =="
# Checkpoint + suffix recovery vs full-history replay at 1k/10k/100k
# journal records.  The checkpointed path should win by well over an
# order of magnitude at 100k and retain only the post-checkpoint journal
# suffix.  Results land in BENCH_recovery.json.
./build/relwithdebinfo/bench/micro_recovery \
  --benchmark_out=BENCH_recovery.json --benchmark_out_format=json

echo "== rpc overhead benchmark =="
# Dedup-cache lookup cost plus the reliable-stack A/B at 0% loss (the
# overhead every fault-free run pays).  Results land in BENCH_rpc.json.
./build/relwithdebinfo/bench/micro_rpc \
  --benchmark_out=BENCH_rpc.json --benchmark_out_format=json

if [ "${1:-}" != "fast" ]; then
  echo "== build + test (asan-ubsan) =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan
  ctest --preset asan-ubsan
fi

echo "check.sh: all gates passed"
