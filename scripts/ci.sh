#!/usr/bin/env bash
# CI entry point: tier-1 tests and the CLI smoke diffs, then the bench
# stage: the e2e benchmark harness self-tests and one benchmark run,
# compared against BENCH_BASELINE.json.  Bench floors (memory reduction,
# overheads, speedups, accuracy) are asserted inside the benches;
# bench_compare.py adds the baseline-relative gates (drift-adjusted
# sweep timings, streaming peak growth, missing sections).
#
# Usage:
#   scripts/ci.sh                 # full gate: pytest + smokes + bench stage
#   scripts/ci.sh --skip-bench    # no bench stage (fast pre-push check)
#
# Extra arguments after the flags are forwarded to bench_compare.py
# (e.g. `scripts/ci.sh --threshold 0.3`).

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
# Keep the smoke runs' ledger out of the developer's real run history.
export REPRO_RUNS_DIR="$SMOKE_DIR/runs"

SKIP_BENCH=0
ARGS=()
for arg in "$@"; do
    if [[ "$arg" == "--skip-bench" ]]; then
        SKIP_BENCH=1
    else
        ARGS+=("$arg")
    fi
done

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== monitor smoke run (dashboard + energy report) =="
python -m repro monitor --jobs 6 --nodes 8 --seed 3 --resolution 1.0

echo "== cross-platform smoke (registry + h100 cap sweep) =="
python -m repro platforms
python -m repro cap-sweep PdO2 --platform h100-sxm --nodes 1

echo "== surrogate smoke (train -> predict -> verified cap search) =="
# First command trains and persists the store (retraining from scratch
# over the zoo-expanded corpus); the rest must hit it.  The zoo predict
# proves non-VASP registry workloads ride the same surrogate end-to-end.
export REPRO_SURROGATE_DIR="$SMOKE_DIR/surrogate"
python -m repro predict Si256_hse --nodes 1 --cap 300
python -m repro predict milc:small --nodes 1 --cap 300
python -m repro cap-sweep PdO4 --nodes 1 --surrogate
python - <<'PY'
from repro.capping.policy import search_cap_policy
from repro.prediction import load_or_train
from repro.vasp.benchmarks import benchmark

pairs = [
    (benchmark("PdO2").build(), 1),
    (benchmark("Si256_hse").build(), 1),
    (benchmark("GaAsBi-64").build(), 1),
]
caps = [125.0, 200.0, 300.0, 400.0]
surrogate = load_or_train()  # served from the store the smoke just wrote
fast = search_cap_policy(pairs, caps, slowdown_limit=1.5, surrogate=surrogate)
exact = search_cap_policy(pairs, caps, slowdown_limit=1.5)
assert fast.best_policy.caps_w == exact.best_policy.caps_w, (
    f"surrogate winner {fast.best_policy.caps_w} "
    f"!= exhaustive {exact.best_policy.caps_w}"
)
error = fast.verification_error
assert error is not None and error < 0.2, f"verification error {error}"
print(
    f"cap search ok: winner matches exhaustive search, "
    f"{fast.predictions} predictions / {fast.fallbacks} fallbacks, "
    f"winner verification error {error:.1%}"
)
PY

echo "== sharded fleet smoke (bit-identity vs serial, health dashboards included) =="
FLEET_ARGS=(fleet --jobs 4 --nodes 6 --seed 3 --resolution 1.0)
# Cache/sweep summary lines vary with worker count (each worker process
# has its own cache); every simulation statistic above them must not.
filter_summaries() { grep -v '^\[' "$1" > "$2"; }
python -m repro "${FLEET_ARGS[@]}" > "$SMOKE_DIR/serial.out"
filter_summaries "$SMOKE_DIR/serial.out" "$SMOKE_DIR/serial.txt"
# Monitored on both sides: one diff covers the fleet report and the
# monitor dashboards, which must match across execution modes too.
python -m repro "${FLEET_ARGS[@]}" --monitor > "$SMOKE_DIR/serial-monitor.out"
python -m repro "${FLEET_ARGS[@]}" --monitor --workers 2 > "$SMOKE_DIR/sharded.out"
filter_summaries "$SMOKE_DIR/serial-monitor.out" "$SMOKE_DIR/serial-monitor.txt"
filter_summaries "$SMOKE_DIR/sharded.out" "$SMOKE_DIR/sharded.txt"
diff "$SMOKE_DIR/serial-monitor.txt" "$SMOKE_DIR/sharded.txt" \
    || { echo "sharded fleet output diverged from serial"; exit 1; }

echo "== scenario smoke (workload registry + named scenario bit-identity) =="
python -m repro workloads
SCENARIO_ARGS=(fleet --scenario diurnal --seed 3 --resolution 1.0)
python -m repro "${SCENARIO_ARGS[@]}" > "$SMOKE_DIR/scenario-serial.out"
python -m repro "${SCENARIO_ARGS[@]}" --workers 2 > "$SMOKE_DIR/scenario-sharded.out"
filter_summaries "$SMOKE_DIR/scenario-serial.out" "$SMOKE_DIR/scenario-serial.txt"
filter_summaries "$SMOKE_DIR/scenario-sharded.out" "$SMOKE_DIR/scenario-sharded.txt"
diff "$SMOKE_DIR/scenario-serial.txt" "$SMOKE_DIR/scenario-sharded.txt" \
    || { echo "sharded scenario output diverged from serial"; exit 1; }

echo "== checkpoint/resume smoke (bit-identity vs uninterrupted) =="
python -m repro "${FLEET_ARGS[@]}" --checkpoint "$SMOKE_DIR/fleet.ckpt" \
    > "$SMOKE_DIR/ckpt.out"
python -m repro "${FLEET_ARGS[@]}" --checkpoint "$SMOKE_DIR/fleet.ckpt" \
    --resume > "$SMOKE_DIR/resume.out"
filter_summaries "$SMOKE_DIR/ckpt.out" "$SMOKE_DIR/ckpt.txt"
filter_summaries "$SMOKE_DIR/resume.out" "$SMOKE_DIR/resume.txt"
diff "$SMOKE_DIR/serial.txt" "$SMOKE_DIR/ckpt.txt" \
    || { echo "checkpointed fleet output diverged from serial"; exit 1; }
diff "$SMOKE_DIR/ckpt.txt" "$SMOKE_DIR/resume.txt" \
    || { echo "resumed fleet output diverged from checkpointed run"; exit 1; }

echo "== observability smoke (merged trace + run ledger round-trip) =="
python -m repro "${FLEET_ARGS[@]}" --workers 2 \
    --trace "$SMOKE_DIR/fleet-trace.json" --metrics "$SMOKE_DIR/fleet-metrics.prom" \
    > "$SMOKE_DIR/obs.out"
python - "$SMOKE_DIR/fleet-trace.json" <<'PY'
import json, sys

trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
worker_pids = {e["pid"] for e in events if e["name"] == "shard.render_batch"}
labels = {
    e["pid"]
    for e in events
    if e.get("ph") == "M" and e["name"] == "process_name"
}
assert len(worker_pids) >= 2, f"expected spans from >=2 workers, got {worker_pids}"
assert worker_pids <= labels, "worker pids missing process_name metadata rows"
print(f"merged trace ok: {len(events)} events from {len(worker_pids)} workers")
PY
filter_summaries "$SMOKE_DIR/obs.out" "$SMOKE_DIR/obs.txt"
grep -v ' written to ' "$SMOKE_DIR/obs.txt" > "$SMOKE_DIR/obs-body.txt"
diff "$SMOKE_DIR/serial.txt" "$SMOKE_DIR/obs-body.txt" \
    || { echo "obs-instrumented fleet output diverged from serial"; exit 1; }
python -m repro runs list
python -m repro runs show last > "$SMOKE_DIR/last-run.json"
python - "$SMOKE_DIR/last-run.json" <<'PY'
import json, sys

record = json.load(open(sys.argv[1]))
assert record["kind"] == "fleet", record
assert record["status"] == "ok", record
assert record["wall_s"] > 0, record
assert record["workers"] == 2, record
print(f"ledger ok: run {record['run_id']} recorded {record['kind']}")
PY
python -m repro sentinel check

echo "== profiler smoke (sharded --profile merges to one speedscope) =="
# A tight sampling interval makes worker-batch samples a certainty even
# on the small smoke workload; the merged document must carry rows from
# the coordinator *and* the shard workers, attributed to obs spans.
REPRO_PROFILE_INTERVAL=0.0005 python -m repro fleet --jobs 8 --nodes 40 \
    --seed 3 --resolution 1.0 --workers 2 \
    --profile "$SMOKE_DIR/fleet.speedscope" > /dev/null
python - "$SMOKE_DIR/fleet.speedscope" <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
rows = [p["name"] for p in doc["profiles"]]
frames = [f["name"] for f in doc["shared"]["frames"]]
workers = [name for name in rows if "worker" in name]
assert workers, f"no worker rows in merged profile: {rows}"
assert any(
    f.startswith("span:") and f != "span:(no span)" for f in frames
), "no span pseudo-frames in merged profile"
total = sum(len(p["samples"]) for p in doc["profiles"])
assert total > 0, "merged profile holds no samples"
print(
    f"profile ok: {total} stacks across {len(rows)} rows "
    f"({len(workers)} worker rows)"
)
PY

echo "== sentinel smoke (ledger-mined regression gate) =="
# The sentinel needs jitter-only history, so it gets its own ledger:
# the shared smoke ledger mixes runs from early (idle) and late (loaded)
# phases of this script, and that cross-phase drift is a real shift the
# dual gate would correctly flag. Three back-to-back runs build a
# temporally adjacent baseline; the green check loosens --tolerance to
# ride out the shared 1-CPU container's ~40% wall-time jitter, while
# the seeded 2x record must still trip the default gates.
export REPRO_RUNS_DIR="$SMOKE_DIR/sentinel-runs"
python -m repro "${FLEET_ARGS[@]}" > /dev/null
python -m repro "${FLEET_ARGS[@]}" > /dev/null
python -m repro "${FLEET_ARGS[@]}" > /dev/null
python -m repro sentinel check --tolerance 0.6
python -m repro sentinel report
python - <<'PY'
from repro.obs.ledger import RunLedger, RunRecord

book = RunLedger()
last = book.last()
book.append(
    RunRecord(
        run_id="00000000T000000-regress",
        kind=last.kind,
        fingerprint=last.fingerprint,
        wall_s=(last.wall_s or 1.0) * 2.0,
    )
)
print(f"seeded 2x wall-time record against fingerprint {last.fingerprint}")
PY
if python -m repro sentinel check; then
    echo "sentinel missed the seeded 2x wall-time regression"; exit 1
fi
echo "sentinel ok: seeded regression flagged, jitter history stayed green"
export REPRO_RUNS_DIR="$SMOKE_DIR/runs"

if [[ "$SKIP_BENCH" == "1" ]]; then
    echo "== benches skipped (--skip-bench) =="
    exit 0
fi

echo "== e2e benchmark harness self-tests =="
python -m pytest benchmarks/e2e -q

echo "== benchmark run + baseline comparison (bench floors, sweep timings, memory growth) =="
python scripts/bench_compare.py "${ARGS[@]+"${ARGS[@]}"}"
