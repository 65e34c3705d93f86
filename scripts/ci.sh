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
python -m pytest -x -q --durations=10

echo "== import gate (importing the CLI loads no scipy module) =="
# The engine loads scipy's compiled AR(1) filter itself, on its first
# noisy render; importing the CLI must not import any of scipy.
IMPORTS="$(python -X importtime -c "import repro.cli" 2>&1 >/dev/null)"
grep -qE '\| +repro\.cli$' <<< "$IMPORTS" \
    || { echo "no -X importtime line for repro.cli"; exit 1; }
if grep -E '\| +scipy(\.|$)' <<< "$IMPORTS"; then
    echo "import repro.cli imports scipy (lines above)"; exit 1
fi
echo "import gate ok: no scipy module among $(wc -l <<< "$IMPORTS") imports"

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
# The cache/sweep/surrogate footer lines count work done, which varies
# with worker count (each worker process has its own caches) and with
# resuming (a resumed run renders fewer jobs); every simulation
# statistic above them must not.
filter_summaries() { grep -vE '^ *\[(\w+ cache|sweeps|surrogate): ' "$1" > "$2"; }
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
# An untapped run renders node rows only, a monitored one the node and
# GPU rows: the fleet report above the monitor dashboards must not tell
# them apart.
sed '/^fleet monitor: /,$d' "$SMOKE_DIR/serial-monitor.txt" > "$SMOKE_DIR/serial-monitor-report.txt"
diff "$SMOKE_DIR/serial.txt" "$SMOKE_DIR/serial-monitor-report.txt" \
    || { echo "monitored fleet report diverged from unmonitored"; exit 1; }

echo "== heartbeat smoke (sharded run's per-policy heartbeats, read by repro top) =="
python -m repro "${FLEET_ARGS[@]}" --workers 2 --heartbeat "$SMOKE_DIR/hb.json" > /dev/null
python -m repro top --once --json --heartbeat "$SMOKE_DIR/hb.json" > "$SMOKE_DIR/top.json"
python - "$SMOKE_DIR/top.json" <<'PY'
import json, sys

beats = json.load(open(sys.argv[1]))["heartbeats"]
assert len(beats) == 2, f"expected two policy heartbeats, got {beats}"
assert all(beat["done"] for beat in beats), beats
print(f"heartbeat ok: {', '.join(beat['label'] for beat in beats)} done")
PY

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
python - "$SMOKE_DIR/last-run.json" "$SMOKE_DIR/fleet-metrics.prom" <<'PY'
import json, re, sys

record = json.load(open(sys.argv[1]))
assert record["kind"] == "fleet", record
assert record["status"] == "ok", record
assert record["wall_s"] > 0, record
assert record["workers"] == 2, record
print(f"ledger ok: run {record['run_id']} recorded {record['kind']}")
# One account per fact: the ledger's cache field and the metrics dump
# of the same pooled run read the same counts.
dumped = {}
for line in open(sys.argv[2]):
    match = re.match(r'repro_cache_(hits|misses)_total\{cache="(\w+)".*\} (\d+)', line)
    if match:
        kind, cache, value = match.groups()
        row = dumped.setdefault(cache, {"hits": 0, "misses": 0})
        row[kind] += int(value)
ledger = {
    name: {"hits": row["hits"], "misses": row["misses"]}
    for name, row in record["cache"].items()
}
assert ledger == dumped, (ledger, dumped)
print(f"accounts ok: ledger cache field == metrics dump ({', '.join(sorted(dumped))})")
PY
python -m repro sentinel check

echo "== pooled sweep footer (worker cache counts ship home) =="
REPRO_SWEEP_WORKERS=2 python -m repro reproduce fig12 > "$SMOKE_DIR/fig12-pooled.out"
grep -q '\[estimate cache:' "$SMOKE_DIR/fig12-pooled.out" \
    || { echo "pooled fig12 footer lost the estimate-cache line"; exit 1; }

echo "== profiler smoke (sharded --profile merges to one speedscope) =="
# The profile is the trace's span self times: the merged document must
# carry rows from the coordinator *and* the shard workers, and each
# row's weights must add up to its process's top-level span durations.
python -m repro fleet --jobs 8 --nodes 40 \
    --seed 3 --resolution 1.0 --workers 2 \
    --trace "$SMOKE_DIR/fleet.trace.json" \
    --profile "$SMOKE_DIR/fleet.speedscope" > /dev/null
python - "$SMOKE_DIR/fleet.speedscope" "$SMOKE_DIR/fleet.trace.json" <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
trace = json.load(open(sys.argv[2]))["traceEvents"]
rows = [p["name"] for p in doc["profiles"]]
frames = [f["name"] for f in doc["shared"]["frames"]]
workers = [name for name in rows if "worker" in name]
assert workers, f"no worker rows in merged profile: {rows}"
assert any(
    f.startswith("span:") and f != "span:(no span)" for f in frames
), "no span pseudo-frames in merged profile"
total = sum(len(p["samples"]) for p in doc["profiles"])
assert total > 0, "merged profile holds no samples"
labels = {
    e["args"]["name"]: e["pid"]
    for e in trace
    if e.get("ph") == "M" and e["name"] == "process_name"
}
for profile in doc["profiles"]:
    pid = labels.get(profile["name"]) or int(profile["name"].split()[-1])
    spans = [e for e in trace if e.get("ph") == "X" and e["pid"] == pid]
    top = [
        e
        for e in spans
        if not any(
            o is not e
            and o["tid"] == e["tid"]
            and o["ts"] <= e["ts"]
            and e["ts"] + e["dur"] <= o["ts"] + o["dur"]
            for o in spans
        )
    ]
    expected_s = sum(e["dur"] for e in top) / 1e6
    weight_s = sum(profile["weights"])
    assert abs(weight_s - expected_s) <= 1e-6 * len(spans), (
        profile["name"], weight_s, expected_s
    )
print(
    f"profile ok: {total} stacks across {len(rows)} rows "
    f"({len(workers)} worker rows), weights match the trace's top-level spans"
)
PY

echo "== sentinel smoke (ledger-mined regression gate) =="
# The sentinel needs jitter-only history, so it gets its own ledger:
# the shared smoke ledger mixes runs from early (idle) and late (loaded)
# phases of this script, and that cross-phase drift is a real shift the
# dual gate would correctly flag. Three back-to-back runs build a
# temporally adjacent baseline; the green check and the report loosen
# --tolerance alike to ride out the shared 1-CPU container's ~40%
# wall-time jitter (the report judges the same history and exits 1 on
# a flag), while the seeded 2x record must still trip the default gates.
export REPRO_RUNS_DIR="$SMOKE_DIR/sentinel-runs"
python -m repro "${FLEET_ARGS[@]}" > /dev/null
python -m repro "${FLEET_ARGS[@]}" > /dev/null
python -m repro "${FLEET_ARGS[@]}" > /dev/null
python -m repro sentinel check --tolerance 0.6
python -m repro sentinel report --tolerance 0.6
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

echo "== env smoke (switch words are not paths; bad counts stop the run) =="
# repro.config parses every REPRO_* variable: REPRO_RUNS_DIR=1 selects
# the default ledger directory, never one named `1`, and a zero worker
# count is an error naming the variable, not a silent serial run.
REPO_SRC="$PWD/src"
(
    cd "$SMOKE_DIR"
    export PYTHONPATH="$REPO_SRC"
    REPRO_RUNS_DIR=1 python -m repro reproduce table1 > /dev/null
    [[ ! -e 1 ]] || { echo "REPRO_RUNS_DIR=1 left an entry named 1"; exit 1; }
    if REPRO_SWEEP_WORKERS=0 python -m repro fleet --jobs 2 --nodes 4 \
        --resolution 1.0 > /dev/null 2> env-err.txt; then
        echo "REPRO_SWEEP_WORKERS=0 did not stop the run"; exit 1
    fi
    grep -q REPRO_SWEEP_WORKERS env-err.txt \
        || { echo "error does not name REPRO_SWEEP_WORKERS"; exit 1; }
)
echo "env ok: no stray 1 entry, bad worker count named"

if [[ "$SKIP_BENCH" == "1" ]]; then
    echo "== benches skipped (--skip-bench) =="
    exit 0
fi

echo "== e2e benchmark harness self-tests =="
python -m pytest benchmarks/e2e -q

echo "== benchmark run + baseline comparison (bench floors, sweep timings, memory growth) =="
python scripts/bench_compare.py "${ARGS[@]+"${ARGS[@]}"}"
