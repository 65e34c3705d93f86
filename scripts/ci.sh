#!/usr/bin/env bash
# CI entry point: tier-1 tests, a random-seed property search and the
# CLI smoke diffs, then the bench stage: the e2e benchmark harness
# self-tests and one benchmark run.  Bench floors (memory reduction and
# ceilings, overheads, speedups, accuracy) are asserted inside the
# benches; each bench's min time joins this host's history in the run
# ledger (.repro_runs/), and `repro sentinel report --kind bench` fails
# on a bench that got slower than that history.
#
# Usage:
#   scripts/ci.sh                 # full gate: pytest + smokes + bench stage
#   scripts/ci.sh --skip-bench    # no bench stage (fast pre-push check)

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
# Keep the smoke runs' ledger out of the developer's real run history.
export REPRO_RUNS_DIR="$SMOKE_DIR/runs"

SKIP_BENCH=0
for arg in "$@"; do
    [[ "$arg" == "--skip-bench" ]] || { echo "usage: scripts/ci.sh [--skip-bench]"; exit 2; }
    SKIP_BENCH=1
done

echo "== tier-1 tests (derandomized hypothesis profile) =="
python -m pytest -x -q --durations=10

echo "== property search (hypothesis draws new examples) =="
python -m pytest -x -q tests/properties --hypothesis-profile=fuzz

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

echo "== EXPERIMENTS.md bit-identity (regenerated == committed, cached and uncached) =="
# The determinism contract: every experiment module rerun from scratch
# writes EXPERIMENTS.md byte for byte as committed, and the run cache
# never changes a byte of it (REPRO_CACHE=0 executes every run).
REPO_ROOT="$PWD"
for cache in 1 0; do
    mkdir "$SMOKE_DIR/experiments-cache$cache"
    (
        cd "$SMOKE_DIR/experiments-cache$cache"
        REPRO_CACHE=$cache PYTHONPATH="$REPO_ROOT/src" \
            python "$REPO_ROOT/scripts/make_experiments_md.py"
    )
    cmp "$SMOKE_DIR/experiments-cache$cache/EXPERIMENTS.md" EXPERIMENTS.md \
        || { echo "EXPERIMENTS.md regenerated with REPRO_CACHE=$cache differs from the committed one"; exit 1; }
done

echo "== examples smoke (every examples/*.py exits 0) =="
# Run from a scratch directory so the examples' .repro_cache and
# .repro_runs stay out of the checkout.
mkdir "$SMOKE_DIR/examples"
(
    cd "$SMOKE_DIR/examples"
    for example in "$REPO_ROOT"/examples/*.py; do
        echo "-- ${example##*/}"
        PYTHONPATH="$REPO_ROOT/src" python "$example" > /dev/null
    done
)

echo "== monitor smoke run (dashboard + energy report) =="
python -m repro monitor --jobs 6 --nodes 8 --seed 3 --resolution 1.0

echo "== cross-platform smoke (registry + h100 cap sweep) =="
python -m repro platforms
python -m repro cap-sweep PdO2 --platform h100-sxm --nodes 1

echo "== run and monitored cap-sweep smokes (more CLI paths through the engine) =="
# `repro run --export-trace` writes the ground-truth trace as CSV;
# `cap-sweep --monitor` must print the same cap table as the unmonitored
# sweep (a monitor only observes) and observe every rendered chunk.
python -m repro run PdO2 --nodes 1 --cap 200 --export-trace "$SMOKE_DIR/t.csv" > /dev/null
# The CSV has CRLF line ends; grep reads it whole (no -q, no SIGPIPE).
tr -d '\r' < "$SMOKE_DIR/t.csv" \
    | grep -x 'time_s,cpu,gpu0,gpu1,gpu2,gpu3,memory,node' > /dev/null \
    || { echo "exported trace lacks the time_s,cpu,gpu0..gpu3,memory,node header"; exit 1; }
python -m repro cap-sweep GaAsBi-64 --nodes 2 > "$SMOKE_DIR/cap-sweep.out"
python -m repro cap-sweep GaAsBi-64 --nodes 2 --monitor > "$SMOKE_DIR/cap-sweep-monitor.out"
diff <(head -n 7 "$SMOKE_DIR/cap-sweep.out") <(head -n 7 "$SMOKE_DIR/cap-sweep-monitor.out") \
    || { echo "monitored cap-sweep table diverged from unmonitored"; exit 1; }
grep -qE '^ +chunks observed +200$' "$SMOKE_DIR/cap-sweep-monitor.out" \
    || { echo "monitored cap-sweep did not report 200 chunks observed"; exit 1; }

echo "== predict smoke (analytic estimate vs exact run) and verified surrogate cap search =="
# `repro predict` answers from the analytic estimator; --exact also runs
# the engine and prints the estimate's errors.  The zoo predict proves
# non-VASP registry workloads take the same path.
export REPRO_SURROGATE_DIR="$SMOKE_DIR/surrogate"
python -m repro predict Si256_hse --nodes 1 --cap 300 --exact
python -m repro predict milc:small --nodes 1 --cap 300 --exact
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
surrogate = load_or_train()  # trains over the zoo-expanded corpus and stores it
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
# The cache/sweep footer lines count work done, which varies with
# worker count (each worker process has its own caches) and with
# resuming (a resumed run renders fewer jobs); every simulation
# statistic above them must not.
filter_summaries() { grep -vE '^ *\[(\w+ cache|sweeps): ' "$1" > "$2"; }
python -m repro "${FLEET_ARGS[@]}" > "$SMOKE_DIR/serial.out"
filter_summaries "$SMOKE_DIR/serial.out" "$SMOKE_DIR/serial.txt"
# Monitored on both sides: one diff covers the fleet report and the
# monitor dashboards, which must match across execution modes too.
python -m repro "${FLEET_ARGS[@]}" --monitor > "$SMOKE_DIR/serial-monitor.out"
REPRO_MONITOR_LOG="$SMOKE_DIR/alerts.jsonl" \
    python -m repro "${FLEET_ARGS[@]}" --monitor --workers 2 > "$SMOKE_DIR/sharded.out"
filter_summaries "$SMOKE_DIR/serial-monitor.out" "$SMOKE_DIR/serial-monitor.txt"
filter_summaries "$SMOKE_DIR/sharded.out" "$SMOKE_DIR/sharded.txt"
diff "$SMOKE_DIR/serial-monitor.txt" "$SMOKE_DIR/sharded.txt" \
    || { echo "sharded fleet output diverged from serial"; exit 1; }
# Each policy's monitor streams its own alert log beside the
# REPRO_MONITOR_LOG base; each log must hold exactly the events its
# dashboard counts, and `repro top` must read both.  This run published
# no heartbeat; the alert events alone make top exit 0.
code=0
python -m repro top --once --json --alert-log "$SMOKE_DIR/alerts.jsonl" \
    > "$SMOKE_DIR/top-alerts.json" || code=$?
[[ "$code" == 0 ]] || { echo "repro top --once with alert events but no heartbeat exited $code, not 0"; exit 1; }
python - "$SMOKE_DIR" <<'PY'
import json, re, sys
from pathlib import Path

smoke = Path(sys.argv[1])
out = (smoke / "sharded.out").read_text()
dashboard = r"fleet monitor: (.+?)\n.*?alerts \((\d+) fired, (\d+) resolved\)"
counts = {
    label: (int(fired), int(resolved))
    for label, fired, resolved in re.findall(dashboard, out, re.S)
}
assert len(counts) == 2, f"expected two monitor dashboards, got {counts}"
assert not (smoke / "alerts.jsonl").exists(), "a fleet monitor wrote the base alert log"
logs = {}
for label, policy in (("50% TDP policy", "capped"), ("uncapped", "uncapped")):
    events = [
        json.loads(line)
        for line in (smoke / f"alerts.jsonl.{policy}").read_text().splitlines()
    ]
    logged = (
        sum(e["event"] == "firing" for e in events),
        sum(e["event"] == "resolved" for e in events),
    )
    assert logged == counts[label], f"{policy} log holds {logged}, dashboard {counts[label]}"
    logs[policy] = logged
top = json.load(open(smoke / "top-alerts.json"))
policies = {event.get("policy") for event in top["alerts"]}
assert policies == {"capped", "uncapped"}, f"repro top read {policies}"
print(f"alert logs ok: (fired, resolved) per policy {logs}, both read by repro top")
PY
# An untapped run renders node rows only, a monitored one the node and
# GPU rows: the fleet report above the monitor dashboards must not tell
# them apart.
sed '/^fleet monitor: /,$d' "$SMOKE_DIR/serial-monitor.txt" > "$SMOKE_DIR/serial-monitor-report.txt"
diff "$SMOKE_DIR/serial.txt" "$SMOKE_DIR/serial-monitor-report.txt" \
    || { echo "monitored fleet report diverged from unmonitored"; exit 1; }

echo "== mixed-platform monitored fleet smoke (per-node idle bands, serial vs sharded) =="
# An A100/H100 pool: each node's idle samples are judged against its own
# spec's band, in the coordinator and in the shard workers alike.  At
# --workers 3 the 4 jobs are 4 one-job batches on 3 workers, so they can
# complete out of order and the chronological fold must reorder them.
MIXED_ARGS=("${FLEET_ARGS[@]}" --platform a100-40g,h100-sxm --monitor)
python -m repro "${MIXED_ARGS[@]}" > "$SMOKE_DIR/mixed-serial.out"
filter_summaries "$SMOKE_DIR/mixed-serial.out" "$SMOKE_DIR/mixed-serial.txt"
for mixed_workers in 2 3; do
    python -m repro "${MIXED_ARGS[@]}" --workers "$mixed_workers" \
        > "$SMOKE_DIR/mixed-sharded-$mixed_workers.out"
    filter_summaries "$SMOKE_DIR/mixed-sharded-$mixed_workers.out" \
        "$SMOKE_DIR/mixed-sharded-$mixed_workers.txt"
    diff "$SMOKE_DIR/mixed-serial.txt" "$SMOKE_DIR/mixed-sharded-$mixed_workers.txt" \
        || { echo "mixed-platform monitored fleet diverged between serial and --workers $mixed_workers"; exit 1; }
done

echo "== grouped-resolve smoke (batches holding several jobs of one phase table) =="
# Four jobs rarely put two jobs of one (workload, width) in a batch; at
# 48 jobs most shard batches resolve a group of two or three jobs in one
# pass, and the serial run resolves each table once per policy.
GROUPED_ARGS=(fleet --jobs 48 --nodes 24 --seed 3 --resolution 1.0)
python -m repro "${GROUPED_ARGS[@]}" > "$SMOKE_DIR/grouped-serial.out"
python -m repro "${GROUPED_ARGS[@]}" --workers 2 > "$SMOKE_DIR/grouped-sharded.out"
filter_summaries "$SMOKE_DIR/grouped-serial.out" "$SMOKE_DIR/grouped-serial.txt"
filter_summaries "$SMOKE_DIR/grouped-sharded.out" "$SMOKE_DIR/grouped-sharded.txt"
diff "$SMOKE_DIR/grouped-serial.txt" "$SMOKE_DIR/grouped-sharded.txt" \
    || { echo "sharded grouped-resolve fleet output diverged from serial"; exit 1; }

echo "== long-series smoke (series split into render chunks, serial vs sharded) =="
# At 0.1 s the longest job of this fleet runs 2,007 s: its 20,070-sample
# series render in two RENDER_CHUNK pieces, at the default chunk size.
LONG_ARGS=(fleet --jobs 8 --nodes 16 --seed 3 --resolution 0.1)
python -m repro "${LONG_ARGS[@]}" > "$SMOKE_DIR/long-serial.out"
python -m repro "${LONG_ARGS[@]}" --workers 2 > "$SMOKE_DIR/long-sharded.out"
filter_summaries "$SMOKE_DIR/long-serial.out" "$SMOKE_DIR/long-serial.txt"
filter_summaries "$SMOKE_DIR/long-sharded.out" "$SMOKE_DIR/long-sharded.txt"
diff "$SMOKE_DIR/long-serial.txt" "$SMOKE_DIR/long-sharded.txt" \
    || { echo "sharded long-series fleet output diverged from serial"; exit 1; }

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

echo "== monitored runs never checkpoint (monitor state is not saved) =="
REPRO_FLEET_CHECKPOINT="$SMOKE_DIR/m.ckpt" python -m repro monitor --jobs 2 --nodes 4 > /dev/null
if compgen -G "$SMOKE_DIR/m.ckpt*" > /dev/null; then
    echo "repro monitor wrote a fleet checkpoint"; exit 1
fi
code=0
python -m repro "${FLEET_ARGS[@]}" --monitor --checkpoint "$SMOKE_DIR/mf.ckpt" \
    > /dev/null 2> "$SMOKE_DIR/mf.err" || code=$?
[[ "$code" == 2 ]] || { echo "fleet --monitor --checkpoint exited $code, not 2"; exit 1; }
if compgen -G "$SMOKE_DIR/mf.ckpt*" > /dev/null; then
    echo "a refused monitored fleet wrote a checkpoint"; exit 1
fi

echo "== rejected inputs (exit 2, one repro: line on stderr, no stdout, no record) =="
REFUSED_RUNS="$SMOKE_DIR/refused-runs"
for refused in "run PdO2 --platform bogus" "fleet --scenario bogus" \
    "survey --nodes 0" "fleet --jobs 2 --nodes 4 --resolution inf" \
    "schedule --copies 0" "run PdO2 --seed -1" "fleet --jobs abc" \
    "runs show zzz"; do
    code=0
    # $refused is split into its words on purpose.
    REPRO_RUNS_DIR="$REFUSED_RUNS" python -m repro $refused \
        > "$SMOKE_DIR/refused.out" 2> "$SMOKE_DIR/refused.err" || code=$?
    [[ "$code" == 2 ]] || { echo "repro $refused exited $code, not 2"; exit 1; }
    if [[ "$(wc -l < "$SMOKE_DIR/refused.err")" != 1 ]] \
        || ! grep -q '^repro: ' "$SMOKE_DIR/refused.err" \
        || [[ -s "$SMOKE_DIR/refused.out" ]]; then
        echo "repro $refused: output is not one repro: line on stderr:"
        cat "$SMOKE_DIR/refused.out" "$SMOKE_DIR/refused.err"; exit 1
    fi
done
[[ "$(REPRO_RUNS_DIR="$REFUSED_RUNS" python -m repro runs list --json)" == "[]" ]] \
    || { echo "a refused command left a run-ledger record"; exit 1; }

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

echo "== sweeps ignore the shard worker count (fig12 byte-identical, footer too) =="
REPRO_SWEEP_WORKERS=1 python -m repro reproduce fig12 > "$SMOKE_DIR/fig12-w1.out"
REPRO_SWEEP_WORKERS=2 python -m repro reproduce fig12 > "$SMOKE_DIR/fig12-w2.out"
cmp "$SMOKE_DIR/fig12-w1.out" "$SMOKE_DIR/fig12-w2.out" \
    || { echo "REPRO_SWEEP_WORKERS changed the fig12 sweep output"; exit 1; }

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
# Its own ledger: the smoke ledger mixes idle and loaded phases of this
# script, a real shift the dual gate would flag.  Three back-to-back
# runs build a jitter-only history; the green check and the report
# tolerate the shared host's ~40 % wall jitter, while a record at twice
# the history's median must still trip the default gates.
export REPRO_RUNS_DIR="$SMOKE_DIR/sentinel-runs"
python -m repro "${FLEET_ARGS[@]}" > /dev/null
python -m repro "${FLEET_ARGS[@]}" > /dev/null
python -m repro "${FLEET_ARGS[@]}" > /dev/null
python -m repro sentinel check --tolerance 0.6
python -m repro sentinel report --tolerance 0.6
python - <<'PY'
from repro.obs.ledger import RunLedger, RunRecord
from repro.obs.sentinel import compute_baselines

book = RunLedger()
last = book.last()
# Not 2x the last run: when it is the fastest of three, twice its time
# can land inside the history's spread.
base = next(
    b for b in compute_baselines(book.records()) if b.fingerprint == last.fingerprint
)
book.append(
    RunRecord(
        run_id="00000000T000000-regress",
        kind=last.kind,
        fingerprint=last.fingerprint,
        wall_s=2.0 * base.wall_median_s,
    )
)
print(f"seeded 2x median wall-time record against fingerprint {last.fingerprint}")
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

echo "== benchmark run, judged against this host's bench history =="
# The persistent ledger, not the smoke one: bench history must outlive
# this script.  Records are keyed by bench, CPU count and machine type.
# Millisecond benches jitter by more than the default +25 % between runs
# on a shared 2-CPU host, so the report tolerates +50 %.
unset REPRO_RUNS_DIR
python -m pytest benchmarks/ --benchmark-only --benchmark-json="$SMOKE_DIR/bench.json" -q
python -m repro sentinel report --kind bench --tolerance 0.5
