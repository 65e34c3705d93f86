"""Command-line interface: run workloads, sweeps and paper artifacts.

Installed as ``repro`` (also ``python -m repro``)::

    repro list                         # benchmarks and reproducible artifacts
    repro platforms                    # registered hardware platforms
    repro run Si256_hse --nodes 2      # one workload, full power stats
    repro run PdO4 --platform h100-sxm # same workload on another platform
    repro survey                       # all seven benchmarks
    repro cap-sweep Si128_acfdtr       # power-cap response of one workload
    repro cap-sweep PdO4 --surrogate   # surrogate-scored grid, winner verified
    repro predict Si256_hse --cap 300  # surrogate prediction, no engine run
    repro reproduce fig12              # regenerate a paper table/figure
    repro reproduce fig05 --json out.json
    repro schedule --watts-per-node 900
    repro fleet --jobs 200 --nodes 1000  # trace-streamed fleet simulation
    repro obs                          # observability configuration/status
    repro reproduce fig10 --trace t.json --metrics m.prom
    repro runs list                    # durable run ledger (.repro_runs/)
    repro runs show last               # one run's full JSON record
    repro sentinel check               # robust-baseline regression sentinel
    repro sentinel report              # per-fingerprint health + change points
    repro sentinel baseline            # the mined baselines themselves
    repro top                          # live dashboard over a running fleet
    repro fleet --jobs 50 --profile p.speedscope  # span self times

Every executing command (``run``/``survey``/``cap-sweep``/``reproduce``/
``fleet``/``monitor``/``schedule``/``predict``) also appends one structured
record —
config fingerprint, platforms, wall time, energy, cache/dedupe stats,
alert counts — to the run ledger (``REPRO_RUNS=0`` opts out,
``REPRO_RUNS_DIR`` relocates it); ``repro runs`` queries the history.

Observability flags (``run``/``survey``/``cap-sweep``/``reproduce``):
``--trace FILE`` writes a Chrome trace-event JSON of the session,
``--metrics FILE`` a Prometheus text exposition (``.json`` for a JSON
snapshot), ``--profile FILE`` the trace's exact span self times
(``.json``/``.speedscope`` for speedscope, ``.txt`` for a report, else
collapsed stacks), ``--log-level LEVEL`` configures stdlib logging.
The ``REPRO_TRACE`` / ``REPRO_METRICS`` / ``REPRO_PROFILE`` /
``REPRO_LOG`` environment variables do the same for library use.  For
function-level rows, stdlib ``python -m cProfile -m repro ...``
profiles any command.

Every ``REPRO_*`` variable is declared once, in
:data:`repro.config.VARIABLES`, and read through
:func:`repro.config.read`; an explicit flag wins over its variable.
``repro obs`` lists the whole table with the current values (``--json``
adds each variable's kind, default and help text).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
import time
from collections.abc import Sequence

from repro import obs
from repro.analysis.modes import high_power_mode_w
from repro.analysis.stats import summarize
from repro.experiments import (
    fig01_node_variation,
    fig02_sampling,
    fig03_timelines,
    fig04_parallel_efficiency,
    fig05_workload_power,
    fig06_system_size,
    fig07_internal_params,
    fig08_concurrency,
    fig09_methods,
    fig10_cap_efficacy,
    fig11_cap_timeline,
    fig12_cap_performance,
    fig13_cap_concurrency,
    milc_study,
    scheduling,
    system_power,
    table1,
    topdown,
)
from repro.capping.fleet import (
    FLEET_POLICIES,
    compare_fleet_policies_traced,
    job_stream,
    simulate_fleet_traced,
)
from repro.capping.scenarios import get_scenario, scenario_ids
from repro.config import environment, read
from repro.experiments.common import run_workload
from repro.hardware.platform import DEFAULT_PLATFORM_ID, get_platform, platform_ids
from repro.experiments.report import format_table, sparkline
from repro.io import result_to_json, save_trace_csv
from repro.obs import dash as obs_dash
from repro.obs import ledger as run_ledger
from repro.obs import sentinel
from repro.obs.heartbeat import policy_paths
from repro.monitor import FleetMonitor, MonitorConfig, render_dashboard
from repro.prediction.model import surrogate_stats
from repro.prediction.store import load_or_train
from repro.runner.cache import fingerprint, process_caches
from repro.runner.engine import EngineConfig
from repro.runner.runlog import summarize_run
from repro.runner.sweep import sweep_stats
from repro.vasp.benchmarks import BENCHMARKS, benchmark, benchmark_names
from repro.workloads import (
    get_workload_model,
    resolve_widths,
    resolve_workload,
    workload_model_ids,
)

#: Artifact name -> (run, render) for `repro reproduce`.
ARTIFACTS = {
    "table1": (table1.run, table1.render),
    "fig01": (fig01_node_variation.run, fig01_node_variation.render),
    "fig02": (fig02_sampling.run, fig02_sampling.render),
    "fig03": (fig03_timelines.run, fig03_timelines.render),
    "fig04": (fig04_parallel_efficiency.run, fig04_parallel_efficiency.render),
    "fig05": (fig05_workload_power.run, fig05_workload_power.render),
    "fig06": (fig06_system_size.run, fig06_system_size.render),
    "fig07": (fig07_internal_params.run, fig07_internal_params.render),
    "fig08": (fig08_concurrency.run, fig08_concurrency.render),
    "fig09": (fig09_methods.run, fig09_methods.render),
    "fig10": (fig10_cap_efficacy.run, fig10_cap_efficacy.render),
    "fig11": (fig11_cap_timeline.run, fig11_cap_timeline.render),
    "fig12": (fig12_cap_performance.run, fig12_cap_performance.render),
    "fig13": (fig13_cap_concurrency.run, fig13_cap_concurrency.render),
    "scheduling": (scheduling.run, scheduling.render),
    "milc": (milc_study.run, milc_study.render),
    "topdown": (topdown.run, topdown.render),
    "system-power": (system_power.run, system_power.render),
}


def _efficiency_accounts() -> dict:
    """This session's cache, sweep and surrogate accounts worth reporting.

    ``{"cache": {name: CacheStats}, "sweeps": SweepStats, "surrogate":
    SurrogateStats}``, leaving out an account with nothing to report.
    The footer and the run ledger both read this, so they always name
    the same accounts with the same counts — pooled work included, since
    workers ship their counts home.
    """
    accounts: dict = {}
    caches = [cache.stats() for cache in process_caches()]
    looked_up = {stats.name: stats for stats in caches if stats.lookups}
    if looked_up:
        accounts["cache"] = looked_up
    if sweep_stats().grids:
        accounts["sweeps"] = sweep_stats()
    if surrogate_stats().predictions or surrogate_stats().trainings:
        accounts["surrogate"] = surrogate_stats()
    return accounts


def _print_efficiency_summary() -> None:
    """The cache/dedupe/surrogate effectiveness footer, one line per account."""
    accounts = _efficiency_accounts()
    lines = [stats.summary_line() for stats in accounts.pop("cache", {}).values()]
    lines += [stats.summary_line() for stats in accounts.values()]
    if lines:
        print()
        for line in lines:
            print(f"  [{line}]")


#: Commands that append a record to the durable run ledger.
_RECORDED_COMMANDS = {
    "run",
    "survey",
    "cap-sweep",
    "reproduce",
    "fleet",
    "monitor",
    "schedule",
    "predict",
}


def _annotate_efficiency() -> None:
    """Fold the session's accounts into the open ledger draft."""
    accounts = _efficiency_accounts()
    fields: dict = {}
    if "cache" in accounts:
        fields["cache"] = {
            name: {
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": round(stats.hit_rate, 4),
            }
            for name, stats in accounts["cache"].items()
        }
    if "sweeps" in accounts:
        sweeps = accounts["sweeps"]
        fields["sweeps"] = {
            "grids": sweeps.grids,
            "submitted": sweeps.specs_submitted,
            "executed": sweeps.specs_executed,
            "deduped": sweeps.specs_deduped,
            "dedupe_ratio": round(sweeps.dedupe_ratio, 4),
        }
    if "surrogate" in accounts:
        surro = accounts["surrogate"]
        fields["surrogate"] = {
            "predictions": surro.predictions,
            "hits": surro.hits,
            "fallbacks": surro.fallbacks,
            "trainings": surro.trainings,
        }
    if fields:
        run_ledger.annotate_run(**fields)


def _format_age(seconds: float | None) -> str:
    """Compact human age: ``42 s``, ``7.2 min``, ``3.1 h``, ``2.4 d``."""
    if seconds is None:
        return "?"
    if seconds < 120:
        return f"{seconds:.0f} s"
    if seconds < 7200:
        return f"{seconds / 60:.1f} min"
    if seconds < 172800:
        return f"{seconds / 3600:.1f} h"
    return f"{seconds / 86400:.1f} d"


def _cmd_list(_args: argparse.Namespace) -> int:
    print("benchmarks (Table I):")
    for name, case in BENCHMARKS.items():
        print(f"  {name:14s} {case.description}")
    print("\nreproducible artifacts (repro reproduce <name>):")
    for name in ARTIFACTS:
        print(f"  {name}")
    return 0


def _cmd_platforms(_args: argparse.Namespace) -> int:
    rows = []
    for platform_id in platform_ids():
        plat = get_platform(platform_id)
        gpu = plat.gpu
        node = plat.node
        rows.append(
            [
                platform_id,
                gpu.name,
                f"{gpu.tdp_w:.0f}",
                f"{gpu.cap_min_w:.0f}-{gpu.cap_max_w:.0f}",
                node.gpus_per_node,
                f"{node.idle_min_w:.0f}-{node.idle_max_w:.0f}",
            ]
        )
    print(
        format_table(
            headers=[
                "Platform",
                "GPU",
                "TDP (W)",
                "Cap range (W)",
                "GPUs",
                "Idle band (W)",
            ],
            rows=rows,
            title=f"registered hardware platforms (default: {DEFAULT_PLATFORM_ID})",
        )
    )
    print()
    for platform_id in platform_ids():
        print(f"  {platform_id:12s} {get_platform(platform_id).description}")
    print(
        "\nselect with --platform on run/cap-sweep/fleet/monitor; register "
        "custom specs via repro.hardware.platform.register_platform()."
    )
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    rows = []
    for model_id in workload_model_ids():
        model = get_workload_model(model_id)
        hint = f"{model.class_hint}*" if model.classifier is not None else model.class_hint
        rows.append(
            [
                model_id,
                model.family,
                model.roofline,
                hint,
                ",".join(str(w) for w in model.default_widths),
                f"{len(model.variants)} ({model.default_variant})",
            ]
        )
    print(
        format_table(
            headers=[
                "Model",
                "Family",
                "Roofline",
                "Class",
                "Widths",
                "Variants (default)",
            ],
            rows=rows,
            title="registered workload models (* = per-instance classifier)",
        )
    )
    print()
    for model_id in workload_model_ids():
        print(f"  {model_id:13s} {get_workload_model(model_id).description}")
    print(
        "\nreference workloads as model, model:variant, or a Table I benchmark "
        "name on run/cap-sweep/predict; register custom models via "
        "repro.workloads.register_workload_model()."
    )
    print("\nnamed fleet scenarios (repro fleet --scenario):")
    for sid in scenario_ids():
        print(f"  {sid:18s} {get_scenario(sid).description}")
    return 0


def _resolve_workload_arg(ref: str):
    """Build the workload a CLI reference names (exit politely if unknown)."""
    try:
        return resolve_workload(ref)
    except KeyError as err:
        raise SystemExit(f"repro: {err.args[0]}") from None


def _default_nodes(ref: str) -> int:
    """Default node count for a reference: top of its healthy range."""
    return max(resolve_widths(ref))


def _split_platforms(value: str | None) -> tuple[str | None, list[str] | None]:
    """``--platform`` value -> (primary platform, mixed-pool list).

    A comma-separated value builds a mixed pool (nodes cycle through the
    listed platforms round-robin); the first entry drives the analytic
    scheduler and monitor defaults.
    """
    parts = [part.strip() for part in (value or "").split(",") if part.strip()]
    if not parts:
        return None, None
    return parts[0], parts if len(parts) > 1 else None


def _fleet_setup(
    args: argparse.Namespace, n_nodes: int, platform_value: str | None
) -> tuple[float | None, str | None, list[str] | None, EngineConfig | None]:
    """(power budget, platform, mixed-pool list, engine config) from the
    flags `repro fleet` and `repro monitor` share."""
    budget = args.watts_per_node * n_nodes if args.watts_per_node else None
    engine_config = (
        EngineConfig(base_interval_s=args.resolution) if args.resolution else None
    )
    return (budget, *_split_platforms(platform_value), engine_config)


def _cmd_run(args: argparse.Namespace) -> int:
    workload = _resolve_workload_arg(args.benchmark)
    measured = run_workload(
        workload,
        n_nodes=args.nodes,
        gpu_cap_w=args.cap,
        seed=args.seed,
        platform=args.platform,
    )
    telem = measured.telemetry[0]
    stats = summarize(telem.node_power)
    cap_note = f" (GPU cap {args.cap:.0f} W)" if args.cap else ""
    platform_note = f" [{get_platform(args.platform).id}]" if args.platform else ""
    print(f"{workload.name} on {args.nodes} node(s){cap_note}{platform_note}")
    print(f"  runtime            : {measured.runtime_s:,.0f} s")
    print(f"  energy to solution : {measured.energy_mj():.2f} MJ")
    print(f"  node power max     : {stats.max_w:.0f} W")
    print(f"  node power median  : {stats.median_w:.0f} W")
    print(f"  high power mode    : {stats.high_power_mode_w:.0f} W (FWHM {stats.fwhm_w:.0f} W)")
    print(f"  |{sparkline(telem.node_power, 70)}|")
    if args.export_trace:
        path = save_trace_csv(measured.result.traces[0], args.export_trace)
        print(f"  ground-truth trace written to {path}")
    run_ledger.annotate_run(
        fingerprint=fingerprint(
            "cli.run", args.benchmark, args.nodes, args.cap, args.seed,
            get_platform(args.platform).id,
        ),
        platforms=[get_platform(args.platform).id],
        jobs=1,
        nodes=args.nodes,
        energy_j=measured.result.total_energy_j(),
        metrics=summarize_run(measured.result).ledger_fields(),
    )
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    rows = []
    for name in benchmark_names():
        workload = benchmark(name).build()
        measured = run_workload(workload, n_nodes=args.nodes, seed=args.seed)
        telem = measured.telemetry[0]
        stats = summarize(telem.node_power)
        rows.append(
            [
                name,
                workload.incar.functional.value,
                measured.runtime_s,
                stats.high_power_mode_w,
                stats.max_w,
                measured.energy_mj(),
            ]
        )
    rows.sort(key=lambda r: -r[3])
    print(
        format_table(
            headers=["Benchmark", "Functional", "Runtime (s)", "HPM (W)", "Max (W)", "Energy (MJ)"],
            rows=rows,
            title=f"workload survey ({args.nodes} node(s))",
        )
    )
    run_ledger.annotate_run(
        fingerprint=fingerprint("cli.survey", args.nodes, args.seed),
        platforms=[get_platform(None).id],
        jobs=len(rows),
        nodes=args.nodes,
        energy_j=round(sum(row[5] for row in rows) * 1e6, 6),
        metrics={"benchmarks": len(rows)},
    )
    return 0


def _cap_sweep_surrogate(
    args: argparse.Namespace, workload, n_nodes: int, plat, caps: list[float]
) -> int:
    """Surrogate fast path: predict the grid, re-simulate only the winner.

    Every cap is scored through the trained surrogate (out-of-envelope
    points fall back to the engine); the winner — lowest predicted
    energy/node within the slowdown limit — is then re-simulated exactly
    and the surrogate-vs-exact energy error reported alongside it.
    """
    with obs.span("cli.cap_sweep_surrogate", benchmark=workload.name):
        surrogate = load_or_train(workers=args.workers)
        t0 = time.perf_counter()
        predictions = []
        for cap in [None, *caps]:
            try:
                predictions.append(
                    surrogate.predict(
                        workload, n_nodes=n_nodes, cap_w=cap, platform=plat.id
                    )
                )
            except ValueError:
                # Cap outside the device's range: not representable in
                # the feature space, so the engine decides this point.
                predictions.append(None)
        predict_s = time.perf_counter() - t0
    base_runtime = (
        predictions[0].runtime_s if predictions[0] is not None else None
    )
    if base_runtime is None:
        base_runtime = run_workload(
            workload, n_nodes=n_nodes, seed=args.seed, platform=args.platform
        ).runtime_s
    rows = []
    # cap -> (runtime_s, energy_per_node_j, slowdown, source)
    table: dict[float, tuple[float, float, float, str]] = {}
    for cap, pred in zip(caps, predictions[1:]):
        if pred is not None and pred.in_envelope:
            gpu_hpm = pred.tdp_fraction * plat.gpu.tdp_w
            table[cap] = (pred.runtime_s, pred.energy_per_node_j, pred.slowdown, "surrogate")
        else:
            # Outside the trained envelope: run this point exactly.
            measured = run_workload(
                workload,
                n_nodes=n_nodes,
                gpu_cap_w=cap,
                seed=args.seed,
                platform=args.platform,
            )
            gpu_hpm = high_power_mode_w(measured.telemetry[0].gpu_power(0))
            table[cap] = (
                measured.runtime_s,
                measured.result.total_energy_j() / n_nodes,
                measured.runtime_s / base_runtime,
                "engine",
            )
        runtime_s, energy_j, slowdown, source = table[cap]
        rows.append(
            [
                f"{cap:.0f}",
                runtime_s,
                1.0 / slowdown if slowdown > 0 else 0.0,
                gpu_hpm,
                gpu_hpm / cap,
                source,
            ]
        )
    print(
        format_table(
            headers=["Cap (W)", "Runtime (s)", "Perf", "GPU HPM (W)", "HPM/cap", "Source"],
            rows=rows,
            title=(
                f"{workload.name} cap sweep ({n_nodes} node(s), {plat.id}, "
                "surrogate)"
            ),
        )
    )
    # Winner: lowest energy/node within the slowdown limit (least-slow
    # cap when nothing qualifies), then one exact run to verify it.
    feasible = [c for c in caps if table[c][2] <= args.slowdown_limit]
    if feasible:
        winner = min(feasible, key=lambda c: table[c][1])
        note = ""
    else:
        winner = min(caps, key=lambda c: table[c][2])
        note = f" (no cap met slowdown <= {args.slowdown_limit:g}; least-slow shown)"
    runtime_s, energy_j, slowdown, source = table[winner]
    measured = run_workload(
        workload,
        n_nodes=n_nodes,
        gpu_cap_w=winner,
        seed=args.seed,
        platform=args.platform,
    )
    exact_energy_j = measured.result.total_energy_j() / n_nodes
    error = abs(energy_j - exact_energy_j) / exact_energy_j
    surrogate_stats().record_verification(error)
    print()
    print(
        f"  winner: {winner:.0f} W — predicted {energy_j / 1e6:.3f} MJ/node, "
        f"slowdown {slowdown:.3f}{note}"
    )
    print(
        f"  exact re-simulation: {exact_energy_j / 1e6:.3f} MJ/node "
        f"({measured.runtime_s:.0f} s) — surrogate off by {error:.1%}"
    )
    print(
        f"  [{len(predictions)} predictions in "
        f"{predict_s * 1e3:.1f} ms, 1 verification run]"
    )
    run_ledger.annotate_run(
        fingerprint=fingerprint(
            "cli.cap_sweep",
            args.benchmark,
            n_nodes,
            caps,
            args.seed,
            plat.id,
            "surrogate",
        ),
        platforms=[plat.id],
        jobs=len(caps),
        nodes=n_nodes,
        metrics={
            "caps_w": [round(cap, 1) for cap in caps],
            "winner_cap_w": round(winner, 1),
            "winner_verification_error": round(error, 4),
        },
    )
    _print_efficiency_summary()
    return 0


def _cmd_cap_sweep(args: argparse.Namespace) -> int:
    workload = _resolve_workload_arg(args.benchmark)
    n_nodes = args.nodes if args.nodes else _default_nodes(args.benchmark)
    plat = get_platform(args.platform)
    caps = args.caps
    if caps is None:
        # Platform-derived default grid: TDP down to the cap floor
        # ([400, 300, 200, 100] W on the default a100-40g).
        spec = plat.gpu
        caps = [
            spec.tdp_w,
            0.75 * spec.tdp_w,
            0.50 * spec.tdp_w,
            max(0.25 * spec.tdp_w, spec.cap_min_w),
        ]
    if args.surrogate and read("REPRO_SURROGATE"):
        return _cap_sweep_surrogate(args, workload, n_nodes, plat, caps)
    monitor = None
    if args.monitor or read("REPRO_MONITOR"):
        monitor = FleetMonitor(
            MonitorConfig(platform=args.platform),
            label=f"{workload.name} cap sweep",
        )
    rows = []
    base = None
    clock = 0.0
    for cap in caps:
        measured = run_workload(
            workload,
            n_nodes=n_nodes,
            gpu_cap_w=cap,
            seed=args.seed,
            platform=args.platform,
        )
        gpu_hpm = high_power_mode_w(measured.telemetry[0].gpu_power(0))
        if base is None:
            base = measured.runtime_s
        if monitor is not None:
            # Replay each sweep point's retained traces through the
            # streaming monitor path, laid out back-to-back on one clock.
            monitor.observe_run(
                measured.result,
                job_id=f"{workload.name}@{cap:.0f}W",
                start_s=clock,
                nominal_runtime_s=base,
            )
            clock += measured.runtime_s
        rows.append(
            [f"{cap:.0f}", measured.runtime_s, base / measured.runtime_s, gpu_hpm, gpu_hpm / cap]
        )
    platform_note = f", {plat.id}" if args.platform else ""
    print(
        format_table(
            headers=["Cap (W)", "Runtime (s)", "Perf", "GPU HPM (W)", "HPM/cap"],
            rows=rows,
            title=f"{workload.name} cap sweep ({n_nodes} node(s){platform_note})",
        )
    )
    if monitor is not None:
        print()
        report = monitor.finalize()
        print(render_dashboard(report))
        run_ledger.annotate_run(alerts=report.ledger_summary())
    run_ledger.annotate_run(
        fingerprint=fingerprint(
            "cli.cap_sweep", args.benchmark, n_nodes, caps, args.seed, plat.id
        ),
        platforms=[plat.id],
        jobs=len(caps),
        nodes=n_nodes,
        metrics={"caps_w": [round(cap, 1) for cap in caps]},
    )
    _print_efficiency_summary()
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    """Surrogate prediction for one (benchmark, nodes, cap, platform) point.

    Trains (or loads) the two-stage surrogate, prints every predicted
    target plus the envelope verdict; ``--exact`` also runs the engine
    and reports the surrogate-vs-exact errors.
    """
    workload = _resolve_workload_arg(args.benchmark)
    n_nodes = args.nodes if args.nodes else _default_nodes(args.benchmark)
    plat = get_platform(args.platform)
    if not read("REPRO_SURROGATE"):
        print("surrogate fast path disabled (REPRO_SURROGATE=0); unset to enable")
        return 1
    with obs.span("cli.predict", benchmark=args.benchmark):
        surrogate = load_or_train(workers=args.workers)
        t0 = time.perf_counter()
        pred = surrogate.predict(
            workload, n_nodes=n_nodes, cap_w=args.cap, platform=plat.id
        )
        latency_us = (time.perf_counter() - t0) * 1.0e6
    cap_note = f"{args.cap:.0f} W cap" if args.cap is not None else "uncapped"
    print(f"{workload.name}: {n_nodes} node(s), {plat.id}, {cap_note}")
    print(
        f"  profile class    : {pred.class_index}"
        f" (distance {pred.class_distance:.2f},"
        f" uncertainty {pred.uncertainty:.3f})"
    )
    verdict = "in" if pred.in_envelope else "OUT -- engine recommended"
    print(f"  envelope         : {verdict}")
    print(f"  node HPM         : {pred.hpm_w:.0f} W")
    print(f"  mean node power  : {pred.mean_node_power_w:.0f} W")
    print(
        f"  GPU HPM          : {pred.tdp_fraction * plat.gpu.tdp_w:.0f} W"
        f" ({pred.tdp_fraction:.2f} x TDP)"
    )
    print(f"  runtime          : {pred.runtime_s:.0f} s (slowdown {pred.slowdown:.3f})")
    print(f"  energy/node      : {pred.energy_per_node_j / 1.0e6:.3f} MJ")
    print(f"  latency          : {latency_us:.0f} us/prediction")
    metrics: dict = {
        "in_envelope": pred.in_envelope,
        "hpm_w": round(pred.hpm_w, 1),
        "runtime_s": round(pred.runtime_s, 1),
        "energy_per_node_j": round(pred.energy_per_node_j, 1),
    }
    if args.exact:
        measured = run_workload(
            workload,
            n_nodes=n_nodes,
            gpu_cap_w=args.cap,
            seed=args.seed,
            platform=args.platform,
        )
        exact_hpm = high_power_mode_w(measured.telemetry[0].node_power)
        exact_energy_j = measured.result.total_energy_j() / n_nodes
        hpm_err = abs(pred.hpm_w - exact_hpm) / exact_hpm
        rt_err = abs(pred.runtime_s - measured.runtime_s) / measured.runtime_s
        en_err = abs(pred.energy_per_node_j - exact_energy_j) / exact_energy_j
        print("\nexact run (engine)")
        print(f"  node HPM         : {exact_hpm:.0f} W ({hpm_err:.1%} error)")
        print(f"  runtime          : {measured.runtime_s:.0f} s ({rt_err:.1%} error)")
        print(
            f"  energy/node      : {exact_energy_j / 1.0e6:.3f} MJ"
            f" ({en_err:.1%} error)"
        )
        metrics["exact_hpm_error"] = round(hpm_err, 4)
        metrics["exact_runtime_error"] = round(rt_err, 4)
        metrics["exact_energy_error"] = round(en_err, 4)
    run_ledger.annotate_run(
        fingerprint=fingerprint(
            "cli.predict", args.benchmark, n_nodes, args.cap, plat.id
        ),
        platforms=[plat.id],
        jobs=1,
        nodes=n_nodes,
        metrics=metrics,
    )
    _print_efficiency_summary()
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    run_fn, render_fn = ARTIFACTS[args.artifact]
    with obs.span("cli.reproduce", artifact=args.artifact):
        result = run_fn()
    print(render_fn(result))
    if args.json:
        result_to_json(result, args.json)
        print(f"\nresult data written to {args.json}")
    run_ledger.annotate_run(
        fingerprint=fingerprint("cli.reproduce", args.artifact),
        metrics={"artifact": args.artifact},
    )
    _print_efficiency_summary()
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    status = obs.status()
    if args.json_status:
        status = dict(status)
        status["ledger"] = run_ledger.ledger_state()
        status["environment"] = environment()
        print(json.dumps(status, indent=2))
        return 0
    print("observability status")
    tracing = status["tracing"]
    metrics = status["metrics"]
    print(f"  tracing  : {'on' if tracing['active'] else 'off'}", end="")
    if tracing["path"]:
        print(f" -> {tracing['path']} (chrome trace-event JSON)", end="")
    print()
    print(f"  metrics  : {'on' if metrics['active'] else 'off'}", end="")
    if metrics["path"]:
        print(f" -> {metrics['path']}", end="")
    print()
    if metrics["names"]:
        print(f"  registered metrics: {', '.join(metrics['names'])}")
    profile = status["profile"]
    print(f"  profile  : {'on' if profile['active'] else 'off'}", end="")
    if profile["path"]:
        print(f" -> {profile['path']}", end="")
    print()
    ledger_state = run_ledger.ledger_state()
    print(
        f"  ledger   : {'on' if ledger_state['enabled'] else 'off'} "
        f"-> {ledger_state['path']} ({ledger_state['records']} record(s))"
    )
    if ledger_state["last_run_id"]:
        age = ledger_state["last_age_s"]
        age_note = f", {_format_age(age)} ago" if age is not None else ""
        print(
            f"  last run : {ledger_state['last_run_id']} "
            f"({ledger_state['last_kind']}, {ledger_state['last_status']}"
            f"{age_note})"
        )
    checkpoint_base = read("REPRO_FLEET_CHECKPOINT")
    if checkpoint_base is not None:
        ages = [
            f"{path.name} ({_format_age(time.time() - path.stat().st_mtime)} old)"
            for path in policy_paths(checkpoint_base)
            if path.is_file()
        ]
        print(
            "  checkpoints: "
            + (", ".join(ages) if ages else f"none yet under {checkpoint_base}")
        )
    print("\nenvironment")
    for name, row in environment().items():
        value = row["value"] if row["value"] is not None else "(unset)"
        print(f"  {name:22s} = {value}  ({row['kind']})")
    print(
        "\nenable with `repro <cmd> --trace FILE --metrics FILE "
        "--profile FILE --log-level LEVEL` or the REPRO_* environment "
        "variables; `--profile` writes the trace's span self times, and "
        "`python -m cProfile -m repro <cmd>` gives function rows."
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    scenario = None
    if args.scenario is not None:
        try:
            scenario = get_scenario(args.scenario)
        except KeyError as err:
            raise SystemExit(f"repro: {err.args[0]}") from None
        if args.jobs is not None:
            print(
                f"--scenario {scenario.id} fixes its own job count "
                f"({scenario.n_jobs}); ignoring --jobs {args.jobs}"
            )
    # A scenario carries pool defaults (size, platforms); explicit flags
    # still win so one scenario can be replayed on a different pool.
    n_jobs = args.jobs if args.jobs is not None else 24
    if scenario is not None:
        n_jobs = scenario.n_jobs
    n_nodes = args.nodes if args.nodes is not None else (
        scenario.n_nodes if scenario is not None else 16
    )
    platform_value = args.platform
    if platform_value is None and scenario is not None and scenario.platforms:
        platform_value = ",".join(scenario.platforms)
    budget, platform, node_platforms, engine_config = _fleet_setup(
        args, n_nodes, platform_value
    )
    monitors = None
    if args.monitor or read("REPRO_MONITOR"):
        monitors = tuple(
            FleetMonitor(MonitorConfig(platform=platform), label=policy_name)
            for policy_name, _, _ in FLEET_POLICIES.values()
        )
    with obs.span("cli.fleet", jobs=n_jobs, nodes=n_nodes):
        capped, uncapped = compare_fleet_policies_traced(
            n_jobs=n_jobs,
            n_nodes=n_nodes,
            power_budget_w=budget,
            seed=args.seed,
            bin_s=args.bin_s,
            engine_config=engine_config,
            monitors=monitors,
            platform=platform,
            node_platforms=node_platforms,
            workers=args.workers,
            checkpoint=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            heartbeat=args.heartbeat,
            scenario=scenario,
        )
    run_ledger.annotate_run(
        # Execution mode (workers, live capture) is part of the
        # fingerprint: `repro sentinel check` compares wall time, and a
        # sharded or traced run is only comparable to its own kind.
        # Scenario runs are their own kind too; default runs keep the
        # historical fingerprint (no trailing None, and a literal None
        # and False where the removed chunk flag and dense-trace flag
        # sat) so ledger history stays comparable.
        fingerprint=fingerprint(
            "cli.fleet", n_jobs, n_nodes, budget, args.seed, args.bin_s,
            None, args.resolution, args.platform, False,
            args.workers, args.trace is not None, args.metrics is not None,
            *((scenario.id,) if scenario is not None else ()),
        ),
        platforms=[get_platform(platform).id]
        if node_platforms is None
        else node_platforms,
        jobs=n_jobs,
        energy_j=capped.system.energy_j + uncapped.system.energy_j,
    )
    rows = [
        [
            report.policy_name,
            report.mean_power_w / 1e3,
            report.peak_power_w / 1e3,
            report.power_std_w / 1e3,
            f"{report.coefficient_of_variation:.1%}",
            report.makespan_s,
            report.jobs_completed,
        ]
        for report in (uncapped, capped)
    ]
    budget_note = (
        f", budget {budget / 1e3:.0f} kW" if budget is not None else ""
    )
    platform_note = f", {platform_value}" if platform_value else ""
    scenario_note = (
        f" [scenario {scenario.id}]" if scenario is not None else ""
    )
    print(
        format_table(
            headers=[
                "Policy",
                "Mean (kW)",
                "Peak (kW)",
                "Std (kW)",
                "CoV",
                "Makespan (s)",
                "Jobs",
            ],
            rows=rows,
            title=(
                f"trace-streamed fleet: {n_jobs} jobs on "
                f"{n_nodes} node(s){budget_note}{platform_note}{scenario_note}"
            ),
        )
    )
    reduction = (
        1.0 - capped.power_std_w / uncapped.power_std_w
        if uncapped.power_std_w > 0
        else 0.0
    )
    print(f"\n  system power variability reduced {reduction:.1%} by capping")
    streamed = capped.bytes_streamed + uncapped.bytes_streamed
    chunks = capped.chunks_streamed + uncapped.chunks_streamed
    samples = capped.samples_streamed + uncapped.samples_streamed
    print(
        f"  [streamed {streamed / 1e6:.1f} MB of node-power samples in "
        f"{chunks} chunks ({samples:,} samples); peak resident "
        f"memory stays O(chunk) + O(makespan)]"
    )
    if monitors is not None:
        for fleet_monitor in monitors:
            print()
            report = fleet_monitor.finalize()
            print(render_dashboard(report))
            run_ledger.annotate_run(alerts={report.label: report.ledger_summary()})
    _print_efficiency_summary()
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    """One monitored fleet run: health dashboard plus power report."""
    budget, platform, node_platforms, engine_config = _fleet_setup(
        args, args.nodes, args.platform
    )
    policy_name, _, build = FLEET_POLICIES[args.policy]
    config = MonitorConfig(platform=platform, alert_log=args.alert_log)
    monitor = FleetMonitor(config, label=policy_name)
    jobs = job_stream(n_jobs=args.jobs, seed=args.seed)
    with obs.span("cli.monitor", jobs=args.jobs, nodes=args.nodes):
        simulate_fleet_traced(
            jobs,
            build(platform),
            policy_name,
            n_nodes=args.nodes,
            power_budget_w=budget,
            engine_config=engine_config,
            seed=args.seed,
            monitor=monitor,
            platform=platform,
            node_platforms=node_platforms,
        )
    report = monitor.finalize()
    totals = report.energy.get("totals", {}) if report.energy else {}
    run_ledger.annotate_run(
        fingerprint=fingerprint(
            "cli.monitor", args.jobs, args.nodes, budget, args.seed,
            # None stands where the removed --window value sat, so
            # fingerprints stay comparable with older ledger records.
            args.policy, args.resolution, args.platform, None,
        ),
        platforms=[get_platform(platform).id]
        if node_platforms is None
        else node_platforms,
        jobs=args.jobs,
        energy_j=totals.get("energy_j"),
        alerts=report.ledger_summary(),
    )
    print(render_dashboard(report))
    print()
    print("per-job power report")
    print(monitor.ledger.render_text())
    if args.report_json:
        path = report.export_json(args.report_json)
        print(f"\nmonitor report written to {path}")
    if config.resolved_alert_log() is not None:
        print(f"alert log written to {config.resolved_alert_log()}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    result = scheduling.run(
        n_nodes=args.nodes, budget_w_per_node=args.watts_per_node, copies=args.copies
    )
    print(scheduling.render(result))
    run_ledger.annotate_run(
        fingerprint=fingerprint(
            "cli.schedule", args.nodes, args.watts_per_node, args.copies
        ),
        nodes=args.nodes,
    )
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    """Query the durable run ledger: list / show / last / diff."""
    ledger = run_ledger.RunLedger()
    records = ledger.records()
    action = args.runs_command
    if action == "list":
        selected = [
            record
            for record in records
            if args.kind is None or record.kind == args.kind
        ]
        selected = selected[-args.limit :]
        if args.json_out:
            print(json.dumps([record.to_json() for record in selected], indent=2))
            return 0
        if not selected:
            print(f"run ledger is empty ({ledger.path})")
            return 0
        rows = []
        for record in reversed(selected):
            label = record.label
            if len(label) > 42:
                label = label[:41] + "…"
            rows.append(
                [
                    record.run_id,
                    record.kind,
                    record.status,
                    f"{record.wall_s:.2f}" if record.wall_s is not None else "-",
                    _format_age(record.age_s),
                    label,
                ]
            )
        print(
            format_table(
                headers=["Run", "Kind", "Status", "Wall (s)", "Age", "Command"],
                rows=rows,
                title=(
                    f"run ledger: {len(records)} record(s) in {ledger.path}"
                ),
            )
        )
        return 0
    if action in {"show", "last"}:
        ref = "last" if action == "last" else args.ref
        try:
            record = ledger.find(ref)
        except KeyError as exc:
            print(f"error: {exc.args[0]}")
            return 2
        print(json.dumps(record.to_json(), indent=2, sort_keys=True))
        return 0
    # action == "diff"
    try:
        record_a = ledger.find(args.ref_a)
        record_b = ledger.find(args.ref_b)
    except KeyError as exc:
        print(f"error: {exc.args[0]}")
        return 2
    changed = run_ledger.diff_records(record_a, record_b)
    print(f"diff {record_a.run_id} -> {record_b.run_id}")
    if not changed:
        print("  records are equivalent (identity fields excluded)")
        return 0
    for key, value_a, value_b in changed:
        print(f"  {key:36s} {value_a!r} -> {value_b!r}")
    return 0


def _cmd_sentinel(args: argparse.Namespace) -> int:
    """The regression sentinel: check / report / baseline over the ledger."""
    ledger = run_ledger.RunLedger()
    records = ledger.records()
    action = args.sentinel_command
    if action == "check":
        try:
            target = ledger.find(args.ref)
        except KeyError as exc:
            print(f"error: {exc.args[0]}")
            return 2
        if target.fingerprint is None:
            print(
                f"run {target.run_id} has no config fingerprint; nothing to check"
            )
            return 0
        findings, history = sentinel.check_target(
            records,
            target,
            tolerance=args.tolerance,
            min_history=args.min_history,
            drift_gate=args.drift_gate,
        )
        print(
            f"sentinel: {target.run_id} ({target.kind}) vs {history} "
            f"comparable run(s) — {'REGRESSED' if findings else 'ok'}"
        )
        if history < args.min_history:
            print(
                f"  (only {history} comparable run(s) on record; statistical "
                f"checks need {args.min_history})"
            )
        for finding in findings:
            print(f"  {finding.category.upper()}: {finding.message}")
        return 1 if findings else 0
    if action == "report":
        rows = sentinel.build_report(
            records,
            tolerance=args.tolerance,
            min_history=args.min_history,
            drift_gate=args.drift_gate,
            kind=args.kind,
        )
        if args.json_out:
            print(json.dumps([row.to_json() for row in rows], indent=2))
            return 0
        if not rows:
            print(f"run ledger has no checkable history ({ledger.path})")
            return 0
        table_rows = []
        for row in rows:
            base = row.baseline
            shift = (
                f"{row.change_point.shift:+.0%}@{row.change_point.index}"
                if row.change_point is not None
                else "-"
            )
            table_rows.append(
                [
                    base.fingerprint[:10],
                    base.kind,
                    str(base.runs),
                    (
                        f"{base.wall_median_s:.2f}±{base.wall_sigma_s:.2f}"
                        if base.wall_median_s is not None
                        else "-"
                    ),
                    (
                        f"{row.latest_wall_s:.2f}"
                        if row.latest_wall_s is not None
                        else "-"
                    ),
                    shift,
                    row.verdict,
                ]
            )
        print(
            format_table(
                headers=[
                    "Fingerprint",
                    "Kind",
                    "Runs",
                    "Wall med±σ (s)",
                    "Latest",
                    "Shift",
                    "Verdict",
                ],
                rows=table_rows,
                title=f"sentinel report: {len(rows)} fingerprint(s)",
            )
        )
        for row in rows:
            for finding in row.findings:
                print(f"  {row.baseline.fingerprint[:10]}: {finding.message}")
        return 1 if any(row.findings for row in rows) else 0
    # action == "baseline"
    baselines = [
        base
        for base in sentinel.compute_baselines(records)
        if args.kind is None or base.kind == args.kind
    ]
    if args.json_out:
        print(json.dumps([base.to_json() for base in baselines], indent=2))
        return 0
    if not baselines:
        print(f"run ledger has no baselines yet ({ledger.path})")
        return 0
    print(
        format_table(
            headers=["Fingerprint", "Kind", "Runs", "Wall med (s)", "σ (s)", "Command"],
            rows=[
                [
                    base.fingerprint[:10],
                    base.kind,
                    str(base.runs),
                    (
                        f"{base.wall_median_s:.2f}"
                        if base.wall_median_s is not None
                        else "-"
                    ),
                    (
                        f"{base.wall_sigma_s:.2f}"
                        if base.wall_sigma_s is not None
                        else "-"
                    ),
                    base.label[:42],
                ]
                for base in baselines
            ],
            title=f"sentinel baselines: {len(baselines)} fingerprint(s)",
        )
    )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard (``repro top``) over heartbeats, alerts and metrics."""
    return obs_dash.run_dashboard(
        args.heartbeat,
        alert_log=read("REPRO_MONITOR_LOG", args.alert_log),
        metrics_path=args.metrics_file,
        interval_s=args.interval,
        once=args.once,
        json_out=args.json_out,
        duration_s=args.duration,
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Understanding VASP Power "
        "Profiles on NVIDIA A100 GPUs' (SC 2024).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by the executing subcommands.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_group = obs_flags.add_argument_group("observability")
    obs_group.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a Chrome trace-event JSON (chrome://tracing / Perfetto)",
    )
    obs_group.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write collected metrics (Prometheus text; .json for a snapshot)",
    )
    obs_group.add_argument(
        "--profile",
        default=None,
        metavar="FILE",
        help=(
            "write the trace's exact span self times to FILE "
            "(.json/.speedscope for speedscope, .txt for a report, else "
            "collapsed stacks)"
        ),
    )
    obs_group.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="configure stdlib logging (debug/info/warning/error)",
    )

    # Stream and pool flags shared by the fleet-simulating subcommands.
    fleet_flags = argparse.ArgumentParser(add_help=False)
    fleet_flags.add_argument("--seed", type=int, default=0)
    fleet_flags.add_argument(
        "--watts-per-node",
        type=float,
        default=None,
        help="facility power budget per node (default: unbounded)",
    )
    fleet_flags.add_argument(
        "--resolution",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="trace sample interval (coarser = faster; 0.1 matches the paper)",
    )

    sub.add_parser("list", help="list benchmarks and artifacts").set_defaults(
        func=_cmd_list
    )

    sub.add_parser(
        "platforms", help="list registered hardware platforms"
    ).set_defaults(func=_cmd_platforms)

    sub.add_parser(
        "workloads", help="list registered workload models and fleet scenarios"
    ).set_defaults(func=_cmd_workloads)

    workload_help = (
        "Table I benchmark name (e.g. Si256_hse) or workload-model "
        f"reference model[:variant] (models: {', '.join(workload_model_ids())}; "
        "see `repro workloads`)"
    )

    def add_platform_flag(p: argparse.ArgumentParser, mixed: bool = False) -> None:
        extra = (
            "; comma-separate several for a mixed pool (round-robin)"
            if mixed
            else ""
        )
        p.add_argument(
            "--platform",
            default=None,
            metavar="ID",
            help=(
                f"hardware platform ({', '.join(platform_ids())}; "
                f"default {DEFAULT_PLATFORM_ID}){extra}"
            ),
        )

    p_run = sub.add_parser(
        "run", help="run one benchmark and print power stats", parents=[obs_flags]
    )
    p_run.add_argument("benchmark", metavar="workload", help=workload_help)
    p_run.add_argument("--nodes", type=int, default=1)
    p_run.add_argument("--cap", type=float, default=None, help="GPU power cap in W")
    p_run.add_argument("--seed", type=int, default=7)
    p_run.add_argument("--export-trace", default=None, help="write ground truth CSV")
    add_platform_flag(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_survey = sub.add_parser(
        "survey", help="profile all seven benchmarks", parents=[obs_flags]
    )
    p_survey.add_argument("--nodes", type=int, default=1)
    p_survey.add_argument("--seed", type=int, default=7)
    p_survey.set_defaults(func=_cmd_survey)

    p_sweep = sub.add_parser(
        "cap-sweep", help="power-cap response of a benchmark", parents=[obs_flags]
    )
    p_sweep.add_argument("benchmark", metavar="workload", help=workload_help)
    p_sweep.add_argument("--nodes", type=int, default=None)
    p_sweep.add_argument(
        "--caps",
        type=float,
        nargs="+",
        default=None,
        help="cap grid in W (default: platform TDP down to its cap floor)",
    )
    p_sweep.add_argument("--seed", type=int, default=7)
    p_sweep.add_argument(
        "--monitor",
        action="store_true",
        help="replay each sweep point through the fleet health monitor",
    )
    p_sweep.add_argument(
        "--surrogate",
        action="store_true",
        help=(
            "fast path: score the cap grid through the trained surrogate, "
            "re-simulate only the winner exactly"
        ),
    )
    p_sweep.add_argument(
        "--slowdown-limit",
        type=float,
        default=1.25,
        metavar="FACTOR",
        help="max acceptable slowdown when picking the winner (--surrogate)",
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="corpus-build workers if the surrogate must train first",
    )
    add_platform_flag(p_sweep)
    p_sweep.set_defaults(func=_cmd_cap_sweep)

    p_predict = sub.add_parser(
        "predict",
        help="surrogate prediction for a benchmark (no engine run)",
        parents=[obs_flags],
    )
    p_predict.add_argument("benchmark", metavar="workload", help=workload_help)
    p_predict.add_argument("--nodes", type=int, default=None)
    p_predict.add_argument(
        "--cap", type=float, default=None, help="GPU power cap in W"
    )
    p_predict.add_argument("--seed", type=int, default=7)
    p_predict.add_argument(
        "--workers",
        type=int,
        default=None,
        help="corpus-build workers if the surrogate must train first",
    )
    p_predict.add_argument(
        "--exact",
        action="store_true",
        help="also run the engine and report the surrogate's errors",
    )
    add_platform_flag(p_predict)
    p_predict.set_defaults(func=_cmd_predict)

    p_repro = sub.add_parser(
        "reproduce", help="regenerate a paper artifact", parents=[obs_flags]
    )
    p_repro.add_argument("artifact", choices=sorted(ARTIFACTS))
    p_repro.add_argument("--json", default=None, help="also export result data")
    p_repro.set_defaults(func=_cmd_reproduce)

    p_fleet = sub.add_parser(
        "fleet",
        help="trace-streamed fleet simulation (capped vs uncapped)",
        parents=[obs_flags, fleet_flags],
    )
    p_fleet.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="jobs in the stream (default: 24, or the scenario's count)",
    )
    p_fleet.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="node pool size (default: 16, or the scenario's pool)",
    )
    p_fleet.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help=(
            "replay a named fleet scenario (arrival process, workload mix, "
            f"pool, failures) instead of the default stream: "
            f"{', '.join(scenario_ids())} (see `repro workloads`)"
        ),
    )
    p_fleet.add_argument(
        "--bin-s", type=float, default=1.0, help="system power bin width in s"
    )
    p_fleet.add_argument(
        "--monitor",
        action="store_true",
        help="attach a live health monitor per policy and print its dashboard",
    )
    p_fleet.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "shard job rendering across N worker processes "
            "(bit-identical to serial; default: REPRO_SWEEP_WORKERS or 1)"
        ),
    )
    p_fleet.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "periodically snapshot the aggregation state to PATH(.capped/"
            ".uncapped); default: REPRO_FLEET_CHECKPOINT"
        ),
    )
    p_fleet.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        metavar="JOBS",
        help="jobs between checkpoint snapshots (default: 64)",
    )
    p_fleet.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint if present (bit-identical restart)",
    )
    p_fleet.add_argument(
        "--heartbeat",
        default=None,
        metavar="PATH",
        help=(
            "publish live progress (jobs folded, nodes/sec, ETA, checkpoint "
            "age) to PATH(.capped/.uncapped) as atomically-replaced JSON; "
            "default: REPRO_FLEET_HEARTBEAT"
        ),
    )
    add_platform_flag(p_fleet, mixed=True)
    p_fleet.set_defaults(func=_cmd_fleet)

    p_monitor = sub.add_parser(
        "monitor",
        help="monitored fleet run: health signals, alerts, energy report",
        parents=[obs_flags, fleet_flags],
    )
    p_monitor.add_argument("--jobs", type=int, default=24, help="jobs in the stream")
    p_monitor.add_argument("--nodes", type=int, default=16, help="node pool size")
    p_monitor.add_argument(
        "--policy",
        choices=tuple(FLEET_POLICIES),
        default="capped",
        help="cap policy for the run (default: the 50%%-of-TDP policy)",
    )
    p_monitor.add_argument(
        "--alert-log",
        default=None,
        metavar="FILE",
        help="write alert lifecycle events as JSON lines (or $REPRO_MONITOR_LOG)",
    )
    p_monitor.add_argument(
        "--report-json",
        default=None,
        metavar="FILE",
        help="write the full monitor report (signals, alerts, energy) as JSON",
    )
    add_platform_flag(p_monitor, mixed=True)
    p_monitor.set_defaults(func=_cmd_monitor)

    p_sched = sub.add_parser("schedule", help="run the power-aware scheduling study")
    p_sched.add_argument("--nodes", type=int, default=16)
    p_sched.add_argument("--watts-per-node", type=float, default=900.0)
    p_sched.add_argument("--copies", type=int, default=2)
    p_sched.set_defaults(func=_cmd_schedule)

    p_obs = sub.add_parser(
        "obs", help="show observability configuration and status"
    )
    p_obs.add_argument(
        "--json", dest="json_status", action="store_true", help="emit JSON status"
    )
    p_obs.set_defaults(func=_cmd_obs)

    p_runs = sub.add_parser(
        "runs", help="query the durable run ledger (.repro_runs/)"
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    r_list = runs_sub.add_parser("list", help="list recorded runs, newest first")
    r_list.add_argument("--kind", default=None, help="filter by command kind")
    r_list.add_argument(
        "--limit", type=int, default=20, help="show at most N records (default 20)"
    )
    r_list.add_argument(
        "--json", dest="json_out", action="store_true", help="emit JSON records"
    )
    r_list.set_defaults(func=_cmd_runs)
    r_show = runs_sub.add_parser("show", help="print one run's full JSON record")
    r_show.add_argument(
        "ref", nargs="?", default="last", help="run id prefix or 'last'"
    )
    r_show.set_defaults(func=_cmd_runs)
    r_last = runs_sub.add_parser("last", help="print the most recent record")
    r_last.set_defaults(func=_cmd_runs)
    r_diff = runs_sub.add_parser(
        "diff", help="changed configuration/outcome fields between two runs"
    )
    r_diff.add_argument("ref_a", help="run id prefix or 'last'")
    r_diff.add_argument("ref_b", nargs="?", default="last")
    r_diff.set_defaults(func=_cmd_runs)

    p_sentinel = sub.add_parser(
        "sentinel",
        help="regression sentinel over the run ledger (baselines, drift)",
    )
    sentinel_sub = p_sentinel.add_subparsers(
        dest="sentinel_command", required=True
    )

    def add_sentinel_gates(p: argparse.ArgumentParser) -> None:
        # Help strings are %-formatted by argparse: a literal % is %%.
        p.add_argument(
            "--tolerance",
            type=float,
            default=sentinel.DEFAULT_TOLERANCE,
            metavar="FRACTION",
            help=(
                "relative slowdown tolerated vs the baseline median "
                f"(default {sentinel.DEFAULT_TOLERANCE:+.0%}%)"
            ),
        )
        p.add_argument(
            "--min-history",
            type=int,
            default=sentinel.DEFAULT_MIN_HISTORY,
            metavar="N",
            help=(
                "comparable runs required before statistical checks judge "
                f"(default {sentinel.DEFAULT_MIN_HISTORY})"
            ),
        )
        p.add_argument(
            "--drift-gate",
            type=float,
            default=sentinel.DEFAULT_DRIFT_GATE,
            metavar="MAPE",
            help=(
                "surrogate verification-error ceiling "
                f"(default {sentinel.DEFAULT_DRIFT_GATE:.0%}%)"
            ),
        )

    s_check = sentinel_sub.add_parser(
        "check",
        help="judge one run against its robust baseline (CI-gateable exit)",
    )
    s_check.add_argument("ref", nargs="?", default="last")
    add_sentinel_gates(s_check)
    s_check.set_defaults(func=_cmd_sentinel)
    s_report = sentinel_sub.add_parser(
        "report", help="per-fingerprint health: baseline, change point, verdict"
    )
    s_report.add_argument("--kind", default=None, help="filter by command kind")
    s_report.add_argument(
        "--json", dest="json_out", action="store_true", help="emit JSON rows"
    )
    add_sentinel_gates(s_report)
    s_report.set_defaults(func=_cmd_sentinel)
    s_baseline = sentinel_sub.add_parser(
        "baseline", help="the mined per-fingerprint baselines"
    )
    s_baseline.add_argument("--kind", default=None, help="filter by command kind")
    s_baseline.add_argument(
        "--json", dest="json_out", action="store_true", help="emit JSON baselines"
    )
    s_baseline.set_defaults(func=_cmd_sentinel)

    p_top = sub.add_parser(
        "top",
        help="live dashboard over a running fleet (heartbeats, alerts, ETA)",
    )
    p_top.add_argument(
        "--heartbeat",
        default=None,
        metavar="FILE",
        help="heartbeat base path (default: REPRO_FLEET_HEARTBEAT)",
    )
    p_top.add_argument(
        "--alert-log",
        default=None,
        metavar="FILE",
        help="monitor alert JSON-lines log (default: REPRO_MONITOR_LOG)",
    )
    p_top.add_argument(
        "--metrics-file",
        default=None,
        metavar="FILE",
        help="exported metrics .json snapshot to display",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh period (default 1.0)",
    )
    p_top.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this long even if the run is still going",
    )
    p_top.add_argument(
        "--once", action="store_true", help="render a single frame and exit"
    )
    p_top.add_argument(
        "--json",
        dest="json_out",
        action="store_true",
        help="emit the raw snapshot as JSON instead of rendering",
    )
    p_top.set_defaults(func=_cmd_top)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Activate observability: env vars first, explicit flags on top.
    obs.configure_from_env()
    obs.enable(
        trace=getattr(args, "trace", None) or False,
        metrics=getattr(args, "metrics", None) or False,
        profile=getattr(args, "profile", None) or False,
        log_level=getattr(args, "log_level", None),
    )
    # Label the viewer rows in exported Chrome traces.
    obs.name_process(f"repro {args.command}")
    obs.name_thread("main")
    # Executing commands leave one durable record in the run ledger.
    # Recording is silent (the record is queried via `repro runs`, not
    # printed) so command output stays byte-stable run to run.
    if args.command in _RECORDED_COMMANDS:
        run_ledger.begin_run(
            args.command,
            shlex.join(list(argv) if argv is not None else sys.argv[1:]),
        )
    try:
        code = args.func(args)
        for path, kind in obs.flush().items():
            print(f"{kind} written to {path}")
        _annotate_efficiency()
        run_ledger.finish_run("ok" if code == 0 else f"exit-{code}")
        return code
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        run_ledger.discard_run()
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except Exception:
        run_ledger.finish_run("error")
        raise


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
