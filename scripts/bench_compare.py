"""Compare a benchmark run against the committed baseline.

Runs the benchmark suite once with pytest-benchmark's JSON output and
reads everything from that one file: each bench's **minimum** time
(min-of-rounds is far more robust to host load than the mean:
background load only ever adds time) and the fields the gate benches
record in ``benchmark.extra_info``, one section per gate bench
(``efficiency``, ``memory``, ``monitor``, ``obs``, ``profile``,
``shard``, ``surrogate``, ``scenario``).  This script measures nothing
itself.

Absolute floors and ceilings (memory reduction, overhead ratios,
speedups, accuracy, build throughput) are asserted inside the benches:
a violated one fails the pytest run, and with it this script.  What is
left here are the gates that need the baseline (:data:`GATES`), plus a
failure for any baseline section the run did not record.  Every
section's baseline -> now diff is printed.

Usage::

    python scripts/bench_compare.py              # run + compare
    python scripts/bench_compare.py --update     # run + rewrite baseline
    python scripts/bench_compare.py --json out.json --no-run  # compare only

Timings are host-dependent; regenerate the baseline (``--update``) when
benchmarking hardware changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

BASELINE_PATH = REPO_ROOT / "BENCH_BASELINE.json"
#: Benches guarded against regression (substring match on the test name).
GUARDED_SUBSTRING = "sweep"
#: Same-code runs on a shared 1-CPU container measure up to ~25 % apart
#: even after min-of-rounds and host-drift normalization, so the timing
#: gate only catches large regressions (lost dedupe/vectorization/cache
#: are all 2x+).  The load-invariant contracts — dedupe speedup >= 3x,
#: executed == distinct specs — are asserted inside the benches
#: themselves and fail the run directly.
DEFAULT_THRESHOLD = 0.50
#: Gates only a comparison against the baseline can apply, as
#: ``(section, field, rule, bound)`` rows.  ``timing`` judges the min
#: time of every bench whose name contains *field*, beyond the host
#: drift, against ``--threshold``; ``growth`` judges one recorded
#: field.  Both fail when the value grew by more than *bound*
#: or is missing from the run.  Allocation peaks are deterministic
#: (seeded run, tracemalloc), so the memory band only has to absorb
#: allocator/version noise, not host load.
GATES = (
    ("benchmarks", GUARDED_SUBSTRING, "timing", None),
    ("memory", "streaming_peak_bytes", "growth", 0.50),
)


def run_benchmarks(json_path: Path) -> None:
    """Run the benchmark suite, writing pytest-benchmark JSON output."""
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        "benchmarks/",
        "--benchmark-only",
        f"--benchmark-json={json_path}",
        "-q",
    ]
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    if result.returncode != 0:
        raise SystemExit(f"benchmark run failed (exit {result.returncode})")


def load_run(json_path: Path) -> tuple[dict[str, float], dict[str, dict]]:
    """(bench name -> min seconds, section -> recorded fields) of one run."""
    data = json.loads(json_path.read_text())
    times: dict[str, float] = {}
    sections: dict[str, dict] = {}
    for bench in data.get("benchmarks", []):
        times[bench["name"]] = float(bench["stats"]["min"])
        sections.update(bench.get("extra_info") or {})
    return times, sections


def write_baseline(times: dict[str, float], sections: dict[str, dict]) -> None:
    """Write the committed baseline file."""
    from repro.hardware.platform import DEFAULT_PLATFORM_ID

    payload = {
        "note": (
            "Benchmark baseline for scripts/bench_compare.py. Min seconds "
            "per bench; regenerate with --update when hardware changes."
        ),
        "machine": (
            f"{platform.platform()}, {os.cpu_count()} CPUs, "
            f"Python {platform.python_version()}"
        ),
        "platform": DEFAULT_PLATFORM_ID,
        "threshold": DEFAULT_THRESHOLD,
        "guarded_substring": GUARDED_SUBSTRING,
        **{name: sections[name] for name in sorted(sections)},
        "benchmarks": {name: {"min_s": value} for name, value in sorted(times.items())},
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"wrote {BASELINE_PATH} ({len(times)} benches; "
        f"sections: {', '.join(sorted(sections))})"
    )


def host_drift(deltas: dict[str, float]) -> float:
    """Median relative drift of the *unguarded* benches.

    Shared hosts slow the whole suite down together (CPU contention,
    thermal state); that uniform factor is not a code regression.  The
    unguarded benches act as the control group: their median drift
    estimates the host factor, and guarded benches are judged on drift
    *beyond* it.  A genuine sweep-path regression moves the guarded
    series away from the rest of the suite and still fails.
    """
    control = sorted(
        delta for name, delta in deltas.items() if GUARDED_SUBSTRING not in name
    )
    if not control:
        return 0.0
    mid = len(control) // 2
    if len(control) % 2:
        return control[mid]
    return (control[mid - 1] + control[mid]) / 2


def print_timings(
    base_times: dict[str, float], times: dict[str, float], drift: float, threshold: float
) -> None:
    """Print every bench's baseline -> now min time, drift-adjusted."""
    print(f"host drift (median of unguarded benches): {drift:+.0%}")
    print(f"{'bench':<42} {'base (s)':>10} {'now (s)':>10} {'delta':>8} {'adj':>8}")
    for name in sorted(set(base_times) | set(times)):
        base = base_times.get(name)
        now = times.get(name)
        if base is None:
            print(f"{name:<42} {'-':>10} {now:>10.4f}   (new)")
            continue
        if now is None:
            print(f"{name:<42} {base:>10.4f} {'-':>10}   (missing)")
            continue
        delta = now / base - 1.0
        adjusted = (1.0 + delta) / (1.0 + drift) - 1.0
        marker = ""
        if adjusted > threshold:
            guarded = GUARDED_SUBSTRING in name
            marker = " REGRESSION" if guarded else " (slower; unguarded)"
        print(
            f"{name:<42} {base:>10.4f} {now:>10.4f} {delta:>+7.0%} "
            f"{adjusted:>+7.0%}{marker}"
        )


def print_sections(base_sections: dict[str, dict], sections: dict[str, dict]) -> None:
    """Print every recorded section's baseline -> now field diff."""
    for name in [*base_sections, *(s for s in sections if s not in base_sections)]:
        base = base_sections.get(name, {})
        now = sections.get(name)
        if now is None:
            print(f"\n{name}: not recorded by this run")
            continue
        print(f"\n{name} (baseline -> now):")
        for key in sorted(set(base) | set(now)):
            base_v = base.get(key, "-")
            now_v = now.get(key, "-")
            changed = "" if base_v == now_v else "  (changed)"
            print(f"  {key:22s} {base_v!s:>12} -> {now_v!s:>12}{changed}")


def compare(
    times: dict[str, float],
    sections: dict[str, dict],
    threshold: float = DEFAULT_THRESHOLD,
) -> int:
    """Diff a run against the baseline and apply the gates; the exit code."""
    if not BASELINE_PATH.is_file():
        print(f"no baseline at {BASELINE_PATH}; run with --update to create one")
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())
    base_times = {
        name: entry["min_s"] for name, entry in baseline["benchmarks"].items()
    }
    base_sections = {
        name: fields
        for name, fields in baseline.items()
        if isinstance(fields, dict) and name != "benchmarks"
    }
    drift = host_drift(
        {
            name: times[name] / base - 1.0
            for name, base in base_times.items()
            if name in times
        }
    )
    print_timings(base_times, times, drift, threshold)
    print_sections(base_sections, sections)

    failures = [
        f"{name}: section missing from this run"
        for name in base_sections
        if name not in sections
    ]
    for section, field, rule, bound in GATES:
        if rule == "timing":
            base = {name: t for name, t in base_times.items() if field in name}
            now, factor, bound = times, 1.0 + drift, threshold
        else:
            base_value = base_sections.get(section, {}).get(field)
            base = {field: base_value} if base_value else {}
            now, factor = sections.get(section), 1.0
            if now is None:
                continue  # already failed as a missing section
        for key, base_value in base.items():
            if key not in now:
                failures.append(f"{section}: {key} missing from this run")
                continue
            growth = now[key] / base_value / factor - 1.0
            if growth > bound:
                failures.append(f"{section}: {key} grew {growth:+.0%} (> {bound:.0%})")
    if failures:
        print("\nbaseline gates failed:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("\nno guarded regressions")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite BENCH_BASELINE.json"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="drift-adjusted slowdown that fails a guarded bench (default 0.50)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="pytest-benchmark JSON file to reuse (skips running with --no-run)",
    )
    parser.add_argument(
        "--no-run",
        action="store_true",
        help="do not run the suite; requires --json",
    )
    args = parser.parse_args(argv)
    if args.no_run and args.json is None:
        parser.error("--no-run requires --json")

    with tempfile.TemporaryDirectory() as tmp:
        json_path = args.json or Path(tmp) / "bench.json"
        if not args.no_run:
            run_benchmarks(json_path)
        times, sections = load_run(json_path)
    if not times:
        print("no benchmark results found")
        return 1
    if args.update:
        write_baseline(times, sections)
        return 0
    return compare(times, sections, args.threshold)


if __name__ == "__main__":
    raise SystemExit(main())
