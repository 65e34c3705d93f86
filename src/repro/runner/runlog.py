"""OUTCAR-flavoured run summaries: the facts of a simulated run.

VASP users read timings from the OUTCAR's ``LOOP+`` lines and the final
``Total CPU time used``; power analysts join those against telemetry by
timestamp.  :func:`summarize_run` collects the same facts for a
simulated run — phase-level timings, cap state, energy — and
``repro run`` records them as run-ledger fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runner.trace import RunResult


@dataclass(frozen=True)
class RunLogSummary:
    """The facts of one run: label, layout, cap, runtime, energy, phases."""

    label: str
    n_nodes: int
    gpu_power_cap_w: float
    runtime_s: float
    total_energy_j: float
    #: phase name -> (occurrences, total seconds)
    phase_times: dict[str, tuple[int, float]]

    @property
    def loop_time_s(self) -> float:
        """Total time across phases (the OUTCAR 'LOOP+' analogue)."""
        return sum(seconds for _, seconds in self.phase_times.values())

    def ledger_fields(self) -> dict[str, object]:
        """The summary as run-ledger ``metrics`` fields (``repro runs``)."""
        return {
            "runtime_s": round(self.runtime_s, 6),
            "energy_j": round(self.total_energy_j, 6),
            "cap_w": self.gpu_power_cap_w,
            "nodes": self.n_nodes,
            "phases": len(self.phase_times),
        }


def summarize_run(result: RunResult) -> RunLogSummary:
    """Summarize a run: per-phase call counts and seconds, totals."""
    phase_times: dict[str, tuple[int, float]] = {}
    for record in result.phases:
        count, seconds = phase_times.get(record.name, (0, 0.0))
        phase_times[record.name] = (count + 1, seconds + record.duration_s)
    return RunLogSummary(
        label=result.label,
        n_nodes=result.n_nodes,
        gpu_power_cap_w=result.gpu_power_cap_w,
        runtime_s=result.runtime_s,
        total_energy_j=result.total_energy_j(),
        phase_times=phase_times,
    )
