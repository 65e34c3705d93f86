"""Per-job energy accounting from streamed telemetry.

The paper reports energy-to-solution per workload (Figs 7, 8) and the
scheduling study's payoff rests on knowing what each job *costs* the
facility.  This module is the accounting layer a production OMNI
deployment would run: each job's monitor probe sums the joules of its
streamed node-power chunks and the cap-limited residency of its GPU
chunks, the monitor turns that into one :class:`JobEnergyAccount` per
job, and the ledger of accounts renders as a text or JSON "power
report" plus ``repro.obs`` metrics.

Cap-induced slowdown is estimated by comparing the job's scheduled
runtime against the analytic uncapped estimate
(:func:`repro.capping.scheduler.estimate_run` at ``cap=None``) — the
same deterministic estimator the scheduler itself uses, so the
attribution is consistent with the admission decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs


@dataclass(frozen=True)
class JobEnergyAccount:
    """Energy and throttle attribution for one finished job."""

    job_id: str
    n_nodes: int
    cap_w: float
    start_s: float
    end_s: float
    #: Analytic runtime the job would have had uncapped (None = unknown).
    nominal_runtime_s: float | None = None
    energy_j: float = 0.0
    samples: int = 0
    gpu_seconds: float = 0.0
    cap_limited_s: float = 0.0
    peak_node_w: float = 0.0

    @property
    def runtime_s(self) -> float:
        """Scheduled wall time of the job."""
        return self.end_s - self.start_s

    @property
    def node_seconds(self) -> float:
        """Node-seconds the job occupied."""
        return self.runtime_s * self.n_nodes

    @property
    def mean_node_power_w(self) -> float:
        """Mean per-node power over the job, from deposited energy."""
        return self.energy_j / self.node_seconds if self.node_seconds > 0 else 0.0

    @property
    def cap_residency(self) -> float:
        """Fraction of GPU time spent pinned at the power cap."""
        return self.cap_limited_s / self.gpu_seconds if self.gpu_seconds > 0 else 0.0

    @property
    def cap_slowdown(self) -> float:
        """Estimated cap-induced slowdown (>= 1.0; 1.0 when unknown)."""
        if not self.nominal_runtime_s or self.nominal_runtime_s <= 0:
            return 1.0
        return max(self.runtime_s / self.nominal_runtime_s, 1.0)

    @property
    def cap_overhead_s(self) -> float:
        """Wall time attributed to running under the cap."""
        if not self.nominal_runtime_s:
            return 0.0
        return max(self.runtime_s - self.nominal_runtime_s, 0.0)

    def to_json(self) -> dict[str, object]:
        """JSON-ready row for the power report."""
        return {
            "job_id": self.job_id,
            "n_nodes": self.n_nodes,
            "cap_w": self.cap_w,
            "start_s": round(self.start_s, 3),
            "runtime_s": round(self.runtime_s, 3),
            "node_seconds": round(self.node_seconds, 3),
            "energy_j": round(self.energy_j, 3),
            "mean_node_power_w": round(self.mean_node_power_w, 3),
            "peak_node_power_w": round(self.peak_node_w, 3),
            "cap_residency": round(self.cap_residency, 6),
            "cap_slowdown": round(self.cap_slowdown, 6),
            "cap_overhead_s": round(self.cap_overhead_s, 3),
        }


class EnergyLedger:
    """The job accounts of one monitored fleet."""

    def __init__(self) -> None:
        self._accounts: dict[str, JobEnergyAccount] = {}

    def add(self, account: JobEnergyAccount) -> None:
        """Enter a finished job's account and export it as obs metrics."""
        if account.job_id in self._accounts:
            raise ValueError(f"job {account.job_id!r} already has an account")
        self._accounts[account.job_id] = account
        obs.inc("repro_monitor_energy_joules_total", account.energy_j)
        obs.inc("repro_monitor_node_seconds_total", account.node_seconds)
        obs.inc("repro_monitor_cap_limited_seconds_total", account.cap_limited_s)
        obs.inc("repro_monitor_jobs_closed_total")

    def accounts(self) -> list[JobEnergyAccount]:
        """All accounts, ordered by start time then job id."""
        return sorted(
            self._accounts.values(), key=lambda a: (a.start_s, a.job_id)
        )

    # ------------------------------------------------------------------
    @property
    def total_energy_j(self) -> float:
        """Joules deposited across every account."""
        return sum(a.energy_j for a in self._accounts.values())

    @property
    def total_node_seconds(self) -> float:
        """Node-seconds across every account."""
        return sum(a.node_seconds for a in self._accounts.values())

    @property
    def total_cap_limited_s(self) -> float:
        """Cap-limited GPU-seconds across every account."""
        return sum(a.cap_limited_s for a in self._accounts.values())

    @property
    def total_cap_overhead_s(self) -> float:
        """Wall seconds attributed to cap-induced slowdown, summed."""
        return sum(a.cap_overhead_s for a in self._accounts.values())

    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, object]:
        """The whole ledger as JSON-ready data."""
        return {
            "jobs": [a.to_json() for a in self.accounts()],
            "totals": {
                "jobs": len(self._accounts),
                "energy_j": round(self.total_energy_j, 3),
                "energy_mj": round(self.total_energy_j / 1e6, 6),
                "node_seconds": round(self.total_node_seconds, 3),
                "cap_limited_seconds": round(self.total_cap_limited_s, 3),
                "cap_overhead_seconds": round(self.total_cap_overhead_s, 3),
            },
        }

    def render_text(self) -> str:
        """The per-job power report as an aligned text table."""
        header = (
            f"{'job':<22} {'nodes':>5} {'cap(W)':>7} {'runtime(s)':>11} "
            f"{'energy(MJ)':>11} {'mean(W)':>8} {'cap-res':>8} {'slowdown':>9}"
        )
        lines = [header, "-" * len(header)]
        for a in self.accounts():
            lines.append(
                f"{a.job_id:<22} {a.n_nodes:>5d} {a.cap_w:>7.0f} "
                f"{a.runtime_s:>11.0f} {a.energy_j / 1e6:>11.3f} "
                f"{a.mean_node_power_w:>8.0f} {a.cap_residency:>7.1%} "
                f"{a.cap_slowdown:>8.2f}x"
            )
        lines.append(
            f"total: {len(self._accounts)} jobs, "
            f"{self.total_energy_j / 1e6:.2f} MJ, "
            f"{self.total_node_seconds:,.0f} node-seconds, "
            f"{self.total_cap_limited_s:,.0f} cap-limited GPU-seconds, "
            f"{self.total_cap_overhead_s:,.0f} s cap overhead"
        )
        return "\n".join(lines)
