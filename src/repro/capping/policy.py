"""Cap policies from application power profiles.

Section VI-A: "VASP can run at only 50 % of TDP with a less than 10 %
performance decrease, and the lower power-demanding jobs, DFT functional
calculations, can run without visible performance loss at this power
limit.  The batch system ... can determine the workload type of VASP jobs
in the queue without costly computation."

:func:`classify_workload` is that cheap determination (it reads INCAR
tags, which the scheduler can see); :class:`CapPolicy` maps classes to
GPU power caps.
"""

from __future__ import annotations

import enum
import itertools
import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.hardware.platform import Platform, applied_cap_w, get_platform
from repro.vasp.incar import Incar
from repro.vasp.workload import VaspWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.prediction.model import TwoStageSurrogate

logger = logging.getLogger(__name__)


class WorkloadClass(enum.Enum):
    """Power classes of workloads, from the paper's findings."""

    #: Higher-order methods (HSE, RPA): power-hungry, cap-sensitive.
    HIGHER_ORDER = "higher_order"
    #: Basic DFT functional calculations (incl. vdW): moderate power,
    #: nearly cap-insensitive.
    BASIC_DFT = "basic_dft"
    #: Not classifiable from the inputs: an unregistered workload type,
    #: or a registered model that declines to pick a power class.
    #: Policies treat OTHER fail-safe (no cap; see :meth:`CapPolicy.cap_for`).
    OTHER = "other"


def classify_workload(source: "Incar | object") -> WorkloadClass:
    """Classify a job from scheduler-visible inputs (no costly computation).

    VASP jobs classify from the INCAR alone, exactly as before — pass the
    :class:`~repro.vasp.incar.Incar` or the full workload.  Any other
    workload classifies through its registered
    :class:`~repro.workloads.registry.WorkloadModel` hint (the model's
    ``classifier``/``class_hint``); workload types the registry does not
    know fall back to :attr:`WorkloadClass.OTHER` instead of raising.
    """
    incar = source.incar if isinstance(source, VaspWorkload) else source
    if isinstance(incar, Incar):
        if incar.functional.is_higher_order:
            return WorkloadClass.HIGHER_ORDER
        return WorkloadClass.BASIC_DFT
    from repro.workloads import model_for

    model = model_for(source)
    if model is None:
        return WorkloadClass.OTHER
    return WorkloadClass(model.classify(source))


def _default_caps(platform: "str | Platform | None" = None) -> dict[WorkloadClass, float]:
    half_tdp = get_platform(platform).gpu.tdp_w / 2.0
    return {
        WorkloadClass.HIGHER_ORDER: half_tdp,  # <10 % loss (Fig 12)
        WorkloadClass.BASIC_DFT: half_tdp,  # no visible loss (Fig 12)
    }


@dataclass
class CapPolicy:
    """Workload class -> GPU power cap, with an uncapped escape hatch.

    Caps are validated against (and the 50 %-of-TDP defaults derived
    from) ``platform``'s GPU spec; None means the registry default.
    """

    caps_w: dict[WorkloadClass, float] | None = None
    enabled: bool = True
    platform: "str | Platform | None" = None

    def __post_init__(self) -> None:
        spec = get_platform(self.platform).gpu
        if self.caps_w is None:
            self.caps_w = _default_caps(self.platform)
        for cap in self.caps_w.values():
            applied_cap_w(spec, cap)

    def cap_for(self, source: "Incar | object") -> float:
        """The GPU power limit this policy applies to a job.

        Classes without an assigned cap — notably
        :attr:`WorkloadClass.OTHER` under the default two-class caps —
        run uncapped (platform TDP): an unknown workload must never be
        throttled by a policy that knows nothing about it.
        """
        if not self.enabled:
            return get_platform(self.platform).gpu.tdp_w
        assert self.caps_w is not None
        cls = classify_workload(source)
        cap = self.caps_w.get(cls)
        if cap is None:
            return get_platform(self.platform).gpu.tdp_w
        return cap

    @classmethod
    def uncapped(cls, platform: "str | Platform | None" = None) -> "CapPolicy":
        """The do-nothing baseline policy."""
        return cls(enabled=False, platform=platform)

    @classmethod
    def half_tdp(cls, platform: "str | Platform | None" = None) -> "CapPolicy":
        """The paper's recommended 50 %-of-TDP policy."""
        return cls(platform=platform)


# ---------------------------------------------------------------------------
# Cap-policy search (surrogate fast path, exact winner verification)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateOutcome:
    """One evaluated candidate policy: its caps, objective and feasibility."""

    cap_higher_w: float
    cap_dft_w: float
    #: Total energy over the workload set (per-node energy x nodes), J.
    energy_j: float
    #: Worst per-workload cap-induced slowdown under this policy.
    max_slowdown: float

    def feasible(self, slowdown_limit: float) -> bool:
        """Whether the worst slowdown stays inside the limit."""
        return self.max_slowdown <= slowdown_limit + 1e-9


@dataclass
class CapPolicySearchResult:
    """Outcome of a cap-policy search over a candidate grid.

    When the search ran on the surrogate, the winner's objective is
    re-simulated exactly (the verify-the-winner contract) and
    ``verification_error`` reports how far the fast path was off —
    candidates that lost are never re-simulated, which is where the
    speedup comes from.
    """

    best_policy: CapPolicy
    best: CandidateOutcome
    outcomes: list[CandidateOutcome]
    slowdown_limit: float
    used_surrogate: bool
    #: Surrogate predictions served / engine fallbacks during the search.
    predictions: int = 0
    fallbacks: int = 0
    #: The winner's objective re-simulated exactly (surrogate runs only).
    exact_energy_j: float | None = None
    exact_max_slowdown: float | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def verification_error(self) -> float | None:
        """Relative surrogate-vs-exact error on the winner's objective."""
        if self.exact_energy_j is None or not self.used_surrogate:
            return None
        return abs(self.best.energy_j - self.exact_energy_j) / self.exact_energy_j


def _pair_key(workload: "object", n_nodes: int) -> tuple[str, int]:
    return (workload.name, n_nodes)


def _exact_table(
    pairs: "Sequence[tuple[object, int]]",
    caps: Sequence[float],
    platform: "str | Platform | None",
    seed: int,
) -> dict[tuple[str, int, float | None], tuple[float, float]]:
    """Engine truth for every (workload, nodes) x (caps + uncapped) point.

    Returns (energy-per-node J, slowdown) per point, computed through the
    sweep executor — candidates sharing a cap for a class share these
    engine runs, and the uncapped baseline is one run per pair.
    """
    from repro.runner.sweep import RunSpec, SweepExecutor

    plat = get_platform(platform)
    cap_grid: list[float | None] = [None] + list(dict.fromkeys(caps))
    specs = [
        RunSpec(
            workload=workload,
            n_nodes=n_nodes,
            gpu_cap_w=cap_w,
            seed=seed,
            platform=plat.id,
        )
        for workload, n_nodes in pairs
        for cap_w in cap_grid
    ]
    results = SweepExecutor().run(specs)
    table: dict[tuple[str, int, float | None], tuple[float, float]] = {}
    measured = {}
    index = 0
    for workload, n_nodes in pairs:
        for cap_w in cap_grid:
            measured[(workload.name, n_nodes, cap_w)] = results[index]
            index += 1
    for workload, n_nodes in pairs:
        baseline = measured[(workload.name, n_nodes, None)]
        for cap_w in cap_grid:
            run = measured[(workload.name, n_nodes, cap_w)]
            table[(workload.name, n_nodes, cap_w)] = (
                run.result.total_energy_j() / n_nodes,
                run.runtime_s / baseline.runtime_s,
            )
    return table


def search_cap_policy(
    pairs: "Sequence[tuple[object, int]]",
    caps_w: Sequence[float],
    platform: "str | Platform | None" = None,
    slowdown_limit: float = 1.25,
    surrogate: "TwoStageSurrogate | None" = None,
    seed: int = 7,
) -> CapPolicySearchResult:
    """Search per-class cap assignments for the lowest-energy policy.

    Candidates are the cross product of ``caps_w`` over the two workload
    classes.  A candidate's objective is the total energy-to-solution of
    the (workload, node count) set under its caps; candidates whose worst
    cap-induced slowdown exceeds ``slowdown_limit`` are infeasible (when
    nothing is feasible, the least-slow candidate wins and a note says
    so).

    With ``surrogate`` set, every candidate point is predicted instead of
    simulated (out-of-envelope predictions fall back to the engine
    per-point), and only the winning policy is re-simulated exactly —
    the fast path evaluates ``caps^2`` candidates for the engine cost of
    roughly one.

    Non-VASP workloads from the registry zoo participate through their
    registered class hints; pairs that classify as
    :attr:`WorkloadClass.OTHER` share the basic-DFT cap axis during the
    search, and the winning policy then carries an explicit OTHER cap so
    :meth:`CapPolicy.cap_for` applies what the search scored (VASP-only
    searches produce exactly the two-class policy they always did).
    """
    if not pairs:
        raise ValueError("need at least one (workload, n_nodes) pair")
    caps = list(dict.fromkeys(caps_w))
    if not caps:
        raise ValueError("need at least one candidate cap")
    plat = get_platform(platform)
    for cap in caps:
        applied_cap_w(plat.gpu, cap)

    classes = {
        _pair_key(workload, n_nodes): classify_workload(workload)
        for workload, n_nodes in pairs
    }

    predictions = 0
    fallbacks = 0
    notes: list[str] = []

    with obs.span(
        "capping.search_cap_policy",
        candidates=len(caps) ** 2,
        pairs=len(pairs),
        surrogate=surrogate is not None,
    ):
        # Per-point measurements for every candidate cap (plus uncapped).
        if surrogate is None:
            table = _exact_table(pairs, caps, plat, seed)
        else:
            table = {}
            exact_pairs: list[tuple[VaspWorkload, int]] = []
            seen_pairs: set[tuple[str, int]] = set()
            exact_caps: set[float] = set()
            for workload, n_nodes in pairs:
                for cap_w in caps:
                    prediction = surrogate.predict(workload, n_nodes, cap_w, plat.id)
                    predictions += 1
                    if prediction.in_envelope:
                        table[(workload.name, n_nodes, cap_w)] = (
                            prediction.energy_per_node_j,
                            prediction.slowdown,
                        )
                    else:
                        fallbacks += 1
                        if (workload.name, n_nodes) not in seen_pairs:
                            seen_pairs.add((workload.name, n_nodes))
                            exact_pairs.append((workload, n_nodes))
                        exact_caps.add(cap_w)
            if exact_pairs:
                notes.append(
                    f"{fallbacks} out-of-envelope point(s) re-simulated exactly"
                )
                exact = _exact_table(exact_pairs, sorted(exact_caps), plat, seed)
                for key, value in exact.items():
                    if key[2] is not None:
                        table[key] = value

        # Score every candidate from the point table.
        outcomes: list[CandidateOutcome] = []
        for cap_higher, cap_dft in itertools.product(caps, repeat=2):
            energy = 0.0
            worst = 1.0
            for workload, n_nodes in pairs:
                cls = classes[_pair_key(workload, n_nodes)]
                cap = cap_higher if cls is WorkloadClass.HIGHER_ORDER else cap_dft
                energy_per_node, slowdown = table[(workload.name, n_nodes, cap)]
                energy += energy_per_node * n_nodes
                worst = max(worst, slowdown)
            outcomes.append(
                CandidateOutcome(
                    cap_higher_w=cap_higher,
                    cap_dft_w=cap_dft,
                    energy_j=energy,
                    max_slowdown=worst,
                )
            )

        feasible = [o for o in outcomes if o.feasible(slowdown_limit)]
        if feasible:
            best = min(feasible, key=lambda o: o.energy_j)
        else:
            best = min(outcomes, key=lambda o: o.max_slowdown)
            notes.append(
                f"no candidate met the {slowdown_limit:.2f}x slowdown limit; "
                f"picked the least-slow one"
            )
        winner_caps_w = {
            WorkloadClass.HIGHER_ORDER: best.cap_higher_w,
            WorkloadClass.BASIC_DFT: best.cap_dft_w,
        }
        if any(cls is WorkloadClass.OTHER for cls in classes.values()):
            # OTHER pairs were scored on the DFT axis; pin that cap so the
            # resulting policy applies it instead of the TDP fallback.
            winner_caps_w[WorkloadClass.OTHER] = best.cap_dft_w
        best_policy = CapPolicy(caps_w=winner_caps_w, platform=plat)

        # Verify the winner: re-simulate only the winning policy exactly.
        exact_energy: float | None = None
        exact_worst: float | None = None
        if surrogate is not None:
            winner_caps = sorted({best.cap_higher_w, best.cap_dft_w})
            exact = _exact_table(pairs, winner_caps, plat, seed)
            exact_energy = 0.0
            exact_worst = 1.0
            for workload, n_nodes in pairs:
                cls = classes[_pair_key(workload, n_nodes)]
                cap = (
                    best.cap_higher_w
                    if cls is WorkloadClass.HIGHER_ORDER
                    else best.cap_dft_w
                )
                energy_per_node, slowdown = exact[(workload.name, n_nodes, cap)]
                exact_energy += energy_per_node * n_nodes
                exact_worst = max(exact_worst, slowdown)

    result = CapPolicySearchResult(
        best_policy=best_policy,
        best=best,
        outcomes=outcomes,
        slowdown_limit=slowdown_limit,
        used_surrogate=surrogate is not None,
        predictions=predictions,
        fallbacks=fallbacks,
        exact_energy_j=exact_energy,
        exact_max_slowdown=exact_worst,
        notes=notes,
    )
    error = result.verification_error
    if error is not None:
        from repro.prediction.model import surrogate_stats

        surrogate_stats().record_verification(error)
        logger.debug(
            "cap-policy search winner verified: %.1f%% surrogate error",
            100.0 * error,
        )
    return result
