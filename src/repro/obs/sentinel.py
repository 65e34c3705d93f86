"""Ledger-mining regression sentinel: record -> detect, not just record.

The run ledger (:mod:`repro.obs.ledger`) accumulates per-run outcomes in
``.repro_runs/`` — wall time, energy, cache effectiveness, surrogate
verification errors — but until now nothing *analyzed* that history.
This module closes the loop the way the paper's methodology watches
power signals over time (LDMS archives, §III): every config fingerprint
becomes a time series, each series gets a **robust baseline**
(median/MAD — a single noisy run cannot move it), and the sentinel
judges new runs against those baselines instead of against the single
best historical point.

Three analyses, all advisory by default and CI-gateable via exit code:

* **regression check** (:func:`check_target`) — is this run slower /
  less cached / less accurate than its comparable history?  A wall-time
  (or hit-rate, or drift) excursion must clear *both* a relative
  tolerance over the median and a ``Z_GATE``-sigma robust z-score, so
  jitter-only history stays green while a genuine 2x regression flags
  no matter how quiet the history was.
* **change-point detection** (:func:`detect_change_point`) — where in a
  series did the level shift?  Single split-point binary segmentation
  over the robust z-statistic: cheap, deterministic, and enough to say
  "wall time stepped +80 % four runs ago" in ``repro sentinel report``.
* **surrogate drift** — ``verification_error`` records (the
  verify-the-winner contract of :mod:`repro.prediction`) are mined
  across the history; when the recent mean error exceeds the held-out
  accuracy gate the surrogate has drifted from the engine and needs
  retraining.

``repro sentinel check`` is the one regression gate over the ledger.
Everything here is stdlib + the ledger — no numpy, so the sentinel can
run in CI before anything heavy imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median as _median
from typing import Any, Iterable

from repro.obs.ledger import RunRecord

#: Relative wall-time (etc.) tolerance over the baseline median.
DEFAULT_TOLERANCE = 0.25
#: Comparable runs required before the sentinel will judge a series.
DEFAULT_MIN_HISTORY = 2
#: Surrogate drift gate: recent mean verification error above this
#: means the surrogate no longer tracks the engine.  Mirrors the
#: held-out MAPE ceiling in ``benchmarks/test_surrogate_bench.py``
#: (``MAPE_CEILING``) — the accuracy the store was admitted at.
DEFAULT_DRIFT_GATE = 0.25
#: Relative energy tolerance: the engine is bit-deterministic per
#: config, so anything beyond float noise is a determinism break.
ENERGY_REL_TOL = 1e-9
#: Robust z-score a point must exceed (as well as the tolerance) to
#: count as a regression — keeps noisy-history tolerances honest.
Z_GATE = 3.0
#: Robust z-statistic a mean shift must reach to report a change point.
CHANGE_Z_GATE = 4.0
#: MAD -> sigma scale for normally-distributed noise.
MAD_SIGMA = 1.4826
#: Verification errors folded into the "recent drift" mean.
DRIFT_WINDOW = 3


# ----------------------------------------------------------------------
# Robust statistics
# ----------------------------------------------------------------------
def robust_stats(values: "Iterable[float]") -> tuple[float, float]:
    """(median, robust sigma) of a series.

    Sigma is the scaled median absolute deviation — one wild outlier
    moves it far less than a standard deviation, which is the point:
    baselines must survive the occasional host-noise-inflated run.
    """
    data = [float(v) for v in values]
    if not data:
        return 0.0, 0.0
    center = _median(data)
    mad = _median([abs(v - center) for v in data])
    return center, MAD_SIGMA * mad


def robust_zscore(value: float, center: float, sigma: float) -> float:
    """|value - center| in robust sigmas (inf when sigma is 0 and the
    value moved at all — identical history makes any change significant)."""
    delta = abs(value - center)
    if sigma > 0.0:
        return delta / sigma
    return float("inf") if delta > 0.0 else 0.0


@dataclass(frozen=True)
class ChangePoint:
    """A detected level shift inside one series."""

    #: First index of the *after* segment.
    index: int
    before_median: float
    after_median: float
    #: Robust z-statistic of the shift.
    zscore: float

    @property
    def shift(self) -> float:
        """Relative level change (after vs before; 0 when before is 0)."""
        if self.before_median == 0.0:
            return 0.0
        return self.after_median / self.before_median - 1.0


def detect_change_point(
    values: "Iterable[float]",
    *,
    min_segment: int = 3,
    z_gate: float = CHANGE_Z_GATE,
    min_shift: float = 0.10,
) -> ChangePoint | None:
    """Single most-significant level shift in a series, or None.

    Binary segmentation with one split: every cut leaving at least
    ``min_segment`` points on each side is scored by the difference of
    segment medians in units of the robust sigma of the *residuals
    around each segment's own median* (the whole-series sigma would be
    inflated by the very step being tested, hiding even a clean level
    shift); the best cut is reported when it clears ``z_gate`` *and* a
    ``min_shift`` relative change (a statistically-loud but
    practically-tiny shift is noise, not news).  O(n^2) medians —
    ledgers are hundreds of runs, not millions of samples.
    """
    data = [float(v) for v in values]
    if len(data) < 2 * min_segment:
        return None
    best: ChangePoint | None = None
    for cut in range(min_segment, len(data) - min_segment + 1):
        before, _ = robust_stats(data[:cut])
        after, _ = robust_stats(data[cut:])
        delta = abs(after - before)
        residuals = [abs(v - before) for v in data[:cut]]
        residuals += [abs(v - after) for v in data[cut:]]
        sigma = MAD_SIGMA * _median(residuals)
        if sigma > 0.0:
            z = delta / sigma
        else:
            # Perfectly-flat segments: any step at all is significant.
            z = float("inf") if delta > 0.0 else 0.0
        if best is None or z > best.zscore:
            best = ChangePoint(
                index=cut, before_median=before, after_median=after, zscore=z
            )
    if best is None or best.zscore < z_gate or abs(best.shift) < min_shift:
        return None
    return best


# ----------------------------------------------------------------------
# Series extraction from ledger records
# ----------------------------------------------------------------------
def _cache_hit_rates(record: RunRecord) -> dict[str, float]:
    """``{cache_name: hit_rate}`` recorded on one run (may be empty)."""
    rates: dict[str, float] = {}
    for name, stats in (record.cache or {}).items():
        rate = stats.get("hit_rate") if isinstance(stats, dict) else None
        if isinstance(rate, (int, float)):
            rates[name] = float(rate)
    return rates


def verification_error(record: RunRecord) -> float | None:
    """The surrogate-vs-exact error a run recorded, if any.

    ``cap-sweep --surrogate`` and the cap-policy search annotate
    ``metrics.winner_verification_error``; ``predict --exact`` annotates
    ``metrics.exact_energy_error``.  Either one is a drift observation.
    """
    metrics = record.metrics or {}
    for key in ("winner_verification_error", "exact_energy_error"):
        value = metrics.get(key)
        if isinstance(value, (int, float)):
            return float(value)
    return None


def comparable_history(
    records: "list[RunRecord]", target: RunRecord
) -> list[RunRecord]:
    """Prior ``ok`` runs sharing the target's config fingerprint,
    oldest first (the target itself excluded)."""
    if target.fingerprint is None:
        return []
    return [
        r
        for r in records
        if r.run_id != target.run_id
        and r.status == "ok"
        and r.fingerprint == target.fingerprint
    ]


# ----------------------------------------------------------------------
# The check (CI-gateable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Finding:
    """One sentinel judgement against a run."""

    #: ``regression`` | ``determinism`` | ``drift``
    category: str
    #: Which mined series fired (``wall_s``, ``cache.run.hit_rate``, ...).
    series: str
    message: str

    def __str__(self) -> str:  # findings print directly in CLI output
        return self.message


def _exceeds(
    value: float,
    center: float,
    sigma: float,
    tolerance: float,
    *,
    direction: int,
) -> bool:
    """True when ``value`` regressed past the baseline.

    ``direction`` +1 flags increases (wall time, error), -1 flags
    decreases (cache hit rate).  Both the relative tolerance and the
    robust z-gate must fire: tolerance alone would page on noisy
    history, the z-gate alone would page on microscopic shifts of a
    perfectly-quiet series.
    """
    delta = direction * (value - center)
    if delta <= abs(center) * tolerance:
        return False
    return robust_zscore(value, center, sigma) > Z_GATE


def check_target(
    records: "list[RunRecord]",
    target: RunRecord,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    min_history: int = DEFAULT_MIN_HISTORY,
    drift_gate: float = DEFAULT_DRIFT_GATE,
    energy_rel_tol: float = ENERGY_REL_TOL,
) -> tuple[list[Finding], int]:
    """Judge ``target`` against its comparable ledger history.

    Returns (findings, history size).  With fewer than ``min_history``
    comparable runs only the determinism check runs — a median of one
    point is not a baseline.  Checks:

    * **wall time** — above the history median by more than
      ``tolerance`` *and* ``Z_GATE`` robust sigmas;
    * **energy determinism** — same fingerprint must reproduce the same
      joules to ``energy_rel_tol`` relative (vs the most recent
      comparable run; needs only one prior run);
    * **cache hit rate** — per-cache rate below the baseline by the
      same two-sided rule;
    * **surrogate drift** — the mean of the last ``DRIFT_WINDOW``
      verification errors (target included) exceeds ``drift_gate``.
    """
    history = comparable_history(records, target)
    findings: list[Finding] = []
    if not history:
        return findings, 0

    # Energy determinism: a single prior run suffices — the engine is
    # bit-deterministic, so this is not a statistical judgement.
    priors = [r for r in history if r.energy_j is not None]
    if priors and target.energy_j is not None:
        prior = priors[-1]
        scale = max(abs(prior.energy_j), abs(target.energy_j), 1.0)
        if abs(target.energy_j - prior.energy_j) / scale > energy_rel_tol:
            findings.append(
                Finding(
                    "determinism",
                    "energy_j",
                    f"energy {target.energy_j:.3f} J diverged from run "
                    f"{prior.run_id} ({prior.energy_j:.3f} J) under the "
                    "same config fingerprint — determinism drift",
                )
            )

    if len(history) >= min_history:
        walls = [r.wall_s for r in history if r.wall_s]
        if walls and target.wall_s:
            center, sigma = robust_stats(walls)
            if _exceeds(target.wall_s, center, sigma, tolerance, direction=+1):
                findings.append(
                    Finding(
                        "regression",
                        "wall_s",
                        f"wall time {target.wall_s:.3g} s is "
                        f"{target.wall_s / center - 1.0:+.0%} vs the "
                        f"baseline median of {len(walls)} comparable "
                        f"run(s) ({center:.3g} s ± {sigma:.2g}; "
                        f"tolerance {tolerance:+.0%})",
                    )
                )
        target_rates = _cache_hit_rates(target)
        for name, rate in sorted(target_rates.items()):
            series = [
                rates[name]
                for rates in (_cache_hit_rates(r) for r in history)
                if name in rates
            ]
            if len(series) < min_history:
                continue
            center, sigma = robust_stats(series)
            if _exceeds(rate, center, sigma, tolerance, direction=-1):
                findings.append(
                    Finding(
                        "regression",
                        f"cache.{name}.hit_rate",
                        f"cache '{name}' hit rate {rate:.1%} fell below "
                        f"its baseline median {center:.1%} "
                        f"(± {sigma:.3f}) — caching effectiveness "
                        "regressed",
                    )
                )

    # Surrogate drift: recent mean verification error vs the held-out
    # gate the store was admitted at.  Judged whenever the target
    # carries an error — drift is about the surrogate, not the history
    # depth.
    target_error = verification_error(target)
    if target_error is not None:
        errors = [
            e
            for e in (verification_error(r) for r in history)
            if e is not None
        ]
        recent = (errors + [target_error])[-DRIFT_WINDOW:]
        mean_recent = sum(recent) / len(recent)
        if mean_recent > drift_gate:
            findings.append(
                Finding(
                    "drift",
                    "verification_error",
                    f"surrogate drift: mean verification error "
                    f"{mean_recent:.1%} over the last {len(recent)} "
                    f"verified run(s) exceeds the held-out gate "
                    f"{drift_gate:.0%} — retrain the surrogate "
                    "(delete the store or rebuild the corpus)",
                )
            )
    return findings, len(history)


# ----------------------------------------------------------------------
# Baselines and the fleet-wide report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Baseline:
    """The robust baseline of one config fingerprint's history."""

    fingerprint: str
    kind: str
    label: str
    runs: int
    wall_median_s: float | None
    wall_sigma_s: float | None
    energy_j: float | None
    hit_rates: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "label": self.label,
            "runs": self.runs,
            "wall_median_s": (
                round(self.wall_median_s, 4)
                if self.wall_median_s is not None
                else None
            ),
            "wall_sigma_s": (
                round(self.wall_sigma_s, 4)
                if self.wall_sigma_s is not None
                else None
            ),
            "energy_j": self.energy_j,
            "hit_rates": {k: round(v, 4) for k, v in self.hit_rates.items()},
        }


def group_by_fingerprint(
    records: "list[RunRecord]",
) -> dict[str, list[RunRecord]]:
    """``ok`` records bucketed by config fingerprint, ledger order kept."""
    groups: dict[str, list[RunRecord]] = {}
    for record in records:
        if record.status != "ok" or record.fingerprint is None:
            continue
        groups.setdefault(record.fingerprint, []).append(record)
    return groups


def compute_baselines(records: "list[RunRecord]") -> list[Baseline]:
    """One :class:`Baseline` per config fingerprint, most-run first."""
    baselines = []
    for fingerprint, group in group_by_fingerprint(records).items():
        walls = [r.wall_s for r in group if r.wall_s]
        center, sigma = robust_stats(walls) if walls else (None, None)
        energies = [r.energy_j for r in group if r.energy_j is not None]
        rate_series: dict[str, list[float]] = {}
        for record in group:
            for name, rate in _cache_hit_rates(record).items():
                rate_series.setdefault(name, []).append(rate)
        last = group[-1]
        baselines.append(
            Baseline(
                fingerprint=fingerprint,
                kind=last.kind,
                label=last.label,
                runs=len(group),
                wall_median_s=center,
                wall_sigma_s=sigma,
                energy_j=energies[-1] if energies else None,
                hit_rates={
                    name: robust_stats(series)[0]
                    for name, series in sorted(rate_series.items())
                },
            )
        )
    baselines.sort(key=lambda b: (-b.runs, b.kind, b.fingerprint))
    return baselines


@dataclass(frozen=True)
class ReportRow:
    """One fingerprint's health line in ``repro sentinel report``."""

    baseline: Baseline
    latest_wall_s: float | None
    change_point: ChangePoint | None
    findings: list[Finding]

    @property
    def verdict(self) -> str:
        if self.findings:
            return "REGRESSED"
        if self.change_point is not None:
            return "shifted"
        return "ok"

    def to_json(self) -> dict[str, Any]:
        data = self.baseline.to_json()
        data["latest_wall_s"] = (
            round(self.latest_wall_s, 4) if self.latest_wall_s is not None else None
        )
        data["verdict"] = self.verdict
        data["findings"] = [f.message for f in self.findings]
        if self.change_point is not None:
            data["change_point"] = {
                "index": self.change_point.index,
                "before_median": round(self.change_point.before_median, 4),
                "after_median": round(self.change_point.after_median, 4),
                "shift": round(self.change_point.shift, 4),
                "zscore": (
                    round(self.change_point.zscore, 2)
                    if self.change_point.zscore != float("inf")
                    else "inf"
                ),
            }
        else:
            data["change_point"] = None
        return data


def build_report(
    records: "list[RunRecord]",
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    min_history: int = DEFAULT_MIN_HISTORY,
    drift_gate: float = DEFAULT_DRIFT_GATE,
    kind: str | None = None,
) -> list[ReportRow]:
    """Sentinel health of every fingerprint: baseline, shift, verdict.

    Each group's most recent run is checked against the rest of its
    history (exactly what ``sentinel check`` would do run-by-run), and
    the wall-time series is scanned for a change point.
    """
    rows = []
    for baseline in compute_baselines(records):
        if kind is not None and baseline.kind != kind:
            continue
        group = group_by_fingerprint(records)[baseline.fingerprint]
        target = group[-1]
        findings, _ = check_target(
            records,
            target,
            tolerance=tolerance,
            min_history=min_history,
            drift_gate=drift_gate,
        )
        walls = [r.wall_s for r in group if r.wall_s]
        rows.append(
            ReportRow(
                baseline=baseline,
                latest_wall_s=target.wall_s,
                change_point=detect_change_point(walls),
                findings=findings,
            )
        )
    return rows
