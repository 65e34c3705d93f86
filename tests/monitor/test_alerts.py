"""Alert-rule lifecycle: debounce, hysteresis, obs export."""

from repro import obs
from repro.monitor import (
    RULES,
    SIGNAL_KINDS,
    AlertManager,
    HealthSignal,
)


def signal(kind="cap_violation", node="nid1", t=0.0, value=210.0):
    return HealthSignal(
        kind=kind, node_name=node, time_s=t, value=value, threshold=204.0
    )


class TestAlertRule:
    def test_default_rules_cover_every_kind(self):
        assert [rule.signal for rule in RULES] == list(SIGNAL_KINDS)


class TestAlertManager:
    def test_debounce_needs_consecutive_signals(self):
        """A cap violation fires on its node's second signal."""
        mgr = AlertManager()
        assert mgr.process(signal(t=0.0)) == []
        fired = mgr.process(signal(t=1.0))
        assert len(fired) == 1
        assert fired[0].event == "firing"
        assert fired[0].rule == "power-cap-violation"
        assert fired[0].time_s == 1.0
        assert mgr.firing_count == 1
        # Already firing: further signals emit no duplicate event.
        assert mgr.process(signal(t=2.0)) == []

    def test_streak_is_not_reset_between_sweeps(self):
        """Signals far apart still count toward one streak: only a sweep
        forgets it, and the fleet monitor sweeps once, at finalize."""
        mgr = AlertManager()
        assert mgr.process(signal(t=0.0)) == []
        assert len(mgr.process(signal(t=10_000.0))) == 1

    def test_per_node_state(self):
        mgr = AlertManager()
        mgr.process(signal(node="a", t=0.0))
        assert mgr.process(signal(node="b", t=0.5)) == []  # separate streak
        fired = mgr.process(signal(node="a", t=1.0))
        assert [e.node_name for e in fired] == ["a"]

    def test_hysteresis_resolves_after_quiet(self):
        """An idle outlier fires at once and resolves after 300 s quiet."""
        mgr = AlertManager()
        mgr.process(signal(kind="idle_outlier", t=0.0, value=380.0))
        assert mgr.firing_count == 1
        assert mgr.sweep(now_s=299.0) == []  # not quiet long enough
        resolved = mgr.sweep(now_s=300.0)
        assert len(resolved) == 1
        assert resolved[0].event == "resolved"
        assert resolved[0].rule == "idle-power-outlier"
        assert mgr.firing_count == 0
        # A fresh signal starts a new lifecycle.
        fired = mgr.process(signal(kind="idle_outlier", t=400.0, value=380.0))
        assert len(fired) == 1

    def test_sweep_expires_unfired_streaks(self):
        mgr = AlertManager()
        mgr.process(signal(t=0.0))
        mgr.sweep(now_s=100.0)  # 60 s quiet: streak forgotten
        assert mgr.process(signal(t=101.0)) == []  # needs 2 again
        assert len(mgr.process(signal(t=102.0))) == 1

    def test_exports_obs_metrics(self):
        obs.enable(metrics=True)
        mgr = AlertManager()
        mgr.process(signal(t=0.0))
        mgr.process(signal(t=1.0))
        registry = obs.metrics()
        assert registry.get("repro_monitor_alerts_total").value(severity="critical") == 1.0
        assert registry.get("repro_monitor_alerts_firing").value() == 1.0
        mgr.sweep(now_s=1000.0)
        assert registry.get("repro_monitor_alerts_firing").value() == 0.0
