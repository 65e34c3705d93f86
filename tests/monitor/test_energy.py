"""Energy ledger: per-job accounts, attribution, report rendering."""

import pytest

from repro import obs
from repro.monitor import EnergyLedger, FleetMonitor, JobEnergyAccount
from repro.monitor.collector import JobMonitorPartial
from repro.monitor.health import CapUsage


def account(job_id="j", n_nodes=1, cap_w=200.0, start_s=0.0, end_s=1.0, **kw):
    return JobEnergyAccount(
        job_id=job_id, n_nodes=n_nodes, cap_w=cap_w, start_s=start_s, end_s=end_s, **kw
    )


class TestEnergyLedger:
    def test_account_from_partial(self):
        """The monitor builds a job's account from its probe partial."""
        monitor = FleetMonitor()
        monitor.absorb_job_partial(
            JobMonitorPartial(
                job_id="job1",
                n_nodes=2,
                cap_w=200.0,
                start_s=0.0,
                end_s=100.0,
                nominal_runtime_s=None,
                usage=CapUsage(gpu_seconds=800.0, cap_limited_s=200.0),
                energy_j=170_000.0,
                energy_samples=200,
                peak_node_w=900.0,
            )
        )
        (acct,) = monitor.ledger.accounts()
        assert acct.energy_j == pytest.approx(170_000.0)
        assert acct.runtime_s == 100.0
        assert acct.node_seconds == 200.0
        assert acct.mean_node_power_w == pytest.approx(850.0)
        assert acct.cap_residency == pytest.approx(0.25)
        assert acct.peak_node_w == 900.0
        assert acct.samples == 200

    def test_duplicate_open_rejected(self):
        ledger = EnergyLedger()
        ledger.add(account())
        with pytest.raises(ValueError, match="already"):
            ledger.add(account())

    def test_cap_slowdown_against_nominal(self):
        acct = account(cap_w=100.0, end_s=120.0, nominal_runtime_s=100.0)
        assert acct.cap_slowdown == pytest.approx(1.2)
        assert acct.cap_overhead_s == pytest.approx(20.0)

    def test_slowdown_unknown_defaults_to_one(self):
        acct = account(cap_w=400.0, end_s=50.0)
        assert acct.cap_slowdown == 1.0
        assert acct.cap_overhead_s == 0.0

    def test_slowdown_never_below_one(self):
        acct = account(cap_w=400.0, end_s=90.0, nominal_runtime_s=100.0)
        assert acct.cap_slowdown == 1.0

    def test_totals_and_ordering(self):
        ledger = EnergyLedger()
        ledger.add(account("late", start_s=50.0, end_s=60.0))
        ledger.add(account("early", n_nodes=2, start_s=0.0, end_s=10.0))
        assert [a.job_id for a in ledger.accounts()] == ["early", "late"]
        assert ledger.total_node_seconds == pytest.approx(30.0)
        assert ledger.to_json()["totals"]["jobs"] == 2

    def test_json_and_text_reports(self):
        ledger = EnergyLedger()
        ledger.add(account("j1", end_s=100.0, energy_j=50_000.0, samples=100))
        payload = ledger.to_json()
        assert payload["totals"]["jobs"] == 1
        assert payload["totals"]["energy_j"] == pytest.approx(50_000.0)
        assert payload["jobs"][0]["job_id"] == "j1"
        assert payload["jobs"][0]["mean_node_power_w"] == pytest.approx(500.0)
        text = ledger.render_text()
        assert "j1" in text
        assert "total: 1 jobs" in text

    def test_close_exports_obs_counters_once(self):
        obs.enable(metrics=True)
        ledger = EnergyLedger()
        ledger.add(account(n_nodes=2, end_s=10.0, energy_j=1000.0, samples=10))
        registry = obs.metrics()
        assert registry.get("repro_monitor_energy_joules_total").value() == 1000.0
        assert registry.get("repro_monitor_node_seconds_total").value() == 20.0
        assert registry.get("repro_monitor_jobs_closed_total").value() == 1.0
