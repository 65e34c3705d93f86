"""The entry points the end-to-end benchmark harness drives.

``benchmarks/e2e`` runs the fleet workloads through two doors: it
swaps ``repro.cli.compare_fleet_policies_traced`` for a capturing
wrapper around ``repro fleet``, and it calls
``compare_fleet_policies_traced`` directly with a scenario.  Both then
digest the reports' fields.  These cheap checks keep that contract in
the tier-1 suite, so a refactor that breaks it fails here rather than
only in the bench stage.
"""

import dataclasses

import repro.cli
from repro.capping.fleet import compare_fleet_policies_traced
from repro.capping.scenarios import get_scenario
from repro.runner.engine import EngineConfig

#: Report fields the harness digests.
REPORT_FIELDS = (
    "policy_name",
    "jobs_completed",
    "makespan_s",
    "node_power_mean_w",
    "node_power_std_w",
    "node_power_peak_w",
    "samples_streamed",
    "chunks_streamed",
    "bytes_streamed",
)
SYSTEM_FIELDS = ("mean_power_w", "peak_power_w", "power_std_w", "energy_j", "n_bins")


def _check_reports(capped, uncapped):
    for report in (capped, uncapped):
        for name in REPORT_FIELDS:
            assert hasattr(report, name), name
        for name in SYSTEM_FIELDS:
            assert hasattr(report.system, name), name
        assert [(r.job_id, r.start_s, r.end_s, r.cap_w) for r in report.schedule.records]
    assert capped.jobs_completed == uncapped.jobs_completed


def test_cli_fleet_calls_the_module_global(monkeypatch, capsys):
    captured = []
    original = repro.cli.compare_fleet_policies_traced

    def capture(*args, **kwargs):
        reports = original(*args, **kwargs)
        captured.append(reports)
        return reports

    monkeypatch.setattr(repro.cli, "compare_fleet_policies_traced", capture)
    code = repro.cli.main(["fleet", "--jobs", "2", "--nodes", "4", "--resolution", "1.0"])
    capsys.readouterr()
    assert code == 0
    assert len(captured) == 1
    _check_reports(*captured[0])


def test_scenario_keywords_accepted():
    scenario = dataclasses.replace(get_scenario("steady-mixed"), n_jobs=4, n_nodes=8)
    capped, uncapped = compare_fleet_policies_traced(
        n_nodes=scenario.n_nodes,
        seed=0,
        engine_config=EngineConfig(base_interval_s=1.0),
        platform=scenario.platforms[0],
        node_platforms=list(scenario.platforms),
        workers=1,
        scenario=scenario,
    )
    _check_reports(capped, uncapped)
    assert capped.jobs_completed == 4
