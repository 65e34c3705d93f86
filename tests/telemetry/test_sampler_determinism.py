"""Drop-pattern determinism of the LDMS sampler.

The sampler's per-(node, component) stream seed must not depend on the
interpreter's hash randomization: the drop pattern has to reproduce
across processes, pool workers and PYTHONHASHSEED values.
"""

import os
import subprocess
import sys

import numpy as np

from repro.runner.trace import COMPONENT_KEYS, PowerTrace
from repro.telemetry.sampler import LdmsSampler, SamplerConfig

_CHILD_SCRIPT = """
import numpy as np
from repro.runner.trace import COMPONENT_KEYS, PowerTrace
from repro.telemetry.sampler import LdmsSampler, SamplerConfig

times = (np.arange(600) + 0.5) * 0.1
components = {key: 100.0 + 10.0 * np.sin(times) for key in COMPONENT_KEYS}
components["node"] = 900.0 + 10.0 * np.sin(times)
trace = PowerTrace.from_components("nid001234", times, components)
sampler = LdmsSampler(SamplerConfig(seed=3))
series = sampler.sample(trace, "node")
print(",".join(f"{t:.6f}" for t in series.times))
"""


def make_trace(node_name="nid001234"):
    times = (np.arange(600) + 0.5) * 0.1
    components = {key: 100.0 + 10.0 * np.sin(times) for key in COMPONENT_KEYS}
    components["node"] = 900.0 + 10.0 * np.sin(times)
    return PowerTrace.from_components(node_name, times, components)


def sample_in_subprocess(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    result = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


class TestDropPatternDeterminism:
    def test_same_process_repeatable(self):
        sampler = LdmsSampler(SamplerConfig(seed=3))
        a = sampler.sample(make_trace(), "node")
        b = sampler.sample(make_trace(), "node")
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.values, b.values)

    def test_streams_differ_by_node(self):
        sampler = LdmsSampler(SamplerConfig(seed=3))
        a = sampler.sample(make_trace("nid001234"), "node")
        b = sampler.sample(make_trace("nid005678"), "node")
        assert not np.array_equal(a.times, b.times)

    def test_stable_across_hash_randomization(self):
        first = sample_in_subprocess("1")
        second = sample_in_subprocess("2")
        assert first == second
        # And the parent process (whatever its hash seed) agrees too.
        sampler = LdmsSampler(SamplerConfig(seed=3))
        series = sampler.sample(make_trace(), "node")
        assert ",".join(f"{t:.6f}" for t in series.times) == first

    def test_gap_bound_holds_on_adversarial_drops(self):
        cfg = SamplerConfig(drop_probability=0.9, seed=11)
        sampler = LdmsSampler(cfg)
        series = sampler.sample(make_trace(), "node")
        assert series.max_gap_s <= cfg.max_gap_s + 1e-9
