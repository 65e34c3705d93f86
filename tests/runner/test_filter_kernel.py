"""The engine's AR(1) filter: scipy's compiled kernel, without scipy.signal.

The engine loads ``scipy.signal._sigtools`` directly and calls its
``_linear_filter``, the C routine ``scipy.signal.lfilter`` hands a
two-tap denominator to.  These tests pin that kernel to ``lfilter`` bit
for bit, whole and chunked, and pin what importing and running the
engine loads of scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

import repro
from repro.hardware.node import GpuNode
from repro.runner import engine as engine_module
from repro.runner.engine import EngineConfig, PowerEngine

SRC = Path(repro.__file__).resolve().parent.parent

LENGTHS = (1, 747, 4110, 16384)
COEFFS = (0.0, 0.85)


def _white(n: int, seed: int = 5) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n) * 7.5


def _coefficients(coeff: float) -> tuple[np.ndarray, np.ndarray]:
    return np.ones(1), np.array([1.0, -coeff])


def _uneven_splits(n: int) -> list[int]:
    """Chunk boundaries of growing, unequal sizes covering ``[0, n)``."""
    edges, size = [0], 1
    while edges[-1] < n:
        edges.append(min(edges[-1] + size, n))
        size = size * 3 + 2
    return edges


@pytest.mark.parametrize("coeff", COEFFS)
@pytest.mark.parametrize("n", LENGTHS)
def test_kernel_equals_lfilter(n, coeff):
    b, a = _coefficients(coeff)
    white = _white(n)
    zi = np.array([0.3])
    want, want_zf = lfilter([1.0], [1.0, -coeff], white, zi=zi)
    got, got_zf = engine_module._linear_filter()(b, a, white, -1, zi)
    assert got.tobytes() == want.tobytes()
    assert got_zf.tobytes() == want_zf.tobytes()


@pytest.mark.parametrize("coeff", COEFFS)
@pytest.mark.parametrize("n", LENGTHS)
def test_state_carried_across_uneven_chunks(n, coeff):
    b, a = _coefficients(coeff)
    white = _white(n, seed=n)
    whole, whole_zf = lfilter([1.0], [1.0, -coeff], white, zi=np.zeros(1))
    edges = _uneven_splits(n)
    zi = np.zeros(1)
    pieces = []
    for start, stop in zip(edges, edges[1:]):
        piece, zi = engine_module._linear_filter()(b, a, white[start:stop], -1, zi)
        pieces.append(piece)
    assert np.concatenate(pieces).tobytes() == whole.tobytes()
    assert zi.tobytes() == whole_zf.tobytes()


@pytest.mark.parametrize("coeff", COEFFS)
def test_engine_noise_equals_lfilter_reference(coeff):
    """``_add_noise_chunk`` is the lfilter formula, sample for sample."""
    config = EngineConfig(noise_ar_coeff=coeff)
    engine = PowerEngine([GpuNode("nid000001")], config)
    means = np.repeat([80.0, 310.0, 120.0], [200, 347, 200])
    zi = np.array([1.25])
    got, got_zf = engine._add_noise_chunk(means, np.random.default_rng(3), zi)

    rng = np.random.default_rng(3)
    sigma = config.noise_rel_sigma * means + config.noise_floor_w
    white = rng.standard_normal(len(means)) * sigma
    ar, want_zf = lfilter([1.0], [1.0, -coeff], white, zi=zi)
    ar *= np.sqrt(1.0 - coeff**2)
    assert got.tobytes() == np.maximum(means + ar, 0.0).tobytes()
    assert got_zf.tobytes() == want_zf.tobytes()


_PROBE = """
import sys
import repro.cli
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
from repro.hardware.node import GpuNode
from repro.perfmodel.kernels import KernelCatalogue
from repro.runner.engine import PowerEngine
from repro.vasp.phases import MacroPhase
phase = MacroPhase(name="xc", duration_s=3.0, gpu_profile=KernelCatalogue.DGEMM_TEST)
PowerEngine([GpuNode("nid000001")]).run([phase], seed=1)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
kernel = sys.modules["scipy.signal._sigtools"]
import scipy.signal._signaltools
print(scipy.signal._signaltools._sigtools is kernel)
"""


def test_import_loads_no_scipy_and_a_run_loads_only_the_kernel(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    after_import, after_run, reused = proc.stdout.splitlines()
    assert after_import == "[]"
    assert after_run == "['scipy.signal._sigtools']"
    # A later scipy.signal import shares the kernel module the engine loaded.
    assert reused == "True"


def test_missing_kernel_raises_import_error_naming_scipy():
    name = "scipy.signal._no_such_kernel"
    with pytest.raises(ImportError, match=r"scipy \d") as excinfo:
        engine_module._load_compiled(name)
    assert excinfo.value.name == name
    assert name not in sys.modules
