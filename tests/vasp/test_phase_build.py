"""The SCF phase build models each iteration recipe once and repeats it.

:func:`reference_build` is the builder's former loop: every SCF
iteration (and every RPA frequency point) modelled afresh.  The
repeated-recipe build must give an ``==`` list and an identical
:class:`PhaseTable` for every registry VASP benchmark at each of its
default widths, and model each distinct recipe once per build.
"""

import numpy as np
import pytest

from repro.perfmodel.kernels import GpuKernelProfile, KernelCatalogue
from repro.vasp.benchmarks import BENCHMARKS, silicon_workload
from repro.vasp.methods import Algorithm, Functional
from repro.vasp.parallel import layout_for
from repro.vasp.phases import MacroPhase, PhaseTable
from repro.vasp.scf import ScfPhaseBuilder
from repro.workloads.registry import resolve_widths


def reference_acfdtr(builder):
    """The RPA pipeline with every iteration and frequency point rebuilt."""
    import math

    spec, costs = builder.spec, builder.costs
    phases = []
    for _ in range(max(8, spec.nelm // 2)):
        phases.extend(builder._dft_iteration(Algorithm.NORMAL))
    n_exact = spec.nbandsexact if spec.nbandsexact is not None else spec.nbands * 8
    diag_flops = costs.host_diag_flops_scale * float(n_exact) ** 3
    phases.append(
        MacroPhase(
            name="exact_diag_host",
            duration_s=diag_flops / costs.cpu_effective_flops / builder.parallel.n_nodes,
            gpu_profile=KernelCatalogue.HOST_SECTION,
            cpu_utilization=0.85,
            mem_bw_utilization=0.55,
        )
    )
    chi_profile = GpuKernelProfile(
        name="rpa_chi0_gemm",
        compute_utilization=0.95,
        memory_utilization=0.55,
        compute_fraction=0.60,
    )
    per_pair = 5.0 * spec.nplwv * math.log2(max(spec.nplwv, 2))
    for _ in range(costs.rpa_freq_points):
        chi_flops = (
            costs.rpa_pair_scale
            * spec.n_occupied
            * float(n_exact)
            * per_pair
            / builder.ranks_per_kgroup
        )
        phases.append(
            builder._gpu_phase(
                "rpa_chi0_gemm",
                chi_profile,
                costs.batch_rpa,
                chi_flops,
                chi_flops / 40.0,
                duty=costs.duty_exchange,
                time_efficiency=costs.time_eff_rpa_fft,
                cpu_utilization=0.12,
            )
        )
        fft_flops, fft_bytes = builder._fft_volume(2.0)
        phases.append(
            builder._gpu_phase(
                "rpa_fft",
                KernelCatalogue.FFT_BATCHED,
                costs.batch_fft,
                fft_flops,
                fft_bytes,
                time_efficiency=builder._fft_time_efficiency(),
            )
        )
        phases.append(
            builder._comm_phase(builder._comm_time_per_iter() + 3.0, "rpa_comm")
        )
    return phases


def reference_build(builder):
    """The phase sequence with every SCF iteration modelled afresh."""
    spec = builder.spec
    phases = [
        MacroPhase(
            name="startup",
            duration_s=builder.costs.startup_s,
            gpu_profile=KernelCatalogue.HOST_SECTION,
            cpu_utilization=0.35,
            mem_bw_utilization=0.25,
        )
    ]
    if spec.algo is Algorithm.ACFDTR:
        phases.extend(reference_acfdtr(builder))
    elif spec.functional is Functional.HSE:
        for _ in range(spec.nelm):
            phases.extend(builder._hse_iteration())
    elif spec.algo is Algorithm.FAST:
        n_davidson = max(spec.nelmdl, 5)
        for _ in range(min(n_davidson, spec.nelm)):
            phases.extend(builder._dft_iteration(Algorithm.NORMAL))
        for _ in range(max(spec.nelm - n_davidson, 0)):
            phases.extend(builder._dft_iteration(Algorithm.VERYFAST))
    else:
        for _ in range(spec.nelm):
            iteration = builder._dft_iteration(spec.algo)
            if spec.functional is Functional.VDW:
                iteration.append(builder._vdw_phase())
            phases.extend(iteration)
    phases.append(
        MacroPhase(
            name="finalize",
            duration_s=builder.costs.finalize_s,
            gpu_profile=KernelCatalogue.HOST_SECTION,
            cpu_utilization=0.30,
            mem_bw_utilization=0.30,
        )
    )
    return phases


def builder_for(workload, n_nodes):
    """The builder the phase store uses for ``workload`` at ``n_nodes``."""
    return ScfPhaseBuilder(
        workload.spec(), layout_for(workload, n_nodes), None, workload.costs
    )


REGISTRY_CASES = [
    (name, n_nodes) for name in sorted(BENCHMARKS) for n_nodes in resolve_widths(name)
]


def branch(spec):
    """The build branch a spec takes."""
    if spec.algo is Algorithm.ACFDTR:
        return "ACFDTR"
    if spec.functional is Functional.HSE:
        return "HSE"
    if spec.algo is Algorithm.FAST:
        return "FAST"
    if spec.functional is Functional.VDW:
        return "VDW"
    return "DFT"


def test_registry_covers_every_branch():
    branches = {branch(BENCHMARKS[name].build().spec()) for name, _ in REGISTRY_CASES}
    assert branches == {"ACFDTR", "HSE", "FAST", "VDW", "DFT"}


@pytest.mark.parametrize(
    "name, n_nodes", REGISTRY_CASES, ids=[f"{n}@{w}" for n, w in REGISTRY_CASES]
)
def test_registry_build_equals_reference(name, n_nodes):
    builder = builder_for(BENCHMARKS[name].build(), n_nodes)
    built = builder.build()
    reference = reference_build(builder)
    assert built == reference
    table, ref_table = PhaseTable.build(built), PhaseTable.build(reference)
    assert np.array_equal(table.inputs, ref_table.inputs)
    assert np.array_equal(table.row_of_phase, ref_table.row_of_phase)
    assert np.array_equal(table.durations, ref_table.durations)


@pytest.mark.parametrize("method", ["dft_normal", "dft_all", "dft_fast", "vdw"])
def test_silicon_family_build_equals_reference(method):
    workload = silicon_workload(64, method, nelm=4)
    for n_nodes in (1, 2):
        builder = builder_for(workload, n_nodes)
        assert builder.build() == reference_build(builder)


RECIPES = ("_dft_iteration", "_hse_iteration", "_vdw_phase", "_gpu_phase")


@pytest.fixture
def recipe_calls(monkeypatch):
    """Counts of the builder's recipe calls, by method name."""
    calls = dict.fromkeys(RECIPES, 0)
    for method in RECIPES:
        original = getattr(ScfPhaseBuilder, method)

        def counted(self, *args, _original=original, _method=method, **kwargs):
            calls[_method] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(ScfPhaseBuilder, method, counted)
    return calls


#: Per build: (DFT iterations, HSE iterations, VDW phases, GPU phases).
#: An iteration recipe holds 3 GPU phases; an RPA frequency point 2.
EXPECTED_CALLS = {
    "DFT": (1, 0, 0, 3),
    "VDW": (1, 0, 1, 3),
    "FAST": (2, 0, 0, 6),
    "HSE": (0, 1, 0, 3),
    "ACFDTR": (1, 0, 0, 5),
}


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_each_iteration_recipe_is_modelled_once_per_build(name, recipe_calls):
    workload = BENCHMARKS[name].build()
    builder = builder_for(workload, 1)
    phases = builder.build()
    expected = EXPECTED_CALLS[branch(workload.spec())]
    assert tuple(recipe_calls[method] for method in RECIPES) == expected
    # The iterations are repeated, not rebuilt: far fewer phase objects
    # than phases.
    assert len({id(phase) for phase in phases}) < len(phases) // 10
