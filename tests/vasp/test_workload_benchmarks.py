"""Unit tests for VaspWorkload assembly and the benchmark suite."""

import pytest

from repro.vasp.benchmarks import (
    BENCHMARKS,
    SILICON_SIZES,
    benchmark,
    benchmark_names,
    generic_structure,
    silicon_workload,
)
from repro.vasp.methods import Algorithm, Functional
from repro.vasp.parallel import ParallelConfig
from repro.vasp.phases import MacroPhase

#: Table I's published values: (electrons, ions, NBANDS or None, NPLWV).
TABLE1 = {
    "Si256_hse": (1020, 255, 640, 512000),
    "B.hR105_hse": (315, 105, 256, 110592),
    "PdO4": (3288, 348, 2048, 518400),
    "PdO2": (1644, 174, 1024, 259200),
    "GaAsBi-64": (266, 64, 192, 343000),
    "CuC_vdw": (1064, 98, 640, 1029000),
    "Si128_acfdtr": (512, 128, None, 216000),
}


class TestBenchmarkSuite:
    def test_seven_benchmarks(self):
        assert len(BENCHMARKS) == 7
        assert benchmark_names() == list(TABLE1)

    @pytest.mark.parametrize("name", list(TABLE1))
    def test_table1_parameters(self, name):
        electrons, ions, nbands, nplwv = TABLE1[name]
        workload = benchmark(name).build()
        assert workload.nelect == pytest.approx(electrons)
        assert workload.structure.n_atoms == ions
        if nbands is not None:
            assert workload.nbands == nbands
        assert workload.nplwv == nplwv

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            benchmark("Si512_mp2")

    def test_functional_classes(self):
        assert benchmark("Si256_hse").build().incar.functional is Functional.HSE
        assert benchmark("PdO4").build().incar.functional is Functional.LDA
        assert benchmark("GaAsBi-64").build().incar.functional is Functional.GGA
        assert benchmark("CuC_vdw").build().incar.functional is Functional.VDW
        assert benchmark("Si128_acfdtr").build().incar.functional is Functional.ACFDT_RPA

    def test_gaasbi_uses_kpar2(self):
        workload = benchmark("GaAsBi-64").build()
        assert workload.incar.kpar == 2
        assert workload.kpoints.total == 64

    def test_optimal_nodes_within_sweep(self):
        for case in BENCHMARKS.values():
            assert case.optimal_nodes in case.node_counts

    def test_phases_buildable_everywhere(self):
        for case in BENCHMARKS.values():
            workload = case.build()
            phases = workload.phases(ParallelConfig(1, kpar=workload.incar.kpar))
            assert len(phases) > 2
            assert all(isinstance(p, MacroPhase) for p in phases)


class TestWorkloadDerivations:
    def test_nbands_default_used_when_unset(self):
        workload = silicon_workload(64, "dft_normal")
        assert workload.nbands == 160  # 256/2 + 64/2 = 160

    def test_with_nplwv_override(self):
        base = benchmark("Si256_hse").build()
        variant = base.with_nplwv(216000)
        assert variant.nplwv == 216000
        assert base.nplwv == 512000

    def test_with_nbands_override(self):
        variant = benchmark("Si256_hse").build().with_nbands(1024)
        assert variant.nbands == 1024

    def test_override_validation(self):
        base = benchmark("Si256_hse").build()
        with pytest.raises(ValueError):
            base.with_nplwv(0)
        with pytest.raises(ValueError):
            base.with_nbands(-4)

    def test_uncapped_runtime_positive(self):
        assert benchmark("PdO2").build().uncapped_runtime_s() > 0


class TestSiliconWorkloads:
    def test_sizes_match_multipliers(self):
        for atoms, mult in SILICON_SIZES.items():
            assert 8 * mult[0] * mult[1] * mult[2] == atoms

    def test_method_selection(self):
        hse = silicon_workload(128, "hse")
        assert hse.incar.functional is Functional.HSE
        assert hse.incar.algo is Algorithm.DAMPED
        rpa = silicon_workload(128, "acfdtr")
        assert rpa.incar.algo is Algorithm.ACFDTR

    def test_unknown_size_or_method(self):
        with pytest.raises(ValueError, match="silicon size"):
            silicon_workload(100, "dft_normal")
        with pytest.raises(ValueError, match="method"):
            silicon_workload(128, "coupled_cluster")

    def test_nplwv_grows_with_size(self):
        small = silicon_workload(64, "dft_normal").nplwv
        large = silicon_workload(512, "dft_normal").nplwv
        assert large > 4 * small


class TestGenericStructure:
    def test_composition(self):
        s = generic_structure({"Pd": 3, "O": 2}, (10.0, 10.0, 10.0))
        assert s.species == ["Pd", "Pd", "Pd", "O", "O"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generic_structure({}, (10.0, 10.0, 10.0))
