"""Unit tests for workload classification and the cap policy."""

import pytest

from repro.capping.policy import CapPolicy, WorkloadClass, classify_workload
from repro.vasp.benchmarks import benchmark
from repro.vasp.incar import Incar
from repro.vasp.methods import Algorithm


class TestClassifyWorkload:
    def test_hse_is_higher_order(self):
        incar = Incar(lhfcalc=True, algo=Algorithm.DAMPED)
        assert classify_workload(incar) is WorkloadClass.HIGHER_ORDER

    def test_rpa_is_higher_order(self):
        assert (
            classify_workload(benchmark("Si128_acfdtr").build())
            is WorkloadClass.HIGHER_ORDER
        )

    def test_dft_and_vdw_are_basic(self):
        assert classify_workload(benchmark("PdO4").build()) is WorkloadClass.BASIC_DFT
        assert classify_workload(benchmark("CuC_vdw").build()) is WorkloadClass.BASIC_DFT

    def test_classification_needs_only_incar(self):
        """The scheduler's 'no costly computation' property."""
        for name in ("Si256_hse", "PdO2"):
            workload = benchmark(name).build()
            assert classify_workload(workload.incar) is classify_workload(workload)


class TestCapPolicy:
    def test_half_tdp_default(self):
        policy = CapPolicy.half_tdp()
        assert policy.cap_for(benchmark("Si256_hse").build()) == 200.0
        assert policy.cap_for(benchmark("PdO4").build()) == 200.0

    def test_uncapped_policy(self):
        policy = CapPolicy.uncapped()
        assert policy.cap_for(benchmark("Si256_hse").build()) == 400.0

    def test_custom_caps(self):
        policy = CapPolicy(
            caps_w={WorkloadClass.HIGHER_ORDER: 300.0, WorkloadClass.BASIC_DFT: 150.0}
        )
        assert policy.cap_for(benchmark("Si256_hse").build()) == 300.0
        assert policy.cap_for(benchmark("PdO2").build()) == 150.0

    def test_validates_cap_range(self):
        with pytest.raises(ValueError):
            CapPolicy(
                caps_w={WorkloadClass.HIGHER_ORDER: 50.0, WorkloadClass.BASIC_DFT: 200.0}
            )
