"""Unit tests for INCAR validation and functional inference."""

import pytest

from repro.vasp.incar import Incar
from repro.vasp.methods import Algorithm, Functional


class TestValidation:
    def test_rejects_nonpositive_encut(self):
        with pytest.raises(ValueError):
            Incar(encut_ev=0.0)

    def test_rejects_hse_with_rmm(self):
        """VASP refuses LHFCALC with ALGO=VeryFast; so do we."""
        with pytest.raises(ValueError):
            Incar(lhfcalc=True, algo=Algorithm.VERYFAST)

    def test_accepts_hse_with_damped(self):
        incar = Incar(lhfcalc=True, algo=Algorithm.DAMPED)
        assert incar.functional is Functional.HSE

    def test_rejects_bad_kpar(self):
        with pytest.raises(ValueError):
            Incar(kpar=0)


class TestFunctionalInference:
    def test_default_is_gga(self):
        assert Incar().functional is Functional.GGA

    def test_lda_via_gga_tag(self):
        assert Incar(extra={"GGA": "CA"}).functional is Functional.LDA

    def test_vdw(self):
        assert Incar(ivdw=11).functional is Functional.VDW

    def test_acfdtr(self):
        assert Incar(algo=Algorithm.ACFDTR).functional is Functional.ACFDT_RPA
