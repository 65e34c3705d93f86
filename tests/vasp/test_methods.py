"""Tests for method/algorithm enumeration and labels."""

from repro.vasp.methods import (
    FIG9_METHODS,
    Algorithm,
    Functional,
    method_label,
)


class TestFunctional:
    def test_higher_order_split(self):
        assert Functional.HSE.is_higher_order
        assert Functional.ACFDT_RPA.is_higher_order
        for f in (Functional.LDA, Functional.GGA, Functional.VDW):
            assert not f.is_higher_order


class TestFig9Methods:
    def test_seven_methods(self):
        assert len(FIG9_METHODS) == 7

    def test_labels_roundtrip(self):
        for label, (functional, algo) in FIG9_METHODS.items():
            assert method_label(functional, algo) == label

    def test_fallback_labels(self):
        assert method_label(Functional.LDA, Algorithm.NORMAL) == "dft_normal"
        assert method_label(Functional.HSE, Algorithm.NORMAL) == "hse"

    def test_higher_order_methods_present(self):
        assert FIG9_METHODS["hse"][0] is Functional.HSE
        assert FIG9_METHODS["acfdtr"][1] is Algorithm.ACFDTR
