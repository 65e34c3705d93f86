"""Unit tests for structures and silicon supercells."""

import numpy as np
import pytest

from repro.vasp.poscar import SILICON_A0, Structure, silicon_supercell


class TestSiliconSupercell:
    def test_atom_counts(self):
        assert silicon_supercell(1).n_atoms == 8
        assert silicon_supercell(2).n_atoms == 64
        assert silicon_supercell(4, 4, 2).n_atoms == 256

    def test_vacancy(self):
        cell = silicon_supercell(4, 4, 2, vacancies=1)
        assert cell.n_atoms == 255
        assert cell.n_electrons() == 1020  # Table I's Si256_hse

    def test_si128(self):
        cell = silicon_supercell(2, 2, 4)
        assert cell.n_atoms == 128
        assert cell.n_electrons() == 512  # Table I's Si128_acfdtr

    def test_lattice_lengths(self):
        cell = silicon_supercell(2, 3, 4)
        np.testing.assert_allclose(
            cell.lattice_lengths, [2 * SILICON_A0, 3 * SILICON_A0, 4 * SILICON_A0]
        )

    def test_positions_in_unit_cell(self):
        cell = silicon_supercell(3)
        assert np.all(cell.frac_positions >= 0.0)
        assert np.all(cell.frac_positions < 1.0)

    def test_positions_distinct(self):
        cell = silicon_supercell(2)
        rounded = {tuple(np.round(p, 6)) for p in cell.frac_positions}
        assert len(rounded) == cell.n_atoms

    def test_density_is_silicon(self):
        """8 atoms per (5.43 A)^3 — diamond silicon's number density."""
        cell = silicon_supercell(2)
        density = cell.n_atoms / cell.volume
        assert density == pytest.approx(8.0 / SILICON_A0**3, rel=1e-9)

    def test_rejects_bad_multipliers(self):
        with pytest.raises(ValueError):
            silicon_supercell(0)

    def test_rejects_too_many_vacancies(self):
        with pytest.raises(ValueError):
            silicon_supercell(1, vacancies=8)


class TestStructure:
    def test_volume(self):
        s = Structure(
            lattice=np.diag([2.0, 3.0, 4.0]),
            species=["Si"],
            frac_positions=np.array([[0.0, 0.0, 0.0]]),
        )
        assert s.volume == pytest.approx(24.0)

    def test_electron_counting(self):
        s = Structure(
            lattice=np.eye(3) * 5,
            species=["Pd", "O", "O"],
            frac_positions=np.zeros((3, 3)),
        )
        assert s.n_electrons() == 10 + 6 + 6

    def test_unknown_element_raises(self):
        s = Structure(
            lattice=np.eye(3) * 5,
            species=["Xx"],
            frac_positions=np.zeros((1, 3)),
        )
        with pytest.raises(KeyError, match="Xx"):
            s.n_electrons()

    def test_rejects_singular_lattice(self):
        with pytest.raises(ValueError):
            Structure(
                lattice=np.zeros((3, 3)),
                species=["Si"],
                frac_positions=np.zeros((1, 3)),
            )

    def test_rejects_mismatched_positions(self):
        with pytest.raises(ValueError):
            Structure(
                lattice=np.eye(3),
                species=["Si", "Si"],
                frac_positions=np.zeros((1, 3)),
            )
