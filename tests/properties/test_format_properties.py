"""Property-based tests for k-point meshes and KPAR groups."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vasp.kpoints import KpointMesh


class TestKpointGroups:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_group_coverage(self, n1, n2, n3, kpar):
        """Every irreducible k-point is covered by some group."""
        mesh = KpointMesh(n1, n2, n3)
        if kpar > mesh.irreducible:
            return
        per_group = mesh.kpoints_per_group(kpar)
        assert per_group * kpar >= mesh.irreducible
        assert per_group <= mesh.irreducible
