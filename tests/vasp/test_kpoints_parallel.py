"""Unit tests for k-point meshes and the parallel decomposition."""

import pytest

from repro.vasp.kpoints import KpointMesh
from repro.vasp.parallel import CommunicationModel, ParallelConfig


class TestKpointMesh:
    def test_gamma_only(self):
        mesh = KpointMesh(1, 1, 1)
        assert mesh.total == 1
        assert mesh.irreducible == 1

    def test_444_mesh(self):
        mesh = KpointMesh(4, 4, 4)
        assert mesh.total == 64
        assert 1 < mesh.irreducible <= 64

    def test_kpoints_per_group(self):
        mesh = KpointMesh(4, 4, 4)
        assert mesh.kpoints_per_group(1) == mesh.irreducible
        assert mesh.kpoints_per_group(2) * 2 >= mesh.irreducible

    def test_kpar_exceeding_kpoints_rejected(self):
        with pytest.raises(ValueError):
            KpointMesh(1, 1, 1).kpoints_per_group(2)

    def test_rejects_bad_mesh(self):
        with pytest.raises(ValueError):
            KpointMesh(0, 1, 1)


class TestParallelConfig:
    def test_ranks_equal_gpus(self):
        config = ParallelConfig(n_nodes=4)
        assert config.total_ranks == 16

    def test_kpar_grouping(self):
        config = ParallelConfig(n_nodes=2, kpar=2)
        assert config.ranks_per_kgroup == 4

    def test_kpar_must_divide_ranks(self):
        with pytest.raises(ValueError):
            ParallelConfig(n_nodes=1, kpar=3)

    def test_bands_per_rank_ceil(self):
        config = ParallelConfig(n_nodes=1)
        assert config.bands_per_rank(640) == 160
        assert config.bands_per_rank(641) == 161

    def test_more_nodes_fewer_bands_per_rank(self):
        """The structural fact behind Section IV-C."""
        one = ParallelConfig(n_nodes=1).bands_per_rank(640)
        four = ParallelConfig(n_nodes=4).bands_per_rank(640)
        assert four == one // 4

    def test_with_nodes(self):
        config = ParallelConfig(n_nodes=1, kpar=2).with_nodes(4)
        assert config.n_nodes == 4
        assert config.kpar == 2


class TestCommunicationModel:
    def test_single_rank_is_free(self):
        comm = CommunicationModel()
        assert comm.allreduce_time_s(1e9, 1, 1) == 0.0
        assert comm.alltoall_time_s(1e9, 1, 1) == 0.0

    def test_allreduce_grows_with_bytes(self):
        comm = CommunicationModel()
        assert comm.allreduce_time_s(1e9, 8, 2) > comm.allreduce_time_s(1e6, 8, 2)

    def test_inter_node_slower_than_intra(self):
        comm = CommunicationModel()
        assert comm.allreduce_time_s(1e9, 8, 2) > comm.allreduce_time_s(1e9, 8, 1)

    def test_latency_term_grows_with_ranks(self):
        comm = CommunicationModel()
        assert comm.allreduce_time_s(0.0, 64, 2) > comm.allreduce_time_s(0.0, 8, 2)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            CommunicationModel().allreduce_time_s(-1.0, 4, 1)
