"""Unit tests for the unified collective backend."""

import numpy as np
import pytest

from repro.collectives.api import Collective, CollectiveBackend
from repro.collectives.ops import MeanOp, SumOp
from repro.collectives.allgather import allgather, allgather_concat
from repro.collectives.parameter_server import ParameterServer
from repro.collectives.ring import ring_reduce_scatter
from repro.simulator.cluster import paper_testbed


class TestCollectiveEnum:
    def test_allreduce_flags(self):
        assert Collective.RING_ALLREDUCE.is_allreduce
        assert Collective.TREE_ALLREDUCE.is_allreduce
        assert not Collective.ALLGATHER.is_allreduce
        assert not Collective.PARAMETER_SERVER.is_allreduce


class TestBackendAllReduce:
    def test_ring_matches_mean(self, backend, worker_gradients, true_mean):
        result = backend.allreduce(
            worker_gradients, wire_bits_per_value=32, op=MeanOp()
        )
        np.testing.assert_allclose(result.aggregate, true_mean, rtol=1e-4, atol=1e-5)
        assert result.cost.seconds > 0
        assert result.gathered is None

    def test_tree_collective(self, backend, worker_gradients):
        result = backend.allreduce(
            worker_gradients,
            wire_bits_per_value=16,
            collective=Collective.TREE_ALLREDUCE,
        )
        np.testing.assert_allclose(
            result.aggregate, np.sum(worker_gradients, axis=0), rtol=1e-4, atol=1e-5
        )

    def test_wrong_worker_count_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.allreduce([np.ones(4)], wire_bits_per_value=32)

    def test_allgather_collective_rejected_for_allreduce(self, backend, worker_gradients):
        with pytest.raises(ValueError):
            backend.allreduce(
                worker_gradients, wire_bits_per_value=32, collective=Collective.ALLGATHER
            )

    def test_fp16_cheaper_than_fp32(self, backend, worker_gradients):
        fp16 = backend.allreduce(worker_gradients, wire_bits_per_value=16)
        fp32 = backend.allreduce(worker_gradients, wire_bits_per_value=32)
        assert fp16.cost.seconds < fp32.cost.seconds


class TestBackendAllGather:
    def test_returns_all_payloads(self, backend):
        payloads = [np.full(3, float(rank)) for rank in range(4)]
        result = backend.allgather(payloads, wire_bits_per_value=48)
        assert result.aggregate is None
        assert len(result.gathered) == 4
        np.testing.assert_array_equal(result.gathered[2], payloads[2])

    def test_unequal_payload_sizes_allowed(self, backend):
        payloads = [np.ones(rank + 1) for rank in range(4)]
        result = backend.allgather(payloads, wire_bits_per_value=48)
        assert [p.size for p in result.gathered] == [1, 2, 3, 4]

    def test_wrong_worker_count_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.allgather([np.ones(3)], wire_bits_per_value=48)


class TestBackendParameterServer:
    def test_aggregate_matches_sum(self, backend, worker_gradients):
        result = backend.parameter_server(worker_gradients, wire_bits_per_value=32)
        np.testing.assert_allclose(
            result.aggregate, np.sum(worker_gradients, axis=0), rtol=1e-6
        )

    def test_sharded_server_same_aggregate(self, backend, worker_gradients):
        single = backend.parameter_server(worker_gradients, wire_bits_per_value=32)
        sharded = backend.parameter_server(
            worker_gradients, wire_bits_per_value=32, num_servers=4
        )
        np.testing.assert_allclose(single.aggregate, sharded.aggregate)
        assert sharded.cost.seconds < single.cost.seconds


class TestFunctionalHelpers:
    def test_allgather_copies(self):
        payloads = [np.ones(3)]
        gathered = allgather(payloads)
        gathered[0][0] = 99.0
        assert payloads[0][0] == 1.0

    def test_allgather_concat(self):
        assert allgather_concat([np.ones(2), np.zeros(3)]).size == 5

    def test_allgather_rejects_empty(self):
        with pytest.raises(ValueError):
            allgather([])

    def test_parameter_server_rejects_mismatched(self):
        with pytest.raises(ValueError):
            ParameterServer().aggregate([np.ones(2), np.ones(3)])

    def test_parameter_server_rejects_bad_shards(self):
        with pytest.raises(ValueError):
            ParameterServer(num_shards=0)

    def test_ring_reduce_scatter_sums_blocks(self):
        blocks = ring_reduce_scatter([np.ones(8), np.ones(8)], SumOp())
        np.testing.assert_allclose(np.concatenate(blocks), 2 * np.ones(8))

    def test_backend_world_size(self):
        assert CollectiveBackend(paper_testbed()).world_size == 4
