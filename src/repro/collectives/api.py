"""Unified collective backend: functional result + simulated cost in one call.

:class:`CollectiveBackend` is what the DDP trainer and the experiments talk
to.  Each call takes the per-worker payloads (NumPy arrays) plus the number of
*wire bits per value*, performs the collective functionally, and prices it on
the configured cluster with the alpha-beta cost model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.collectives.allgather import allgather
from repro.collectives.batched import (
    hierarchical_aggregate_matrix,
    ring_allreduce_matrix,
    tree_allreduce_matrix,
)
from repro.collectives.cost_model import CollectiveCost, CollectiveCostModel
from repro.collectives.ops import ReduceOp, SumOp
from repro.collectives.parameter_server import ParameterServer
from repro.collectives.ring import ring_allreduce
from repro.collectives.tree import tree_allreduce
from repro.simulator.cluster import ClusterSpec, paper_testbed
from repro.topology.hierarchical import hierarchical_aggregate


class Collective(enum.Enum):
    """Aggregation schemes the paper discusses (plus in-network aggregation)."""

    RING_ALLREDUCE = "ring_allreduce"
    TREE_ALLREDUCE = "tree_allreduce"
    ALLGATHER = "allgather"
    PARAMETER_SERVER = "parameter_server"
    #: ToR/spine switches reduce quantized payloads in the network
    #: (:meth:`CollectiveCostModel.switch_aggregation`).
    SWITCH_AGGREGATION = "switch_aggregation"

    @property
    def is_allreduce(self) -> bool:
        """Whether this collective reduces payloads in flight."""
        return self in (
            Collective.RING_ALLREDUCE,
            Collective.TREE_ALLREDUCE,
            Collective.SWITCH_AGGREGATION,
        )


@dataclass(frozen=True)
class CollectiveResult:
    """Outcome of one collective invocation.

    Attributes:
        aggregate: The reduced vector every worker holds (all-reduce / PS), or
            None for all-gather, where aggregation happens at the caller.
        gathered: The list of gathered payloads (all-gather only).
        cost: Simulated communication cost.
    """

    aggregate: np.ndarray | None
    gathered: list[np.ndarray] | None
    cost: CollectiveCost


@dataclass(frozen=True)
class SectionedGatherResult:
    """Outcome of a sectioned all-gather (:meth:`CollectiveBackend.allgather_sections`).

    Attributes:
        gathered: Per worker, the tuple of section arrays that worker sent --
            exactly what every worker ends up holding after the gather.
        cost: Simulated communication cost of the whole exchange.
    """

    gathered: list[tuple[np.ndarray, ...]]
    cost: CollectiveCost


class CollectiveBackend:
    """Performs and prices collectives on a simulated cluster."""

    def __init__(self, cluster: ClusterSpec | None = None):
        self.cluster = cluster or paper_testbed()
        self.cost_model = CollectiveCostModel(self.cluster)

    @property
    def world_size(self) -> int:
        """Number of workers participating in every collective."""
        return self.cluster.world_size

    # ------------------------------------------------------------------ #
    def allreduce(
        self,
        worker_vectors: list[np.ndarray],
        *,
        wire_bits_per_value: float,
        op: ReduceOp | None = None,
        collective: Collective = Collective.RING_ALLREDUCE,
    ) -> CollectiveResult:
        """All-reduce the per-worker vectors and price the transfer.

        Args:
            worker_vectors: One equally shaped vector per worker.
            wire_bits_per_value: How many bits one vector element occupies on
                the wire (16 for FP16 payloads, ``b`` for b-bit integers...).
            op: Reduction operator; defaults to a plain sum.
            collective: Ring (default), tree, or in-network switch schedule.
        """
        self._check_world(worker_vectors)
        op = op or SumOp()
        payload_bits = worker_vectors[0].size * wire_bits_per_value
        aggregate = self.reduce_vectors(worker_vectors, op, collective)
        cost = self.allreduce_cost(payload_bits, collective)
        return CollectiveResult(aggregate=aggregate, gathered=None, cost=cost)

    def reduce_vectors(
        self,
        worker_vectors: list[np.ndarray],
        op: ReduceOp,
        collective: Collective,
    ) -> np.ndarray:
        """The functional fold of :meth:`allreduce`, without the pricing.

        Exposed so an execution engine that moves the payloads over a real
        transport (``repro.bridge``) can replay the exact per-hop reduction
        order of the simulated collective -- which matters for non-associative
        (saturating) operators.
        """
        if collective is Collective.RING_ALLREDUCE:
            if self.cluster.has_active_fabric:
                # A topology-aware engine runs the hierarchical schedule on a
                # multi-rack fabric: fold rack-locally, then across racks.
                # The hop order matters for non-associative (saturating) ops,
                # and the cost model prices the same schedule.
                return hierarchical_aggregate(
                    worker_vectors, op, self.cluster.rack_assignment()
                )
            return ring_allreduce(worker_vectors, op)
        if collective is Collective.TREE_ALLREDUCE:
            return tree_allreduce(worker_vectors, op)
        if collective is Collective.SWITCH_AGGREGATION:
            return hierarchical_aggregate(
                worker_vectors, op, self.cluster.rack_assignment()
            )
        raise ValueError(f"{collective} is not an all-reduce collective")

    def allreduce_cost(
        self, payload_bits: float, collective: Collective
    ) -> CollectiveCost:
        """The priced cost of :meth:`allreduce`, without the functional fold."""
        if collective is Collective.RING_ALLREDUCE:
            return self.cost_model.ring_allreduce(payload_bits)
        if collective is Collective.TREE_ALLREDUCE:
            return self.cost_model.tree_allreduce(payload_bits)
        if collective is Collective.SWITCH_AGGREGATION:
            return self.cost_model.switch_aggregation(payload_bits)
        raise ValueError(f"{collective} is not an all-reduce collective")

    def collective_cost(
        self, payload_bits: float, collective: Collective
    ) -> CollectiveCost:
        """The priced cost of one call of ``collective`` with a per-worker
        payload of ``payload_bits`` (all-reduce schedules or all-gather)."""
        if collective is Collective.ALLGATHER:
            return self.cost_model.allgather(payload_bits)
        return self.allreduce_cost(payload_bits, collective)

    def allreduce_matrix(
        self,
        matrix: np.ndarray,
        *,
        wire_bits_per_value: float,
        op: ReduceOp | None = None,
        collective: Collective = Collective.RING_ALLREDUCE,
    ) -> CollectiveResult:
        """All-reduce a stacked ``(n_workers, d)`` matrix (batched backend).

        Functionally identical to :meth:`allreduce` on the matrix's rows --
        the vectorized folds replay the exact per-hop order of the legacy
        collectives, so even non-associative (saturating) operators agree bit
        for bit -- and priced by the same cost-model calls.  The input matrix
        is not modified.
        """
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D (one row per worker)")
        if matrix.shape[0] != self.world_size:
            raise ValueError(
                f"expected {self.world_size} worker rows, got {matrix.shape[0]}"
            )
        op = op or SumOp()
        payload_bits = matrix.shape[1] * wire_bits_per_value
        if collective is Collective.RING_ALLREDUCE:
            if self.cluster.has_active_fabric:
                aggregate = hierarchical_aggregate_matrix(
                    matrix, op, self.cluster.rack_assignment()
                )
            else:
                aggregate = ring_allreduce_matrix(matrix, op)
            cost = self.cost_model.ring_allreduce(payload_bits)
        elif collective is Collective.TREE_ALLREDUCE:
            aggregate = tree_allreduce_matrix(matrix, op)
            cost = self.cost_model.tree_allreduce(payload_bits)
        elif collective is Collective.SWITCH_AGGREGATION:
            aggregate = hierarchical_aggregate_matrix(
                matrix, op, self.cluster.rack_assignment()
            )
            cost = self.cost_model.switch_aggregation(payload_bits)
        else:
            raise ValueError(f"{collective} is not an all-reduce collective")
        return CollectiveResult(aggregate=aggregate, gathered=None, cost=cost)

    def allgather(
        self,
        worker_payloads: list[np.ndarray],
        *,
        wire_bits_per_value: float,
    ) -> CollectiveResult:
        """All-gather arbitrary (possibly unequal-sized) per-worker payloads."""
        if len(worker_payloads) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} payloads, got {len(worker_payloads)}"
            )
        gathered = allgather(worker_payloads)
        max_payload_bits = max(p.size for p in worker_payloads) * wire_bits_per_value
        cost = self.cost_model.allgather(max_payload_bits)
        return CollectiveResult(aggregate=None, gathered=gathered, cost=cost)

    def allgather_sections(
        self,
        worker_sections: list[tuple[np.ndarray, ...]],
        *,
        wire_bits_per_section: tuple[float, ...],
    ) -> SectionedGatherResult:
        """All-gather payloads made of heterogeneous sections per worker.

        Sparsification payloads are not one homogeneous array: TopK ships
        32-bit indices next to 16-bit values.  Each worker contributes a tuple
        of section arrays; section ``j`` travels at ``wire_bits_per_section[j]``
        bits per element.  The whole multi-section payload is exchanged as one
        all-gather, so the priced cost equals a single :meth:`allgather` of the
        same total volume (the historical single-array accounting).
        """
        if len(worker_sections) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} payloads, got {len(worker_sections)}"
            )
        num_sections = len(wire_bits_per_section)
        for sections in worker_sections:
            if len(sections) != num_sections:
                raise ValueError(
                    f"every worker must send {num_sections} sections, "
                    f"got {len(sections)}"
                )
        gathered = [
            tuple(np.array(section, copy=True) for section in sections)
            for sections in worker_sections
        ]
        max_payload_bits = max(
            sum(
                section.size * bits
                for section, bits in zip(sections, wire_bits_per_section)
            )
            for sections in worker_sections
        )
        cost = self.cost_model.allgather(max_payload_bits)
        return SectionedGatherResult(gathered=gathered, cost=cost)

    def parameter_server(
        self,
        worker_vectors: list[np.ndarray],
        *,
        wire_bits_per_value: float,
        downlink_bits_per_value: float | None = None,
        op: ReduceOp | None = None,
        num_servers: int = 1,
    ) -> CollectiveResult:
        """Aggregate at a (sharded) parameter server and broadcast the result."""
        self._check_world(worker_vectors)
        server = ParameterServer(num_shards=num_servers)
        aggregate = server.aggregate(worker_vectors, op or SumOp())
        payload_bits = worker_vectors[0].size * wire_bits_per_value
        downlink_bits = None
        if downlink_bits_per_value is not None:
            downlink_bits = worker_vectors[0].size * downlink_bits_per_value
        cost = self.cost_model.parameter_server(
            payload_bits, downlink_bits=downlink_bits, num_servers=num_servers
        )
        return CollectiveResult(aggregate=aggregate, gathered=None, cost=cost)

    # ------------------------------------------------------------------ #
    def _check_world(self, worker_vectors: list[np.ndarray]) -> None:
        if len(worker_vectors) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} worker vectors, got {len(worker_vectors)}"
            )
