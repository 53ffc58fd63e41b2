"""Local TopK sparsification over an all-gather collective.

This is the conventional TopK baseline of section 3.1: each worker selects its
``K`` largest-magnitude coordinates, transmits them as FP16 values plus 32-bit
indices (48 bits per selected coordinate), and the payloads are exchanged with
an all-gather because different workers select different coordinates so the
network cannot reduce them in flight.

The module also provides :class:`GlobalTopKOracle`, the idealised "Global
TopK" the paper describes as the target TopKC approximates: select the top
``K`` coordinates of the *aggregated* gradient, which is not implementable
without first aggregating but is useful as an error reference.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.api import Collective
from repro.compression.base import (
    AggregationResult,
    AggregationScheme,
    Exchange,
    Kernel,
    SimContext,
)
from repro.compression.spec import Param, register

#: Wire width of one transmitted coordinate index.
INDEX_BITS = 32.0

#: Wire width of one transmitted FP16 coordinate value.
VALUE_BITS = 16.0

#: Wire sections of one gathered payload: 32-bit indices next to FP16 values.
SECTION_BITS = (INDEX_BITS, VALUE_BITS)

#: Bits transmitted per selected coordinate: FP16 value + 32-bit index.
BITS_PER_SELECTED_COORDINATE = INDEX_BITS + VALUE_BITS


def topk_indices(vector: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest-magnitude entries of ``vector`` (unsorted)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k >= vector.size:
        return np.arange(vector.size, dtype=np.int64)
    # argpartition is the GPU-top-k stand-in: selection without a full sort.
    return np.argpartition(np.abs(vector), -k)[-k:].astype(np.int64)


def k_for_bits_per_coordinate(bits_per_coordinate: float, num_coordinates: int) -> int:
    """The K achieving a target ``b`` given 48 bits per selected coordinate.

    The paper's setup: ``b = 48 K / d``, so ``K = b d / 48``.
    """
    if bits_per_coordinate <= 0:
        raise ValueError("bits_per_coordinate must be positive")
    if num_coordinates <= 0:
        raise ValueError("num_coordinates must be positive")
    k = int(round(bits_per_coordinate * num_coordinates / BITS_PER_SELECTED_COORDINATE))
    return max(1, min(num_coordinates, k))


@register(
    "topk",
    params=(
        Param("b", float, kwarg="bits_per_coordinate", doc="target wire bits per coordinate"),
    ),
    description="Local TopK sparsification aggregated with all-gather",
)
class TopKCompressor(AggregationScheme):
    """Local TopK sparsification aggregated with all-gather.

    Args:
        bits_per_coordinate: Target communication volume ``b``; K is derived
            as ``b * d / 48``.
        value_dtype: Wire dtype of transmitted values (FP16 in the paper).
    """

    def __init__(self, bits_per_coordinate: float = 2.0, value_dtype: type = np.float16):
        if bits_per_coordinate <= 0:
            raise ValueError("bits_per_coordinate must be positive")
        self.bits_per_coordinate = float(bits_per_coordinate)
        self.value_dtype = value_dtype
        self.name = f"topk_b{bits_per_coordinate:g}"

    # ------------------------------------------------------------------ #
    def select_k(self, num_coordinates: int) -> int:
        """Number of coordinates each worker transmits for a ``d``-sized gradient."""
        return k_for_bits_per_coordinate(self.bits_per_coordinate, num_coordinates)

    def compress(self, gradient: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (indices, FP16 values) of the worker's top-K coordinates."""
        if gradient.ndim != 1:
            raise ValueError("gradient must be a flat vector")
        k = self.select_k(gradient.size)
        indices = topk_indices(gradient, k)
        values = gradient[indices].astype(self.value_dtype)
        return indices, values

    def decompress(
        self, indices: np.ndarray, values: np.ndarray, num_coordinates: int
    ) -> np.ndarray:
        """Scatter (indices, values) back into a dense vector of length ``d``."""
        dense = np.zeros(num_coordinates, dtype=np.float32)
        dense[indices] = values.astype(np.float32)
        return dense

    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        del world_size
        k = self.select_k(num_coordinates)
        return BITS_PER_SELECTED_COORDINATE * k / num_coordinates

    def protocol(self, num_coordinates: int, ctx: SimContext):
        name = self.name
        n = ctx.world_size
        k = self.select_k(num_coordinates)
        return (
            Kernel.compress(f"{name}:select", ctx.kernels.topk_select_time(num_coordinates, k)),
            Kernel.compress(f"{name}:pack", ctx.kernels.rearrangement_time(k)),
            # Indices and values travel as two sections of one payload,
            # gathered (and priced) as a single 48k-bit all-gather.
            Exchange(f"{name}:allgather", Collective.ALLGATHER, k, BITS_PER_SELECTED_COORDINATE),
            # Every worker scatters all n payloads into dense vectors and sums.
            Kernel.decompress(f"{name}:scatter", n * ctx.kernels.scatter_time(k)),
            Kernel.decompress(
                f"{name}:sum", (n - 1) * ctx.kernels.elementwise_sum_time(num_coordinates)
            ),
        )

    def _aggregate_batched(self, rows, ctx: SimContext, ledger) -> AggregationResult:
        """One axis-wise top-k selection and scatter over the worker matrix."""
        n, d = ctx.world_size, ledger.num_coordinates
        k = self.select_k(d)
        workspace = ctx.workspace

        work = workspace.buf("topk.work", (n, d), np.float32)
        self._gather_rows(rows, work)
        magnitudes = workspace.buf("topk.abs", (n, d), np.float32)
        np.abs(work, out=magnitudes)
        if k < d:
            indices = np.argpartition(magnitudes, -k, axis=1)[:, -k:]
        else:
            indices = np.tile(np.arange(d, dtype=np.int64), (n, 1))
        values = np.take_along_axis(work, indices, axis=1).astype(self.value_dtype)

        # All-gather of the packed (index, value) payloads: every worker ends
        # up with all rows, which the stacked matrix already is.
        ledger.ship("allgather", k)

        dense = np.zeros((n, d), dtype=np.float32)
        np.put_along_axis(dense, indices, values.astype(np.float32), axis=1)
        total = np.array(dense[0], copy=True)
        for worker in range(1, n):
            total += dense[worker]
        mean = total / n
        return ledger.result(mean, list(dense))

    def _aggregate_legacy(
        self, worker_gradients: list[np.ndarray], ctx: SimContext, ledger
    ) -> AggregationResult:
        n, d = ctx.world_size, ledger.num_coordinates
        compressed = [self.compress(g) for g in worker_gradients]
        gather = ledger.allgather_sections(
            "allgather",
            [(idx, val.astype(np.float64)) for idx, val in compressed],
            SECTION_BITS,
        )

        # Aggregation consumes the *gathered* payloads -- what the collective
        # actually delivered -- not the local compression state, so the same
        # code path runs unchanged when the gather crosses a real transport.
        transmitted = [
            self.decompress(idx.astype(np.int64), val, d)
            for idx, val in gather.gathered
        ]
        total = np.zeros(d, dtype=np.float32)
        for dense in transmitted:
            total += dense
        mean = total / n
        return ledger.result(mean, transmitted)


class GlobalTopKOracle(AggregationScheme):
    """Idealised Global TopK: keep the top-K coordinates of the true mean.

    Not realisable as a distributed protocol (it needs the aggregate before
    deciding what to send); used as a reference point for compression error.
    """

    def __init__(self, bits_per_coordinate: float = 2.0):
        if bits_per_coordinate <= 0:
            raise ValueError("bits_per_coordinate must be positive")
        self.bits_per_coordinate = float(bits_per_coordinate)
        self.name = f"global_topk_b{bits_per_coordinate:g}"

    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        del world_size
        k = k_for_bits_per_coordinate(self.bits_per_coordinate, num_coordinates)
        return BITS_PER_SELECTED_COORDINATE * k / num_coordinates

    def protocol(self, num_coordinates: int, ctx: SimContext):
        """The oracle is not a protocol; it is priced as free communication."""
        return ()

    def _aggregate_batched(self, rows, ctx: SimContext, ledger) -> AggregationResult:
        d = ledger.num_coordinates
        k = k_for_bits_per_coordinate(self.bits_per_coordinate, d)

        true_mean = np.mean(np.stack(rows), axis=0)
        indices = topk_indices(true_mean, k)
        mean = np.zeros(d, dtype=np.float32)
        mean[indices] = true_mean[indices]

        transmitted = []
        for grad in rows:
            dense = np.zeros(d, dtype=np.float32)
            dense[indices] = grad[indices]
            transmitted.append(dense)
        return ledger.result(mean, transmitted)
