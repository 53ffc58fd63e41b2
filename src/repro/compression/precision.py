"""Uncompressed precision baselines: FP32 and the stronger FP16.

The paper's central evaluation point is that FP16 communication is the bar a
compression scheme must clear: it halves the wire volume, is natively
supported by the hardware, and loses essentially no accuracy.  Both baselines
aggregate with a plain ring all-reduce.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.api import Collective
from repro.collectives.ops import MeanOp
from repro.compression.base import (
    AggregationResult,
    AggregationScheme,
    Exchange,
    Kernel,
    SimContext,
)
from repro.compression.spec import Param, register
from repro.simulator.gpu import Precision


@register(
    "baseline",
    params=(
        Param("p", Precision, kwarg="wire_precision", doc="wire precision (fp16 or fp32)"),
    ),
    description="Uncompressed ring all-reduce at FP16 or FP32 wire precision",
)
class PrecisionBaseline(AggregationScheme):
    """All-reduce the raw gradients at a given wire precision.

    Args:
        wire_precision: Precision of the values on the wire (FP16 or FP32).
        collective: Which all-reduce schedule to use.
    """

    def __init__(
        self,
        wire_precision: Precision = Precision.FP16,
        collective: Collective = Collective.RING_ALLREDUCE,
    ):
        if wire_precision not in (Precision.FP16, Precision.FP32):
            raise ValueError("precision baselines support FP16 or FP32 wire formats")
        if not collective.is_allreduce:
            raise ValueError("precision baselines aggregate with an all-reduce collective")
        self.wire_precision = wire_precision
        self.collective = collective
        self.name = f"baseline_{wire_precision.value}"

    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        del num_coordinates, world_size
        return float(self.wire_precision.bits)

    def protocol(self, num_coordinates: int, ctx: SimContext):
        if self.wire_precision is Precision.FP16:
            cast_seconds = ctx.kernels.cast_time(num_coordinates, 32, 16) + ctx.kernels.cast_time(
                num_coordinates, 16, 32
            )
        else:
            cast_seconds = 0.0
        return (
            Kernel.compress(f"{self.name}:cast", cast_seconds),
            Exchange(
                f"{self.name}:allreduce",
                self.collective,
                num_coordinates,
                float(self.wire_precision.bits),
            ),
        )

    def _aggregate_batched(self, rows, ctx: SimContext, ledger) -> AggregationResult:
        """One float32 matrix fold (bit-identical to the per-worker path)."""
        n, d = ctx.world_size, ledger.num_coordinates
        wire = np.empty((n, d), dtype=np.float32)
        self._gather_rows(rows, wire)
        if self.wire_precision is Precision.FP16:
            np.copyto(wire, wire.astype(np.float16), casting="unsafe")
        result = ledger.allreduce_matrix("allreduce", wire, op=MeanOp())
        mean = np.asarray(result.aggregate, dtype=np.float32)
        transmitted = list(wire) if self.wire_precision is Precision.FP16 else None
        return ledger.result(mean, transmitted)

    def _aggregate_legacy(
        self, worker_gradients: list[np.ndarray], ctx: SimContext, ledger
    ) -> AggregationResult:
        if self.wire_precision is Precision.FP16:
            wire_vectors = [g.astype(np.float16).astype(np.float32) for g in worker_gradients]
        else:
            wire_vectors = [np.asarray(g, dtype=np.float32) for g in worker_gradients]
        result = ledger.allreduce("allreduce", wire_vectors, op=MeanOp())
        mean = np.asarray(result.aggregate, dtype=np.float32)
        transmitted = None
        if self.wire_precision is Precision.FP16:
            transmitted = [np.asarray(v, dtype=np.float32) for v in wire_vectors]
        return ledger.result(mean, transmitted)
