"""signSGD with majority vote, expressed in the utility framework.

signSGD (Bernstein et al., 2018) transmits only the sign of every gradient
coordinate -- exactly one bit per coordinate -- and aggregates by majority
vote.  The paper lists it among the quantization schemes whose integer
summation overflow its saturation technique addresses; here the sign counts
are aggregated with a ring all-reduce over small signed integers, which never
overflows a ceil(log2(n))+1-bit wire format, and the result is the
majority-vote sign scaled by the mean gradient magnitude.

Included both as a classic baseline the paper's framework should be able to
evaluate and as a second extension example beyond the paper's case study.
"""

from __future__ import annotations

import math

import numpy as np

from repro.collectives.ops import MeanOp, SumOp
from repro.collectives.api import Collective
from repro.compression.base import (
    AggregationResult,
    AggregationScheme,
    Exchange,
    Kernel,
    SimContext,
)
from repro.compression.spec import Param, register


@register(
    "signsgd",
    params=(
        Param(
            "scale",
            bool,
            kwarg="scale_by_mean_magnitude",
            default=True,
            doc="scale voted signs by the mean gradient magnitude",
        ),
    ),
    description="Majority-vote signSGD over ring all-reduce",
)
class SignSGDCompressor(AggregationScheme):
    """Majority-vote signSGD over ring all-reduce.

    Args:
        scale_by_mean_magnitude: Multiply the voted signs by the mean absolute
            gradient value (the "scaled" signSGD variant, which removes the
            need to retune the learning rate); the magnitude is agreed with a
            one-scalar all-reduce.
    """

    def __init__(self, *, scale_by_mean_magnitude: bool = True):
        self.scale_by_mean_magnitude = scale_by_mean_magnitude
        self.name = "signsgd_majority"

    def wire_bits_for(self, world_size: int) -> int:
        """Signed sign-count width: enough for values in [-n, n]."""
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        return max(2, math.ceil(math.log2(world_size + 1)) + 1)

    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        del num_coordinates
        return float(self.wire_bits_for(world_size))

    def protocol(self, num_coordinates: int, ctx: SimContext):
        name = self.name
        sign = ctx.kernels.quantize_time(num_coordinates, 1)
        bits = float(self.wire_bits_for(ctx.world_size))
        magnitude = (
            (Exchange(f"{name}:magnitude_allreduce", Collective.RING_ALLREDUCE, 1, 32.0),)
            if self.scale_by_mean_magnitude
            else ()
        )
        return (
            Kernel.compress(f"{name}:sign", sign),
            Exchange(f"{name}:vote_allreduce", Collective.RING_ALLREDUCE, num_coordinates, bits),
            *magnitude,
            Kernel.decompress(f"{name}:apply_sign", sign),
        )

    def _aggregate_batched(self, rows, ctx: SimContext, ledger) -> AggregationResult:
        """Vectorized sign voting over the stacked worker matrix.

        Sign values and vote counts are small exact integers, so the float32
        matrix fold is value-identical to the legacy float64 per-worker path;
        only the mean-magnitude scalar can differ in its last float32 bits.
        """
        n, d = ctx.world_size, ledger.num_coordinates
        signs = np.empty((n, d), dtype=np.float32)
        self._gather_rows(rows, signs)
        np.sign(signs, out=signs)
        vote_reduce = ledger.allreduce_matrix("vote_allreduce", signs, op=SumOp())
        majority = np.sign(np.asarray(vote_reduce.aggregate))

        magnitude = 1.0
        if self.scale_by_mean_magnitude:
            magnitudes = ctx.workspace.buf("signsgd.magnitude", (n, 1), np.float64)
            for index in range(n):
                magnitudes[index, 0] = float(np.mean(np.abs(rows[index])))
            magnitude_reduce = ledger.allreduce_matrix(
                "magnitude_allreduce", magnitudes, op=MeanOp()
            )
            magnitude = float(np.asarray(magnitude_reduce.aggregate)[0])

        mean = (majority * magnitude).astype(np.float32)
        signs *= np.float32(magnitude)
        return ledger.result(mean, list(signs))

    def _aggregate_legacy(
        self, worker_gradients: list[np.ndarray], ctx: SimContext, ledger
    ) -> AggregationResult:
        signs = [np.sign(g).astype(np.float64) for g in worker_gradients]
        vote_reduce = ledger.allreduce("vote_allreduce", signs, op=SumOp())
        majority = np.sign(np.asarray(vote_reduce.aggregate))

        magnitude = 1.0
        if self.scale_by_mean_magnitude:
            per_worker_magnitude = [
                np.array([float(np.mean(np.abs(g)))]) for g in worker_gradients
            ]
            magnitude_reduce = ledger.allreduce(
                "magnitude_allreduce", per_worker_magnitude, op=MeanOp()
            )
            magnitude = float(np.asarray(magnitude_reduce.aggregate)[0])

        mean = (majority * magnitude).astype(np.float32)
        transmitted = [(s * magnitude).astype(np.float32) for s in signs]
        return ledger.result(mean, transmitted)
