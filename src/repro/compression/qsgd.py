"""QSGD-style quantization with the paper's proposed adaptations.

The paper suggests its techniques "may generalize to other quantization
schemes, e.g., addressing integer summation overflow through saturation for
[QSGD, signSGD, TernGrad] and enhancing speed by replacing full RHT with
partial rotation".  This module provides that generalization for QSGD
(Alistarh et al., 2017): per-vector L2-norm scaling, stochastic quantization
onto ``q``-bit signed levels, and aggregation over ring all-reduce with either
a widened wire format or the saturating operator.

It doubles as an extension example: a scheme the paper does not evaluate
directly, expressed entirely through the existing building blocks
(quantizer, saturating ops, collective backend, kernel cost model).
"""

from __future__ import annotations

import numpy as np

from repro.collectives.ops import MaxOp
from repro.compression.base import (
    AggregationResult,
    AggregationScheme,
    Exchange,
    Kernel,
    SimContext,
)
from repro.compression.kernels import LazyTransmitted, smallest_int_dtype
from repro.compression.quantization import StochasticQuantizer
from repro.compression.spec import Param, register
from repro.compression.thc import AggregationMode


@register(
    "qsgd",
    params=(
        Param("q", int, kwarg="quantization_bits", doc="quantization width q"),
        Param("b", int, kwarg="wire_bits", doc="wire width b (defaults to q, or q+4 widened)"),
        Param("agg", AggregationMode, kwarg="aggregation", doc="overflow-handling strategy"),
    ),
    description="QSGD-style stochastic quantization with saturating all-reduce",
)
class QSGDCompressor(AggregationScheme):
    """QSGD: norm-scaled stochastic quantization aggregated with all-reduce.

    Each worker scales its gradient by its own L2 norm, stochastically rounds
    the scaled coordinates onto a ``q``-bit signed grid, and transmits the
    levels plus the scalar norm.  Aggregation sums the levels (saturating or
    widened) and rescales by the mean norm.

    Args:
        quantization_bits: Integer width ``q``.
        wire_bits: Wire width ``b`` during aggregation; defaults to ``q`` for
            saturation mode and ``q + 4`` for widened mode.
        aggregation: Overflow-handling strategy, as for THC.
    """

    def __init__(
        self,
        quantization_bits: int = 4,
        wire_bits: int | None = None,
        *,
        aggregation: AggregationMode = AggregationMode.SATURATION,
    ):
        if quantization_bits < 2:
            raise ValueError("quantization_bits must be >= 2")
        if wire_bits is None:
            wire_bits = (
                quantization_bits + 4
                if aggregation is AggregationMode.WIDENED
                else quantization_bits
            )
        if wire_bits < quantization_bits:
            raise ValueError("wire_bits must be at least quantization_bits")
        self.quantization_bits = quantization_bits
        self.wire_bits = wire_bits
        self.aggregation = aggregation
        self.quantizer = StochasticQuantizer(bits=quantization_bits)
        self.name = f"qsgd_b{wire_bits}_q{quantization_bits}_{aggregation.value}"

    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        del world_size
        # Levels plus one FP32 norm scalar per worker (negligible per coordinate).
        return float(self.wire_bits) + 32.0 / num_coordinates

    def protocol(self, num_coordinates: int, ctx: SimContext):
        name = self.name
        collective = self.aggregation.collective()
        return (
            Exchange(f"{name}:norm_allreduce", collective, 1, 32.0),
            Kernel.compress(
                f"{name}:quantize",
                ctx.kernels.quantize_time(num_coordinates, self.quantization_bits),
            ),
            Exchange(
                f"{name}:level_allreduce", collective, num_coordinates, float(self.wire_bits)
            ),
            Kernel.decompress(
                f"{name}:dequantize",
                ctx.kernels.dequantize_time(num_coordinates, self.quantization_bits),
            ),
        )

    def _wire_headroom(self, world_size: int) -> int:
        """Largest magnitude the integer wire buffer must represent."""
        if self.aggregation is AggregationMode.WIDENED:
            return world_size * self.quantizer.max_level
        return 2 * ((1 << (self.wire_bits - 1)) - 1)

    def _aggregate_batched(self, rows, ctx: SimContext, ledger) -> AggregationResult:
        """Fused float32 quantization over the stacked worker matrix."""
        n, d = ctx.world_size, ledger.num_coordinates
        workspace = ctx.workspace

        # Shared norm consensus (same exchange and pricing as the legacy path;
        # per-row norms are computed with the same BLAS reduction).
        per_worker_norms = np.array(
            [[float(np.linalg.norm(rows[i]))] for i in range(n)]
        )
        norm_reduce = ledger.allreduce_matrix("norm_allreduce", per_worker_norms, op=MaxOp())
        shared_norm = float(np.asarray(norm_reduce.aggregate)[0])
        if shared_norm == 0.0:
            return self._zero_round(ledger)

        max_level = float(self.quantizer.max_level)
        scale = 1.0 / max_level  # value_range is exactly 1 after norm scaling
        work = workspace.buf("qsgd.work", (n, d), np.float32)
        self._gather_rows(rows, work)
        work *= np.float32(max_level / shared_norm)
        np.clip(work, -max_level, max_level, out=work)
        floors = workspace.buf("qsgd.floor", (n, d), np.float32)
        np.floor(work, out=floors)
        work -= floors  # fractional parts
        uniforms = workspace.buf("qsgd.uniform", (n, d), np.float32)
        ctx.rng.random(out=uniforms, dtype=np.float32)
        round_up = workspace.buf("qsgd.round_up", (n, d), np.bool_)
        np.less(uniforms, work, out=round_up)
        np.add(floors, round_up, out=floors)
        np.clip(floors, -max_level, max_level, out=floors)
        levels = workspace.buf("qsgd.levels", (n, d), smallest_int_dtype(self._wire_headroom(n)))
        np.copyto(levels, floors, casting="unsafe")

        level_reduce = ledger.allreduce_matrix(
            "level_allreduce", levels, op=self.aggregation.reduce_op(self.wire_bits)
        )
        mean = np.asarray(level_reduce.aggregate).astype(np.float32)
        mean *= np.float32(scale * shared_norm / n)

        levels_snapshot = np.array(levels, copy=True)

        def materialize_transmitted() -> np.ndarray:
            dense = levels_snapshot.astype(np.float32)
            dense *= np.float32(scale * shared_norm)
            return dense

        return ledger.result(mean, LazyTransmitted(n, materialize_transmitted))

    def _zero_round(self, ledger) -> AggregationResult:
        """An all-zero round: the norm exchange agrees on 0 and nothing else runs."""
        zero = np.zeros(ledger.num_coordinates, dtype=np.float32)
        transmitted = [zero.copy() for _ in range(ledger.ctx.world_size)]
        return ledger.result(zero, transmitted, through="norm_allreduce")

    def _aggregate_legacy(
        self, worker_gradients: list[np.ndarray], ctx: SimContext, ledger
    ) -> AggregationResult:
        n = ctx.world_size

        # Agree on a shared norm so the dequantization scale is identical on
        # every worker -- the adaptation that makes QSGD all-reduce compatible
        # (the original scheme sends per-worker norms, which only a parameter
        # server can combine).
        per_worker_norms = [
            np.array([float(np.linalg.norm(g))]) for g in worker_gradients
        ]
        norm_reduce = ledger.allreduce("norm_allreduce", per_worker_norms, op=MaxOp())
        shared_norm = float(np.asarray(norm_reduce.aggregate)[0])
        if shared_norm == 0.0:
            return self._zero_round(ledger)

        # Norm-scaled coordinates have magnitude at most 1, so the shared
        # quantization range is exactly 1.
        scaled = [g / shared_norm for g in worker_gradients]
        quantized = [
            self.quantizer.quantize(np.asarray(s, dtype=np.float64), ctx.rng, value_range=1.0)
            for s in scaled
        ]
        scale = quantized[0].scale

        level_reduce = ledger.allreduce(
            "level_allreduce",
            [q.levels.astype(np.float64) for q in quantized],
            op=self.aggregation.reduce_op(self.wire_bits),
        )
        mean = (
            np.asarray(level_reduce.aggregate) * scale * shared_norm / n
        ).astype(np.float32)

        transmitted = [
            (q.levels.astype(np.float64) * scale * shared_norm).astype(np.float32)
            for q in quantized
        ]
        return ledger.result(mean, transmitted)
