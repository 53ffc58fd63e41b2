"""Error feedback (EF) for biased gradient compressors.

Error feedback accumulates, on every worker, the part of the gradient the
compressor dropped this round and adds it back to the next round's gradient
before compressing again.  The paper applies EF to both TopK and TopKC (it is
what lets aggressive sparsifiers converge at all), and PowerSGD ships with it
by default.

The wrapper delegates aggregation to any :class:`AggregationScheme` and uses
the scheme's ``per_worker_transmitted`` report to update the residuals:

    residual_i  <-  (gradient_i + residual_i) - transmitted_i
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.compression.base import (
    AggregationResult,
    AggregationScheme,
    Kernel,
    RoundLedger,
    SimContext,
)
from repro.compression.kernels import LazyTransmitted
from repro.compression.spec import Param, register


@register(
    "ef",
    params=(
        Param("decay", float, default=1.0, doc="multiplicative residual decay per round"),
    ),
    wraps=True,
    description="Error feedback: accumulate and re-inject the compression residual",
)
class ErrorFeedback(AggregationScheme):
    """Wrap a compression scheme with per-worker error-feedback residuals.

    Args:
        scheme: The underlying aggregation scheme.
        decay: Multiplicative decay applied to the residual each round
            (1.0 = classic error feedback; values below 1 forget stale error).
    """

    def __init__(self, scheme: AggregationScheme, *, decay: float = 1.0):
        if not 0.0 <= decay <= 1.0:
            raise ValueError("decay must be in [0, 1]")
        self.scheme = scheme
        self.decay = decay
        #: Residual state, stored as one (n_workers, d) float32 matrix shared
        #: by both kernel backends (the legacy path views its rows).
        self._residual_matrix: np.ndarray | None = None
        self.name = f"ef({scheme.name})"

    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        return self.scheme.expected_bits_per_coordinate(num_coordinates, world_size)

    def _residual_update(self, num_coordinates: int, ctx: SimContext, share: int = 1) -> Kernel:
        """The residual update: two elementwise passes (add, subtract), or
        its ``1 / share`` part when the round is split into ``share`` buckets."""
        seconds = 2 * ctx.kernels.elementwise_sum_time(num_coordinates)
        return Kernel.compress(f"{self.name}:residual_update", seconds / share)

    def protocol(self, num_coordinates: int, ctx: SimContext):
        """The wrapped scheme's protocol plus the residual update."""
        return self.scheme.protocol(num_coordinates, ctx) + (
            self._residual_update(num_coordinates, ctx),
        )

    def bucket_protocols(self, num_coordinates: int, num_buckets: int, ctx: SimContext):
        """The wrapped scheme's buckets, each with an equal share of the
        whole-gradient residual update (one elementwise pass, so any split
        summing to the total keeps the round's cost right)."""
        inner = self.scheme.bucket_protocols(num_coordinates, num_buckets, ctx)
        share = self._residual_update(num_coordinates, ctx, len(inner))
        # Inner buckets that share a stage tuple keep sharing it.
        extended = {id(stages): stages + (share,) for _, stages in inner}
        return [(coordinates, extended[id(stages)]) for coordinates, stages in inner]

    def reset_state(self) -> None:
        """Clear the residuals (e.g. between independent experiments)."""
        self._residual_matrix = None
        if hasattr(self.scheme, "reset_state"):
            self.scheme.reset_state()

    @property
    def residuals(self) -> list[np.ndarray] | None:
        """The per-worker residuals carried to the next round (None before the first)."""
        if self._residual_matrix is None:
            return None
        return list(self._residual_matrix)

    def _residuals_for(self, n: int, d: int) -> np.ndarray:
        """The residual matrix, initialised on first use and shape-checked.

        A changed *worker count* (elastic membership: a scenario's join/leave
        events) resets the residuals -- a real elastic job cannot carry a
        departed worker's residual, and a joiner starts with none.  A changed
        gradient *size* is still an error: that is a different model, not a
        membership change.
        """
        if self._residual_matrix is not None and (
            self._residual_matrix.shape[0] != n and self._residual_matrix.shape[1] == d
        ):
            self._residual_matrix = None
        if self._residual_matrix is None:
            self._residual_matrix = np.zeros((n, d), dtype=np.float32)
        if self._residual_matrix.shape != (n, d):
            raise ValueError(
                "gradient size changed between rounds; call reset_state() first"
            )
        return self._residual_matrix

    def aggregate(
        self, worker_gradients: list[np.ndarray], ctx: SimContext
    ) -> AggregationResult:
        d, _ = self._validate_gradients(worker_gradients, ctx.world_size)
        n = ctx.world_size
        residuals = self._residuals_for(n, d)

        if ctx.batched:
            # The label is instance-unique so nested wrappers never alias
            # each other's adjusted-gradient buffers.
            adjusted = ctx.workspace.buf(f"ef.adjusted.{id(self)}", (n, d), np.float32)
            self._gather_rows(worker_gradients, adjusted)
            adjusted += residuals
            return self._finish_batched(adjusted, residuals, ctx)

        adjusted = [
            np.asarray(grad, dtype=np.float32) + residual
            for grad, residual in zip(worker_gradients, residuals)
        ]
        result = self.scheme.aggregate(adjusted, ctx)

        if result.per_worker_transmitted is not None:
            for index, (adj, transmitted) in enumerate(
                zip(adjusted, result.per_worker_transmitted)
            ):
                residuals[index] = (adj - transmitted).astype(np.float32) * self.decay
        else:
            # Without a per-worker report, fall back to the aggregate-based
            # residual (what PowerSGD's reference implementation does).
            for index, adj in enumerate(adjusted):
                residuals[index] = (adj - result.mean_estimate).astype(np.float32) * self.decay
        return self._charge_residual_update(result, d, ctx)

    def aggregate_matrix(
        self, matrix: np.ndarray, ctx: SimContext
    ) -> AggregationResult:
        n, d = self._validate_matrix(matrix, ctx.world_size)
        residuals = self._residuals_for(n, d)
        adjusted = ctx.workspace.buf(f"ef.adjusted.{id(self)}", (n, d), np.float32)
        np.add(matrix, residuals, out=adjusted, casting="unsafe")
        return self._finish_batched(adjusted, residuals, ctx)

    def _finish_batched(
        self, adjusted: np.ndarray, residuals: np.ndarray, ctx: SimContext
    ) -> AggregationResult:
        """Run the wrapped scheme on the adjusted matrix and fold the residual.

        The residual update is two fused elementwise passes over the
        ``(n, d)`` matrix -- and when the wrapped scheme reports its
        transmitted payloads lazily, this is the single place that pays for
        materializing them.
        """
        result = self.scheme.aggregate_matrix(adjusted, ctx)
        transmitted = result.per_worker_transmitted
        if transmitted is not None:
            if isinstance(transmitted, LazyTransmitted):
                transmitted_matrix = transmitted.matrix()
            else:
                transmitted_matrix = np.asarray(transmitted, dtype=np.float32)
            np.subtract(adjusted, transmitted_matrix, out=residuals, casting="unsafe")
        else:
            np.subtract(
                adjusted, result.mean_estimate[None, :], out=residuals, casting="unsafe"
            )
        if self.decay != 1.0:
            residuals *= np.float32(self.decay)
        return self._charge_residual_update(result, adjusted.shape[1], ctx)

    def _charge_residual_update(
        self, result: AggregationResult, num_coordinates: int, ctx: SimContext
    ) -> AggregationResult:
        """Charge the residual update on top of the wrapped scheme's round
        (which charged its own stages)."""
        stages = (self._residual_update(num_coordinates, ctx),)
        compression, _ = RoundLedger(self, num_coordinates, ctx, stages).close()
        return replace(result, compression_seconds=result.compression_seconds + compression)
