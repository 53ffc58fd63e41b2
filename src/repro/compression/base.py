"""Common interface for gradient aggregation schemes.

The unit the paper reasons about is not "compress one vector" but "aggregate
the workers' gradients through the network and come back with an estimate of
their mean".  Different schemes use different protocols for that -- a single
FP16 ring all-reduce, an all-gather of (value, index) pairs, a two-stage
chunk-norm consensus, a saturating integer all-reduce, two low-rank
all-reduces -- and the protocol determines both the error and the cost.

:class:`AggregationScheme` is that protocol abstraction.  Each scheme states
its protocol once, as :meth:`~AggregationScheme.protocol`: an ordered tuple of
:class:`Kernel` stages (compression/decompression work on one worker's
critical path) and :class:`Exchange` stages (collective calls with their
collective, value count and wire width).  Everything else is derived from
that one description:

* the analytic round price (:meth:`~AggregationScheme.estimate_costs`) and
  the per-bucket prices of the pipeline simulator
  (:meth:`~AggregationScheme.estimate_bucket_costs`);
* the executed round's bookkeeping: the numeric kernels run every collective
  through a :class:`RoundLedger` by stage label, which passes the declared
  collective and wire width to the backend, and at the end of the round
  charges the :class:`~repro.simulator.RoundTimeline` in protocol order and
  fills the :class:`AggregationResult` seconds.

The numeric paths (``_aggregate_batched``, ``_aggregate_legacy``) keep only
numerics: they aggregate the per-worker gradients functionally (NumPy in,
NumPy out) and report the bits per coordinate ``b`` they put on the wire.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

import numpy as np

from repro.collectives.api import Collective, CollectiveBackend
from repro.compression.kernels import KernelBackend, RoundWorkspace
from repro.simulator.kernel_cost import KernelCostModel
from repro.simulator.timeline import (
    PHASE_COMMUNICATION,
    PHASE_COMPRESSION,
    PHASE_DECOMPRESSION,
    RoundTimeline,
)


@dataclass
class SimContext:
    """Everything a scheme needs to aggregate gradients in simulation.

    Attributes:
        backend: The collective communication backend (functional + priced).
        kernels: Per-kernel GPU cost model used to price compression work.
        rng: Source of randomness (stochastic rounding, rotation seeds...).
        timeline: Optional per-round timeline; when present, each executed
            round charges its protocol's stages on it.
        kernel_backend: Which compression hot path to run --
            :attr:`~repro.compression.kernels.KernelBackend.BATCHED` (default,
            one fused float32 pass over the stacked worker matrix) or
            :attr:`~repro.compression.kernels.KernelBackend.LEGACY` (the
            original per-worker float64 reference loops).  Both paths price
            rounds identically.
        workspace: Preallocated scratch buffers reused across rounds by the
            batched kernels; a long-lived context (e.g. inside
            :class:`~repro.training.ddp.DDPTrainer`) allocates nothing on the
            hot path after its first round.
    """

    backend: CollectiveBackend
    kernels: KernelCostModel = field(default_factory=KernelCostModel)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    timeline: RoundTimeline | None = None
    kernel_backend: KernelBackend = KernelBackend.BATCHED
    workspace: RoundWorkspace = field(default_factory=RoundWorkspace)

    def __post_init__(self) -> None:
        self.kernel_backend = KernelBackend.coerce(self.kernel_backend)

    @property
    def world_size(self) -> int:
        """Number of workers whose gradients are aggregated."""
        return self.backend.world_size

    @property
    def batched(self) -> bool:
        """Whether schemes should run their batched (vectorized) kernels."""
        return self.kernel_backend is KernelBackend.BATCHED

    def add_time(self, phase: str, label: str, seconds: float) -> None:
        """Record simulated time if a timeline is attached (no-op otherwise)."""
        if self.timeline is not None:
            self.timeline.add(phase, label, seconds)


@dataclass(frozen=True)
class AggregationResult:
    """What one aggregation round produced.

    Attributes:
        mean_estimate: The scheme's estimate of the mean of the worker
            gradients (what the optimizer will apply).
        bits_per_coordinate: Communication volume ``b``: all-reduce (or
            all-gather / PS) input bits per gradient coordinate, summed over
            all communication stages of the protocol.
        per_worker_transmitted: For error feedback -- what each worker's own
            contribution became after compression, expressed in the original
            gradient space.  ``None`` when the scheme is lossless from the
            worker's perspective (precision baselines) or when the notion
            does not apply.  The batched backend may return a
            :class:`~repro.compression.kernels.LazyTransmitted` sequence that
            defers the per-worker decompression until first access.
        communication_seconds: Simulated time of all collective calls.
        compression_seconds: Simulated time of all compression and
            decompression kernels (one worker's critical path).
    """

    mean_estimate: np.ndarray
    bits_per_coordinate: float
    per_worker_transmitted: Sequence[np.ndarray] | None = None
    communication_seconds: float = 0.0
    compression_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.bits_per_coordinate < 0:
            raise ValueError("bits_per_coordinate must be non-negative")
        if self.communication_seconds < 0 or self.compression_seconds < 0:
            raise ValueError("times must be non-negative")


@dataclass(frozen=True)
class CostEstimate:
    """Analytic per-round cost of a scheme on a ``d``-coordinate gradient.

    Used for the paper-scale throughput tables (BERT-large has 345M
    coordinates; pricing a round does not require materialising a vector of
    that size).

    Attributes:
        compression_seconds: Compression + decompression kernel time on one
            worker's critical path.
        communication_seconds: Collective completion time, all stages summed.
        bits_per_coordinate: Wire volume ``b`` of the protocol.
    """

    compression_seconds: float
    communication_seconds: float
    bits_per_coordinate: float

    def __post_init__(self) -> None:
        if min(self.compression_seconds, self.communication_seconds) < 0:
            raise ValueError("times must be non-negative")
        if self.bits_per_coordinate < 0:
            raise ValueError("bits_per_coordinate must be non-negative")

    @property
    def total_seconds(self) -> float:
        """Compression plus communication time (no training compute)."""
        return self.compression_seconds + self.communication_seconds


class Kernel(NamedTuple):
    """One compression or decompression kernel of a scheme's round.

    Attributes:
        phase: Timeline phase (compression or decompression).
        label: Timeline label, ``"<scheme name>:<stage>"``.
        seconds: Priced kernel time on one worker's critical path.
    """

    phase: str
    label: str
    seconds: float

    @classmethod
    def compress(cls, label: str, seconds: float) -> "Kernel":
        """A worker-side kernel that runs before (or around) the collectives."""
        return tuple.__new__(cls, (PHASE_COMPRESSION, label, seconds))

    @classmethod
    def decompress(cls, label: str, seconds: float) -> "Kernel":
        """A kernel that turns the aggregated payload back into a gradient."""
        return tuple.__new__(cls, (PHASE_DECOMPRESSION, label, seconds))


class Exchange(NamedTuple):
    """One collective exchange of a scheme's round.

    Attributes:
        label: Timeline label, ``"<scheme name>:<stage>"``.
        collective: The collective the payload travels on.
        values: Values each worker contributes per call.
        wire_bits: Wire width of one value.
        calls: Identical calls the exchange is priced as (their executed
            seconds are charged under the one label).
    """

    label: str
    collective: Collective
    values: float
    wire_bits: float
    calls: int = 1


#: One protocol stage.
Stage = Union[Kernel, Exchange]


class RoundLedger:
    """Runs one executed round's collectives against its protocol.

    The numeric code calls the collectives by stage label; the ledger passes
    the declared collective and wire width to the backend and records the
    backend's price of what was actually shipped.  :meth:`result` then
    charges the timeline in protocol order (kernels at their declared
    seconds, exchanges at their executed seconds) and fills the result's
    seconds, so the timeline, the result and the analytic price all come
    from the same stage list.
    """

    __slots__ = ("scheme", "ctx", "num_coordinates", "stages", "_exchanges", "_seconds")

    def __init__(
        self,
        scheme: "AggregationScheme",
        num_coordinates: int,
        ctx: SimContext,
        stages: tuple[Stage, ...] | None = None,
    ):
        self.scheme = scheme
        self.ctx = ctx
        self.num_coordinates = num_coordinates
        self.stages = scheme.protocol(num_coordinates, ctx) if stages is None else stages
        self._exchanges = {
            stage.label: stage for stage in self.stages if type(stage) is Exchange
        }
        self._seconds: dict[str, float] = {}

    def _declared(self, label: str) -> Exchange:
        try:
            return self._exchanges[f"{self.scheme.name}:{label}"]
        except KeyError:
            raise KeyError(
                f"{label!r} is not an exchange of {self.scheme.name}'s protocol"
            ) from None

    def _record(self, exchange: Exchange, seconds: float) -> None:
        self._seconds[exchange.label] = self._seconds.get(exchange.label, 0.0) + seconds

    def allreduce(self, label: str, worker_vectors: list[np.ndarray], *, op=None):
        """All-reduce per-worker vectors as the declared exchange ``label``."""
        return self._reduce(self.ctx.backend.allreduce, label, worker_vectors, op)

    def allreduce_matrix(self, label: str, matrix: np.ndarray, *, op=None):
        """All-reduce a stacked worker matrix as the declared exchange ``label``."""
        return self._reduce(self.ctx.backend.allreduce_matrix, label, matrix, op)

    def _reduce(self, backend_call, label: str, payload, op):
        exchange = self._declared(label)
        result = backend_call(
            payload, wire_bits_per_value=exchange.wire_bits, op=op, collective=exchange.collective
        )
        self._record(exchange, result.cost.seconds)
        return result

    def allgather_sections(
        self,
        label: str,
        worker_sections: list[tuple[np.ndarray, ...]],
        section_bits: tuple[float, ...],
    ):
        """All-gather sectioned payloads as the declared exchange ``label``.

        The section widths must add up to the declared wire width of one
        gathered value.
        """
        exchange = self._declared(label)
        if (
            exchange.collective is not Collective.ALLGATHER
            or sum(section_bits) != exchange.wire_bits
        ):
            raise ValueError(
                f"{exchange.label} is declared as {exchange.wire_bits:g}-bit values "
                f"on {exchange.collective.value}, not {section_bits} all-gather sections"
            )
        result = self.ctx.backend.allgather_sections(
            worker_sections, wire_bits_per_section=section_bits
        )
        self._record(exchange, result.cost.seconds)
        return result

    def ship(self, label: str, values: int) -> None:
        """Charge the declared exchange ``label`` for ``values`` values per worker.

        For payloads the numeric code exchanges without a functional
        collective (the stacked worker matrix already holds every worker's
        rows); the price is the backend's, as for any other exchange.
        """
        exchange = self._declared(label)
        cost = self.ctx.backend.collective_cost(
            values * exchange.wire_bits, exchange.collective
        )
        self._record(exchange, cost.seconds)

    def result(
        self,
        mean_estimate: np.ndarray,
        per_worker_transmitted: Sequence[np.ndarray] | None = None,
        *,
        through: str | None = None,
    ) -> AggregationResult:
        """Charge the round and return its :class:`AggregationResult`.

        ``through`` names the last stage a round that ended early ran (its
        later stages are neither charged nor reported).
        """
        compression, communication = self.close(through=through)
        return AggregationResult(
            mean_estimate=mean_estimate,
            bits_per_coordinate=self.scheme.expected_bits_per_coordinate(
                self.num_coordinates, self.ctx.world_size
            ),
            per_worker_transmitted=per_worker_transmitted,
            communication_seconds=communication,
            compression_seconds=compression,
        )

    def close(self, *, through: str | None = None) -> tuple[float, float]:
        """Charge the timeline; return ``(compression, communication)`` seconds."""
        last = None if through is None else f"{self.scheme.name}:{through}"
        compression = communication = 0.0
        for stage in self.stages:
            if type(stage) is Kernel:
                phase, seconds = stage.phase, stage.seconds
                compression += seconds
            else:
                phase, seconds = PHASE_COMMUNICATION, self._seconds.get(stage.label)
                if seconds is None:
                    raise RuntimeError(f"protocol exchange {stage.label} never ran")
                communication += seconds
            self.ctx.add_time(phase, stage.label, seconds)
            if stage.label == last:
                break
        return compression, communication


class AggregationScheme(abc.ABC):
    """A gradient aggregation protocol (compression + collective).

    A scheme declares its protocol in :meth:`protocol` and implements its
    numerics in ``_aggregate_batched`` (and, where it keeps a per-worker
    float64 reference, ``_aggregate_legacy``); validation, dispatch, pricing
    and timeline bookkeeping live here.
    """

    #: Short identifier used in experiment tables and the registry.
    name: str = "abstract"

    @abc.abstractmethod
    def protocol(self, num_coordinates: int, ctx: SimContext) -> tuple[Stage, ...]:
        """The round's stages on a ``d``-coordinate gradient, in execution order.

        Kernel stages carry their priced seconds; exchange stages carry the
        collective, the values each worker contributes and their wire width.
        Stage labels are the timeline labels, ``"<self.name>:<stage>"``.
        """

    def aggregate(
        self, worker_gradients: list[np.ndarray], ctx: SimContext
    ) -> AggregationResult:
        """Aggregate one gradient per worker into a mean estimate.

        Implementations must not modify the input gradients.
        """
        d, _ = self._validate_gradients(worker_gradients, ctx.world_size)
        ledger = RoundLedger(self, d, ctx)
        if ctx.batched:
            return self._aggregate_batched(worker_gradients, ctx, ledger)
        return self._aggregate_legacy(worker_gradients, ctx, ledger)

    def aggregate_matrix(
        self, matrix: np.ndarray, ctx: SimContext
    ) -> AggregationResult:
        """Aggregate a stacked ``(n_workers, d)`` gradient matrix.

        The batched entry point: wrappers (error feedback) hand the whole
        worker matrix over in one piece.  Implementations must not modify
        ``matrix``.
        """
        _, d = self._validate_matrix(matrix, ctx.world_size)
        return self._aggregate_batched(matrix, ctx, RoundLedger(self, d, ctx))

    def _aggregate_batched(
        self, rows, ctx: SimContext, ledger: RoundLedger
    ) -> AggregationResult:
        """The vectorized numerics over ``rows`` (a worker matrix or a list of
        per-worker vectors), ending in ``ledger.result(...)``."""
        raise NotImplementedError(
            f"{type(self).__name__} defines no batched kernel; implement "
            "_aggregate_batched or override aggregate and aggregate_matrix"
        )

    def _aggregate_legacy(
        self, worker_gradients: list[np.ndarray], ctx: SimContext, ledger: RoundLedger
    ) -> AggregationResult:
        """The per-worker reference numerics; defaults to the batched kernel."""
        return self._aggregate_batched(worker_gradients, ctx, ledger)

    @abc.abstractmethod
    def expected_bits_per_coordinate(self, num_coordinates: int, world_size: int) -> float:
        """The analytic ``b`` this scheme puts on the wire for a ``d``-sized gradient."""

    def estimate_costs(self, num_coordinates: int, ctx: SimContext) -> CostEstimate:
        """Price one aggregation round analytically, without gradient data.

        This is how the paper-scale throughput tables are produced: the
        kernel and collective cost models are evaluated at the real model
        size (hundreds of millions of coordinates) even though the functional
        simulation runs on smaller gradients.
        """
        _check_positive(num_coordinates)
        return _price(
            self.protocol(num_coordinates, ctx),
            self.expected_bits_per_coordinate(num_coordinates, ctx.world_size),
            ctx,
        )

    def bucket_protocols(
        self, num_coordinates: int, num_buckets: int, ctx: SimContext
    ) -> list[tuple[int, tuple[Stage, ...]]]:
        """The round split into up to ``num_buckets`` gradient buckets.

        Returns one ``(coordinates, stages)`` pair per bucket, where
        ``coordinates`` is the gradient size the bucket's bits per
        coordinate are reported over.  The default partitions the
        coordinates into near-equal buckets, each with its own protocol (each
        bucket pays its own collective latency, so the bucket times never
        sum to less than one monolithic round); layer-structured schemes
        (PowerSGD) partition whole layers instead.  Implementations may
        return fewer buckets than requested, never more.
        """
        if num_buckets <= 1:
            return [(num_coordinates, self.protocol(num_coordinates, ctx))]
        from repro.simulator.pipeline import split_coordinates

        sizes = split_coordinates(num_coordinates, num_buckets)
        # Near-equal buckets have at most two distinct sizes.
        protocols = {size: self.protocol(size, ctx) for size in set(sizes)}
        return [(size, protocols[size]) for size in sizes]

    def estimate_bucket_costs(
        self, num_coordinates: int, num_buckets: int, ctx: SimContext
    ) -> list[CostEstimate]:
        """Price one round split into up to ``num_buckets`` gradient buckets.

        The bucketed pipeline simulator (:mod:`repro.simulator.pipeline`)
        interleaves these with backward compute; each bucket is priced from
        its stage list in :meth:`bucket_protocols`.
        """
        _check_positive(num_coordinates)
        # Buckets that share one stage tuple (equal sizes) are priced once.
        priced: dict[tuple[int, int], CostEstimate] = {}
        estimates = []
        for coordinates, stages in self.bucket_protocols(num_coordinates, num_buckets, ctx):
            key = (coordinates, id(stages))
            if key not in priced:
                priced[key] = _price(
                    stages,
                    self.expected_bits_per_coordinate(coordinates, ctx.world_size),
                    ctx,
                )
            estimates.append(priced[key])
        return estimates

    def describe(self) -> str:
        """Human-readable one-line description (used in reports)."""
        return self.name

    def spec(self) -> str:
        """The canonical spec string of this instance.

        Round-trippable: ``make_scheme(scheme.spec())`` builds an identically
        configured scheme.  Provided automatically for every class registered
        with :func:`repro.compression.spec.register`.
        """
        family = getattr(type(self), "_spec_family", None)
        if family is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no spec-language registration; "
                "decorate the class with @repro.compression.spec.register(...)"
            )
        return family.format_instance(self)

    # ------------------------------------------------------------------ #
    # Shared validation helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_matrix(matrix: np.ndarray, world_size: int) -> tuple[int, int]:
        """Check a stacked worker matrix and return ``(n_workers, d)``."""
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D (one row per worker)")
        if matrix.shape[0] != world_size:
            raise ValueError(
                f"expected {world_size} worker rows, got {matrix.shape[0]}"
            )
        if matrix.shape[1] == 0:
            raise ValueError("gradients must be non-empty")
        return matrix.shape[0], matrix.shape[1]

    @staticmethod
    def _gather_rows(
        rows: "np.ndarray | list[np.ndarray]",
        out: np.ndarray,
        *,
        columns: int | None = None,
    ) -> np.ndarray:
        """Copy worker rows (a matrix or a list of vectors) into ``out``.

        ``columns`` restricts the copy to the first columns of ``out`` (the
        padded tail is left for the caller to clear).  Casting follows the
        destination dtype -- this is where the batched path drops to its
        float32 compute precision.
        """
        width = out.shape[1] if columns is None else columns
        for index in range(out.shape[0]):
            np.copyto(out[index, :width], rows[index], casting="unsafe")
        return out

    @staticmethod
    def _validate_gradients(
        worker_gradients: list[np.ndarray], world_size: int
    ) -> tuple[int, np.dtype]:
        """Check shapes/ranks and return (num_coordinates, dtype)."""
        if len(worker_gradients) != world_size:
            raise ValueError(
                f"expected {world_size} worker gradients, got {len(worker_gradients)}"
            )
        first = worker_gradients[0]
        if first.ndim != 1:
            raise ValueError("gradients must be flat 1-D vectors")
        for grad in worker_gradients[1:]:
            if grad.shape != first.shape:
                raise ValueError("all worker gradients must have the same shape")
        if first.size == 0:
            raise ValueError("gradients must be non-empty")
        return first.size, first.dtype


def _check_positive(num_coordinates: int) -> None:
    if num_coordinates <= 0:
        raise ValueError("num_coordinates must be positive")


def _price(
    stages: tuple[Stage, ...], bits_per_coordinate: float, ctx: SimContext
) -> CostEstimate:
    """Sum a stage list in protocol order into a :class:`CostEstimate`."""
    price = ctx.backend.collective_cost
    compression = communication = 0.0
    for stage in stages:
        if type(stage) is Kernel:
            compression += stage.seconds
        else:
            communication += stage.calls * price(
                stage.values * stage.wire_bits, stage.collective
            ).seconds
    return CostEstimate(compression, communication, bits_per_coordinate)
