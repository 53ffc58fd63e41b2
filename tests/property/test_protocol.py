"""Executed rounds against their declared protocol.

Every scheme states its round once, as ``protocol(d, ctx)``; pricing and the
executed round's bookkeeping are derived from it.  These properties pin the
derivation from the executed side:

* the kernel entries an executed round puts on the timeline are exactly the
  protocol's :class:`Kernel` stages, and its reported compression seconds
  are the priced ones;
* every collective the numeric code ships uses its exchange's declared
  collective and wire width and ships the declared value count -- except for
  three known gaps, asserted exactly below so that closing one is a
  deliberate change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.measures import paper_context
from repro.collectives.api import Collective, CollectiveBackend
from repro.compression.base import Exchange, Kernel, SimContext
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.hadamard import padded_size_for
from repro.compression.powersgd import PowerSGDCompressor
from repro.compression.precision import PrecisionBaseline
from repro.compression.registry import make_scheme
from repro.compression.thc import RotationMode, THCCompressor
from repro.compression.topkc import TopKChunkedCompressor
from repro.experiments.validation import REGISTRY_SPECS
from repro.simulator.cluster import paper_testbed
from repro.simulator.kernel_cost import KernelCostModel
from repro.simulator.timeline import PHASE_COMMUNICATION, RoundTimeline

EF_SPECS = ("ef(topk(b=2))", "ef(thc(q=4, rot=partial, agg=sat))", "ef(powersgd(r=4))")
SPECS = (*REGISTRY_SPECS, *EF_SPECS)
BACKENDS = ("batched", "legacy")
SIZES = (4096, 5773)


def _gradients(d: int, world_size: int) -> list[np.ndarray]:
    rng = np.random.default_rng(d)
    return [rng.standard_normal(d).astype(np.float32) for _ in range(world_size)]


@pytest.mark.parametrize("d", SIZES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("spec", SPECS)
def test_executed_round_equals_its_protocol(spec, backend, d):
    timeline = RoundTimeline()
    ctx = paper_context(seed=5, timeline=timeline, kernel_backend=backend)
    scheme = make_scheme(spec)
    result = scheme.aggregate(_gradients(d, ctx.world_size), ctx)
    stages = scheme.protocol(d, ctx)

    executed_kernels = [
        (entry.phase, entry.label, entry.seconds)
        for entry in timeline.entries
        if entry.phase != PHASE_COMMUNICATION
    ]
    declared_kernels = [tuple(stage) for stage in stages if type(stage) is Kernel]
    assert executed_kernels == declared_kernels
    assert [entry.label for entry in timeline.entries] == [stage.label for stage in stages]
    assert result.compression_seconds == pytest.approx(
        scheme.estimate_costs(d, ctx).compression_seconds, rel=1e-12
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_error_feedback_charges_its_residual_update(backend):
    timeline = RoundTimeline()
    ctx = paper_context(timeline=timeline, kernel_backend=backend)
    scheme = make_scheme("ef(topkc(b=2))")
    scheme.aggregate(_gradients(4096, ctx.world_size), ctx)
    assert timeline.entries[-1].label == f"{scheme.name}:residual_update"
    assert timeline.entries[-1].seconds == 2 * ctx.kernels.elementwise_sum_time(4096)


def test_zero_norm_round_charges_only_the_norm_exchange():
    timeline = RoundTimeline()
    ctx = paper_context(timeline=timeline)
    scheme = make_scheme("qsgd(q=4, agg=sat)")
    zeros = [np.zeros(64, dtype=np.float32) for _ in range(ctx.world_size)]
    result = scheme.aggregate(zeros, ctx)
    assert [entry.label for entry in timeline.entries] == [f"{scheme.name}:norm_allreduce"]
    assert result.compression_seconds == 0.0
    assert result.communication_seconds == timeline.entries[0].seconds > 0


class AuditedPrecisionBaseline(PrecisionBaseline):
    """A scheme grown by one stage: a single edit to ``protocol``."""

    def protocol(self, num_coordinates, ctx):
        return super().protocol(num_coordinates, ctx) + (
            Kernel.decompress(f"{self.name}:audit", 1e-3),
        )


def test_a_new_stage_is_one_protocol_edit():
    timeline = RoundTimeline()
    ctx = paper_context(timeline=timeline)
    plain, audited = PrecisionBaseline(), AuditedPrecisionBaseline()
    d = 1_000_000

    assert audited.estimate_costs(d, ctx).compression_seconds == pytest.approx(
        plain.estimate_costs(d, ctx).compression_seconds + 1e-3, rel=1e-12
    )
    for with_audit, without in zip(
        audited.estimate_bucket_costs(d, 4, ctx), plain.estimate_bucket_costs(d, 4, ctx)
    ):
        assert with_audit.compression_seconds == pytest.approx(
            without.compression_seconds + 1e-3, rel=1e-12
        )
        assert with_audit.communication_seconds == without.communication_seconds

    audited.aggregate(_gradients(256, ctx.world_size), ctx)
    assert (timeline.entries[-1].label, timeline.entries[-1].seconds) == (
        f"{audited.name}:audit",
        1e-3,
    )


# --------------------------------------------------------------------------- #
# Declared vs shipped traffic
# --------------------------------------------------------------------------- #
class TrafficBackend(CollectiveBackend):
    """Records, per call, the collective, wire width and per-worker values."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.calls: list[tuple[Collective, float, int]] = []

    def allreduce(self, worker_vectors, *, wire_bits_per_value, op=None,
                  collective=Collective.RING_ALLREDUCE):
        assert len({vector.size for vector in worker_vectors}) == 1
        self.calls.append((collective, wire_bits_per_value, worker_vectors[0].size))
        return super().allreduce(
            worker_vectors, wire_bits_per_value=wire_bits_per_value, op=op,
            collective=collective,
        )

    def allreduce_matrix(self, matrix, *, wire_bits_per_value, op=None,
                         collective=Collective.RING_ALLREDUCE):
        self.calls.append((collective, wire_bits_per_value, matrix.shape[1]))
        return super().allreduce_matrix(
            matrix, wire_bits_per_value=wire_bits_per_value, op=op, collective=collective
        )

    def allgather_sections(self, worker_sections, *, wire_bits_per_section):
        sizes = {section.size for sections in worker_sections for section in sections}
        assert len(sizes) == 1  # every section carries one entry per value
        self.calls.append((Collective.ALLGATHER, sum(wire_bits_per_section), sizes.pop()))
        return super().allgather_sections(
            worker_sections, wire_bits_per_section=wire_bits_per_section
        )

    def collective_cost(self, payload_bits, collective):
        # The stacked matrix already holds the gathered rows (batched TopK):
        # only the price is asked for, so record it as a payload in bits.
        self.calls.append((collective, None, payload_bits))
        return super().collective_cost(payload_bits, collective)


def _innermost(scheme):
    while isinstance(scheme, ErrorFeedback):
        scheme = scheme.scheme
    return scheme


def _expected_calls(scheme, exchange: Exchange, d: int, ctx: SimContext) -> int:
    inner = _innermost(scheme)
    if isinstance(inner, PowerSGDCompressor) and exchange.label.endswith(":factor_allreduce"):
        # Known gap: declared as 2 bucketed calls, run as one P and one Q
        # all-reduce per layer.
        return 2 * len(inner._shapes_for(d))
    return exchange.calls


def _expected_values(scheme, exchange: Exchange, d: int, ctx: SimContext) -> int:
    """The value count the numerics ship, where it differs from the declared one."""
    inner = _innermost(scheme)
    if isinstance(inner, THCCompressor):
        # Known gap: the numerics ship the power-of-two padded vector (and
        # one range per padded chunk), where pricing declares d values.
        padded = padded_size_for(d)
        if exchange.label.endswith(":int_allreduce"):
            return padded
        rotation = inner._make_rotation(ctx)
        return 1 if rotation is None else padded // rotation.chunk_elements(padded)
    return exchange.values * exchange.calls


@pytest.mark.parametrize("d", SIZES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("spec", SPECS)
def test_shipped_traffic_matches_declared_exchanges(spec, backend, d):
    cluster = paper_testbed()
    traffic = TrafficBackend(cluster)
    ctx = SimContext(
        backend=traffic,
        kernels=KernelCostModel(gpu=cluster.gpu),
        rng=np.random.default_rng(5),
        kernel_backend=backend,
    )
    scheme = make_scheme(spec)
    scheme.aggregate(_gradients(d, ctx.world_size), ctx)
    exchanges = [stage for stage in scheme.protocol(d, ctx) if type(stage) is Exchange]

    calls = list(traffic.calls)
    for exchange in exchanges:
        count = _expected_calls(scheme, exchange, d, ctx)
        made, calls = calls[:count], calls[count:]
        assert len(made) == count, exchange.label
        shipped = 0
        for collective, wire_bits, values in made:
            assert collective is exchange.collective, exchange.label
            if wire_bits is None:  # priced only: the record is the payload
                assert values % exchange.wire_bits == 0
                values //= exchange.wire_bits
            else:
                assert wire_bits == exchange.wire_bits, exchange.label
            shipped += values
        expected = _expected_values(scheme, exchange, d, ctx)
        if isinstance(_innermost(scheme), TopKChunkedCompressor) and exchange.label.endswith(
            ":value_allreduce"
        ):
            # Known gap: a selected short last chunk ships fewer values than
            # the J * C the exchange declares -- never more.
            assert expected - _innermost(scheme).chunk_size < shipped <= expected
        else:
            assert shipped == expected, exchange.label
    assert calls == [], "calls beyond the declared exchanges"


def test_thc_padding_gap_is_real_at_non_power_of_two_sizes():
    # The padded-traffic gap above is not vacuous: at d=5773 the full
    # rotation ships 8192 level values against 5773 declared.
    cluster = paper_testbed()
    traffic = TrafficBackend(cluster)
    ctx = SimContext(backend=traffic, kernels=KernelCostModel(gpu=cluster.gpu))
    scheme = THCCompressor(4, rotation=RotationMode.FULL)
    scheme.aggregate(_gradients(5773, ctx.world_size), ctx)
    declared = [s.values for s in scheme.protocol(5773, ctx) if type(s) is Exchange]
    assert declared == [1, 5773]
    assert [values for _, _, values in traffic.calls] == [1, 8192]
