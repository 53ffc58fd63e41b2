"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.collectives.ops import SaturatingSumOp, SumOp
from repro.collectives.ring import ring_allreduce, ring_reduce_scatter
from repro.collectives.tree import tree_allreduce
from repro.compression.hadamard import HadamardRotation
from repro.compression.quantization import StochasticQuantizer
from repro.compression.topk import TopKCompressor, k_for_bits_per_coordinate, topk_indices
from repro.compression.topkc import TopKChunkedCompressor, num_top_chunks_for_bits
from repro.core.metrics import vnmse
from repro.core.tta import TTACurve, rolling_average

# Reusable strategies ------------------------------------------------------ #

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False, width=32
)


def vectors(min_size=1, max_size=256):
    return hnp.arrays(
        dtype=np.float64, shape=st.integers(min_size, max_size), elements=finite_floats
    )


def worker_vector_lists(min_workers=2, max_workers=6, min_size=1, max_size=128):
    return st.integers(min_workers, max_workers).flatmap(
        lambda n: st.integers(min_size, max_size).flatmap(
            lambda d: st.lists(
                hnp.arrays(dtype=np.float64, shape=d, elements=finite_floats),
                min_size=n,
                max_size=n,
            )
        )
    )


# Collectives --------------------------------------------------------------- #


class TestCollectiveProperties:
    @given(worker_vector_lists())
    @settings(max_examples=40, deadline=None)
    def test_ring_allreduce_matches_sum(self, vectors_list):
        result = ring_allreduce(vectors_list, SumOp())
        np.testing.assert_allclose(
            result, np.sum(vectors_list, axis=0), rtol=1e-9, atol=1e-9
        )

    @given(worker_vector_lists())
    @settings(max_examples=40, deadline=None)
    def test_tree_equals_ring_for_associative_op(self, vectors_list):
        ring = ring_allreduce(vectors_list, SumOp())
        tree = tree_allreduce(vectors_list, SumOp())
        np.testing.assert_allclose(ring, tree, rtol=1e-9, atol=1e-9)

    @given(worker_vector_lists())
    @settings(max_examples=40, deadline=None)
    def test_reduce_scatter_concatenates_to_allreduce(self, vectors_list):
        blocks = ring_reduce_scatter(vectors_list, SumOp())
        np.testing.assert_allclose(
            np.concatenate([np.atleast_1d(b) for b in blocks]),
            ring_allreduce(vectors_list, SumOp()),
            rtol=1e-9,
            atol=1e-9,
        )

    @given(worker_vector_lists(), st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_saturating_sum_bounded(self, vectors_list, bits):
        op = SaturatingSumOp(bits=bits)
        integer_vectors = [np.rint(v).astype(np.int64) for v in vectors_list]
        result = ring_allreduce(integer_vectors, op)
        assert np.all(np.abs(result) <= op.max_value)


# Sparsification ------------------------------------------------------------ #


class TestSparsificationProperties:
    @given(vectors(min_size=2), st.integers(0, 64))
    @settings(max_examples=60, deadline=None)
    def test_topk_indices_select_a_max_magnitude_subset(self, vector, k):
        k = min(k, vector.size)
        indices = topk_indices(vector, k)
        assert indices.size == min(k, vector.size)
        assert len(set(indices.tolist())) == indices.size
        if 0 < k < vector.size:
            selected_min = np.min(np.abs(vector[indices]))
            not_selected = np.delete(np.abs(vector), indices)
            assert selected_min >= np.max(not_selected) - 1e-12

    @given(
        st.floats(min_value=0.2, max_value=16.0, allow_nan=False),
        st.integers(100, 100_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_topk_bits_within_budget(self, bits, d):
        k = k_for_bits_per_coordinate(bits, d)
        achieved = 48.0 * k / d
        # Never more than one coordinate's worth above the requested budget.
        assert achieved <= bits + 48.0 / d + 1e-9

    @given(
        st.floats(min_value=0.3, max_value=16.0, allow_nan=False),
        st.integers(1_000, 1_000_000),
        st.sampled_from([32, 64, 128, 256]),
    )
    @settings(max_examples=60, deadline=None)
    def test_topkc_bits_formula_within_budget(self, bits, d, chunk):
        if 16.0 / chunk >= bits:
            return
        j = num_top_chunks_for_bits(bits, d, chunk)
        achieved = 16.0 * (j * chunk / d + 1.0 / chunk)
        assert achieved <= bits + 16.0 * chunk / d + 1e-9

    @given(vectors(min_size=64, max_size=512))
    @settings(max_examples=30, deadline=None)
    def test_topk_decompress_support_and_values(self, vector):
        compressor = TopKCompressor(8.0)
        indices, values = compressor.compress(vector.astype(np.float32))
        dense = compressor.decompress(indices, values, vector.size)
        assert np.count_nonzero(dense) <= indices.size
        np.testing.assert_allclose(
            dense[indices], vector[indices].astype(np.float16), atol=1e-2, rtol=1e-2
        )


# Quantization and rotation -------------------------------------------------- #


class TestQuantizationProperties:
    @given(vectors(min_size=1, max_size=512), st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_quantization_error_bounded_by_one_step(self, vector, bits):
        quantizer = StochasticQuantizer(bits)
        quantized = quantizer.quantize(vector, np.random.default_rng(0))
        recovered = quantizer.dequantize(quantized)
        assert np.all(np.abs(recovered - vector) <= quantized.scale + 1e-9)

    @given(vectors(min_size=1, max_size=512), st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_quantization_levels_in_range(self, vector, bits):
        quantizer = StochasticQuantizer(bits)
        quantized = quantizer.quantize(vector, np.random.default_rng(1))
        assert np.all(np.abs(quantized.levels) <= quantizer.max_level)

    @given(vectors(min_size=2, max_size=1024), st.integers(0, 61), st.one_of(st.none(), st.integers(0, 12)))
    @settings(max_examples=60, deadline=None)
    def test_hadamard_roundtrip_and_isometry(self, vector, seed, depth):
        rotation = HadamardRotation(seed=seed, depth=depth)
        rotated, original_size = rotation.forward(vector)
        assert np.linalg.norm(rotated) == pytest.approx(
            np.linalg.norm(vector), rel=1e-9, abs=1e-9
        )
        recovered = rotation.inverse(rotated, original_size)
        np.testing.assert_allclose(recovered, vector, atol=1e-8)


# Aggregation schemes -------------------------------------------------------- #


class TestAggregationProperties:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.5, 2.0, 8.0]))
    @settings(max_examples=20, deadline=None)
    def test_topkc_error_less_than_sending_nothing(self, seed, bits):
        from repro.api.measures import paper_context

        rng = np.random.default_rng(seed)
        d = 1 << 12
        shared = rng.standard_normal(d)
        gradients = [
            (shared + 0.5 * rng.standard_normal(d)).astype(np.float32) for _ in range(4)
        ]
        true_mean = np.mean(np.stack(gradients), axis=0)
        result = TopKChunkedCompressor(bits).aggregate(gradients, paper_context())
        assert vnmse(result.mean_estimate, true_mean) < 1.0


# TTA curves ----------------------------------------------------------------- #


class TestTTAProperties:
    @given(vectors(min_size=1, max_size=128), st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_rolling_average_stays_within_bounds(self, values, window):
        smoothed = rolling_average(values, window)
        assert smoothed.size == values.size
        assert np.all(smoothed >= values.min() - 1e-9)
        assert np.all(smoothed <= values.max() + 1e-9)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=64),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_time_to_target_consistent_with_value_at_time(self, values, target):
        times = np.arange(len(values), dtype=float)
        curve = TTACurve(label="p", times=times, values=np.array(values), improves="up")
        reached_at = curve.time_to_target(target)
        if reached_at is None:
            assert curve.best_value() < target
        else:
            assert curve.value_at_time(reached_at) >= target

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=64)
    )
    @settings(max_examples=40, deadline=None)
    def test_time_to_target_monotone_in_target(self, values):
        times = np.arange(len(values), dtype=float)
        curve = TTACurve(label="p", times=times, values=np.array(values), improves="up")
        low = curve.time_to_target(0.25)
        high = curve.time_to_target(0.75)
        if low is not None and high is not None:
            assert low <= high
        if low is None:
            assert high is None


# Metrics --------------------------------------------------------------------- #


class TestMetricProperties:
    @given(vectors(min_size=1), vectors(min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_vnmse_nonnegative_and_zero_only_for_equal(self, estimate, reference):
        if estimate.size != reference.size:
            estimate = estimate[: reference.size]
            reference = reference[: estimate.size]
        if estimate.size == 0 or not np.any(reference):
            return
        value = vnmse(estimate, reference)
        assert value >= 0.0
        if np.array_equal(estimate, reference):
            assert value == pytest.approx(0.0)

    @given(vectors(min_size=1), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_vnmse_scales_quadratically(self, reference, factor):
        if not np.any(reference):
            return
        base = vnmse(np.zeros_like(reference), reference)
        scaled = vnmse(reference * (1 - factor), reference)
        assert base == pytest.approx(1.0)
        # ||(1 - f) r - r||^2 / ||r||^2 = f^2.
        assert scaled == pytest.approx(factor**2, rel=1e-6, abs=1e-9)
