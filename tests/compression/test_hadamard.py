"""Unit tests for the randomized Hadamard transform."""

import math

import numpy as np
import pytest

from repro.compression.hadamard import (
    HadamardRotation,
    _butterfly_passes,
    depth_for_shared_memory,
    full_depth,
    pad_to_power_of_two,
)


class TestPadding:
    def test_power_of_two_untouched(self):
        vector = np.arange(8, dtype=float)
        padded = pad_to_power_of_two(vector)
        assert padded.size == 8
        np.testing.assert_array_equal(padded, vector)

    def test_padding_appends_zeros(self):
        padded = pad_to_power_of_two(np.ones(5))
        assert padded.size == 8
        np.testing.assert_array_equal(padded[5:], np.zeros(3))

    def test_scalar_padded_to_two(self):
        assert pad_to_power_of_two(np.ones(1)).size == 2

    def test_preserves_dtype(self):
        """No silent float64 promotion: float32 stays float32 (half the memory)."""
        assert pad_to_power_of_two(np.ones(5, dtype=np.float32)).dtype == np.float32
        assert pad_to_power_of_two(np.ones(8, dtype=np.float32)).dtype == np.float32
        assert pad_to_power_of_two(np.ones(5, dtype=np.float64)).dtype == np.float64

    def test_power_of_two_is_copy_free_by_default(self):
        vector = np.arange(16, dtype=np.float32)
        assert pad_to_power_of_two(vector) is vector

    def test_copy_flag_forces_a_copy(self):
        vector = np.arange(16, dtype=np.float32)
        padded = pad_to_power_of_two(vector, copy=True)
        assert padded is not vector
        np.testing.assert_array_equal(padded, vector)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pad_to_power_of_two(np.array([]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            pad_to_power_of_two(np.ones((2, 2)))

    def test_full_depth(self):
        assert full_depth(1024) == 10

    def test_full_depth_rejects_non_power(self):
        with pytest.raises(ValueError):
            full_depth(100)


class TestRotation:
    def test_roundtrip_full(self, rng):
        vector = rng.standard_normal(1000)
        rotation = HadamardRotation(seed=3)
        rotated, original_size = rotation.forward(vector)
        recovered = rotation.inverse(rotated, original_size)
        np.testing.assert_allclose(recovered, vector, atol=1e-10)

    def test_roundtrip_partial(self, rng):
        vector = rng.standard_normal(4096)
        rotation = HadamardRotation(seed=3, depth=5)
        rotated, original_size = rotation.forward(vector)
        recovered = rotation.inverse(rotated, original_size)
        np.testing.assert_allclose(recovered, vector, atol=1e-10)

    def test_preserves_norm(self, rng):
        vector = rng.standard_normal(2048)
        rotated, _ = HadamardRotation(seed=1).forward(vector)
        assert np.linalg.norm(rotated) == pytest.approx(np.linalg.norm(vector), rel=1e-10)

    def test_reduces_dynamic_range_of_spiky_vectors(self):
        vector = np.zeros(4096)
        vector[7] = 100.0
        rotated, _ = HadamardRotation(seed=0).forward(vector)
        assert np.max(np.abs(rotated)) < np.max(np.abs(vector))

    def test_same_seed_same_rotation(self, rng):
        vector = rng.standard_normal(512)
        first, _ = HadamardRotation(seed=9).forward(vector)
        second, _ = HadamardRotation(seed=9).forward(vector)
        np.testing.assert_array_equal(first, second)

    def test_different_seed_different_rotation(self, rng):
        vector = rng.standard_normal(512)
        first, _ = HadamardRotation(seed=9).forward(vector)
        second, _ = HadamardRotation(seed=10).forward(vector)
        assert not np.allclose(first, second)

    def test_rotation_is_linear_so_sums_commute(self, rng):
        # The property that makes THC all-reduce compatible: rotating each
        # worker's gradient and summing equals rotating the sum.
        rotation = HadamardRotation(seed=5)
        a = rng.standard_normal(256)
        b = rng.standard_normal(256)
        rotated_sum = rotation.forward(a + b)[0]
        sum_of_rotated = rotation.forward(a)[0] + rotation.forward(b)[0]
        np.testing.assert_allclose(rotated_sum, sum_of_rotated, atol=1e-10)

    def test_partial_depth_zero_only_signs(self, rng):
        vector = rng.standard_normal(64)
        rotation = HadamardRotation(seed=2, depth=0)
        rotated, _ = rotation.forward(vector)
        np.testing.assert_allclose(np.abs(rotated), np.abs(vector), atol=1e-12)

    def test_effective_depth_clamped(self):
        rotation = HadamardRotation(seed=0, depth=100)
        assert rotation.effective_depth(1024) == 10

    def test_chunk_elements(self):
        assert HadamardRotation(seed=0, depth=4).chunk_elements(1024) == 16

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            HadamardRotation(depth=-1)

    def test_inverse_rejects_bad_size(self, rng):
        rotation = HadamardRotation(seed=0)
        rotated, _ = rotation.forward(rng.standard_normal(16))
        with pytest.raises(ValueError):
            rotation.inverse(rotated, 100)


def _copying_butterfly_passes(vector: np.ndarray, depth: int) -> np.ndarray:
    """The earlier copy-per-pass butterfly loop, kept as a bit-exact oracle."""
    data = vector.reshape(-1)
    size = data.size
    stride = 1
    for _ in range(depth):
        shaped = data.reshape(size // (2 * stride), 2, stride)
        upper = shaped[:, 0, :].copy()
        lower = shaped[:, 1, :].copy()
        shaped[:, 0, :] = (upper + lower) / math.sqrt(2.0)
        shaped[:, 1, :] = (upper - lower) / math.sqrt(2.0)
        data = shaped.reshape(size)
        stride *= 2
    return data


class TestButterflyPasses:
    @pytest.mark.parametrize("depth", range(14))
    def test_bit_identical_to_copying_loop(self, depth):
        rng = np.random.default_rng(1000 + depth)
        for size_exponent in sorted({depth, depth + 2}):
            size = 1 << max(1, size_exponent)
            for scale in (1e-30, 1.0, 1e30):
                vector = rng.standard_normal(size) * scale
                expected = _copying_butterfly_passes(vector.copy(), depth)
                actual = _butterfly_passes(vector.copy(), depth)
                assert actual.dtype == expected.dtype
                assert actual.tobytes() == expected.tobytes()


class TestSharedMemoryDepth:
    def test_a100_depth(self):
        # 164 KiB of shared memory and 4-byte values -> 2^15 values fit.
        assert depth_for_shared_memory(164 * 1024, 4) == 15

    def test_tiny_memory(self):
        assert depth_for_shared_memory(4, 4) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            depth_for_shared_memory(0)
        with pytest.raises(ValueError):
            depth_for_shared_memory(1024, 0)
