"""Cost models for the compression kernels the paper profiles.

The paper attributes degraded end-to-end performance to a handful of
computationally heavy components:

* **Top-k selection and coordinate rearrangement** (section 3.1.1) -- poor
  memory locality makes this a major bottleneck, ~10 % of round time.
* **Randomized Hadamard Transform** (section 3.2.1) -- O(d log d) work and,
  for large d, spill out of shared memory into global memory; 4.4 % / 13.2 %
  throughput penalty for BERT / VGG19.
* **Matrix orthogonalization in PowerSGD** (section 3.3) -- 39.7 % / 47.4 %
  of round time at rank 64.

Each method returns a simulated execution time on one GPU for a gradient of
``d`` coordinates.  The constants are chosen so the *relative* overheads match
the paper's profiling on the paper-testbed preset; see EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.simulator.gpu import GpuModel, Precision


@dataclass(frozen=True)
class KernelCostModel:
    """Per-kernel timing model layered on top of a :class:`GpuModel`.

    Attributes:
        gpu: The underlying GPU arithmetic/memory model.
        topk_selection_factor: Extra work factor for top-k selection relative
            to a single scan (radix-select style algorithms make several
            passes over the candidate array).
        rearrangement_bytes_per_value: Bytes touched per gathered coordinate
            when packing selected values and indices (value + index read/write).
        orthogonalization_flops_factor: Constant in the 2*d*r^2 Gram-Schmidt
            FLOP count (accounts for the two matmuls in a PowerSGD step plus
            the orthogonalization itself).
    """

    gpu: GpuModel = field(default_factory=GpuModel)
    topk_selection_factor: float = 3.0
    rearrangement_bytes_per_value: float = 24.0
    orthogonalization_flops_factor: float = 6.0

    # ------------------------------------------------------------------ #
    # Sparsification kernels
    # ------------------------------------------------------------------ #
    def topk_select_time(self, d: int, k: int) -> float:
        """Time to find the top-``k`` magnitude coordinates out of ``d``.

        Modelled as a multi-pass scan over the candidate array with a random
        access penalty (the paper cites Shanbhag et al. on GPU top-k being
        memory-bound with poor locality).
        """
        _validate_sizes(d=d, k=k)
        if k == 0 or d == 0:
            return 0.0
        scan = self.gpu.memory_time(
            d * 4.0 * self.topk_selection_factor, sequential=False
        )
        compute = self.gpu.compute_time(d * self.topk_selection_factor * 2.0)
        return max(scan, compute)

    def rearrangement_time(self, k: int) -> float:
        """Time to gather ``k`` selected values and their indices into a packed buffer."""
        _validate_sizes(k=k)
        if k == 0:
            return 0.0
        return self.gpu.memory_time(
            k * self.rearrangement_bytes_per_value, sequential=False
        )

    def scatter_time(self, k: int) -> float:
        """Time to scatter ``k`` (value, index) pairs back into a dense gradient."""
        return self.rearrangement_time(k)

    def chunk_norm_time(self, d: int, chunk_size: int) -> float:
        """Time to compute per-chunk squared L2 norms (TopKC stage 1).

        This is a sequential reduction over the whole gradient -- the
        GPU-friendly access pattern is the point of the TopKC design.
        """
        _validate_sizes(d=d)
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if d == 0:
            return 0.0
        return self.gpu.elementwise_time(
            d, flops_per_element=2.0, bytes_per_element=4.0, sequential=True
        )

    def chunk_gather_time(self, num_selected_coordinates: int) -> float:
        """Time to copy the selected chunks into the all-reduce input buffer.

        Chunks are contiguous, so this is a sequential copy (read + write).
        """
        _validate_sizes(k=num_selected_coordinates)
        if num_selected_coordinates == 0:
            return 0.0
        return self.gpu.memory_time(num_selected_coordinates * 8.0, sequential=True)

    # ------------------------------------------------------------------ #
    # Quantization kernels
    # ------------------------------------------------------------------ #
    def hadamard_time(self, d: int, depth: int | None = None) -> float:
        """Time of a randomized Hadamard transform over ``d`` coordinates.

        A full RHT on a vector padded to 2**l performs l butterfly passes
        (O(d log d) work).  ``depth`` limits the number of passes (partial
        rotation).  A kernel can keep a 2**s-sized tile in shared memory and
        perform s passes per trip through global memory, so the global-memory
        traffic grows with ``ceil(depth / s)`` kernel groups -- this is
        exactly the spill effect the partial-rotation optimisation removes by
        picking ``depth <= s``.
        """
        _validate_sizes(d=d)
        if d == 0:
            return 0.0
        padded = 1 << max(1, math.ceil(math.log2(max(2, d))))
        full_depth = int(math.log2(padded))
        if depth is None:
            depth = full_depth
        if depth < 0:
            raise ValueError("depth must be non-negative")
        depth = min(depth, full_depth)
        if depth == 0:
            return 0.0

        shared_values = max(2, self.gpu.memory.max_shared_elements(4))
        shared_depth = max(1, int(math.log2(shared_values)))
        kernel_groups = -(-depth // shared_depth)
        bytes_moved = padded * 4.0 * 2.0 * kernel_groups
        compute = self.gpu.compute_time(padded * depth * 2.0, Precision.FP32)
        memory = self.gpu.memory_time(bytes_moved, sequential=True)
        return max(compute, memory)

    def quantize_time(self, d: int, bits: int) -> float:
        """Time of stochastic quantization of ``d`` values into ``bits``-bit integers."""
        _validate_sizes(d=d)
        if bits <= 0:
            raise ValueError("bits must be positive")
        if d == 0:
            return 0.0
        return self.gpu.elementwise_time(
            d, flops_per_element=4.0, bytes_per_element=4.0 + bits / 8.0
        )

    def dequantize_time(self, d: int, bits: int) -> float:
        """Time to expand ``d`` quantized values back to floating point."""
        return self.quantize_time(d, bits)

    # ------------------------------------------------------------------ #
    # Low-rank decomposition kernels
    # ------------------------------------------------------------------ #
    #: Small GPU kernels launched per Gram-Schmidt column (projection,
    #: subtraction, norm, division) -- the orthogonalization's cost is
    #: dominated by this serial chain of tiny launches, not by FLOPs, which is
    #: what makes it "overwhelmingly expensive" in the paper's profiling.
    orthogonalization_launches_per_column: int = 3

    def powersgd_time(self, d: int, rank: int, *, rows: int | None = None) -> float:
        """Time of one PowerSGD compression step on a ``d``-coordinate layer.

        PowerSGD reshapes the layer into an (m x n) matrix with m*n = d and
        computes P = M Q (two dense matmuls per step), orthogonalizes P
        (Gram-Schmidt), then computes Q = M^T P.  The matmuls run at tensor-
        core rate; the orthogonalization is a serial chain of per-column
        kernels with poor GPU utilisation (see
        :meth:`orthogonalization_time`), which the paper's profiling shows
        dominating the round at r = 64.
        """
        matmuls, orthogonalization = self.powersgd_stage_times(d, rank, rows=rows)
        return matmuls + orthogonalization

    def powersgd_stage_times(
        self, d: int, rank: int, *, rows: int | None = None
    ) -> tuple[float, float]:
        """:meth:`powersgd_time` split into ``(matmuls, orthogonalization)``."""
        _validate_sizes(d=d)
        if rank <= 0:
            raise ValueError("rank must be positive")
        if d == 0:
            return 0.0, 0.0
        m = rows if rows is not None else max(1, int(math.sqrt(d)))
        if m <= 0:
            raise ValueError("rows must be positive")
        n = max(1, d // m)
        matmul_flops = 2.0 * 2.0 * m * n * rank
        matmul = 2 * self.gpu.kernel_launch_overhead_s + self.gpu.compute_time(
            matmul_flops, Precision.FP16
        )
        return matmul, self.orthogonalization_time(d, rank, rows=rows)

    def orthogonalization_time(self, d: int, rank: int, *, rows: int | None = None) -> float:
        """Time of the Gram-Schmidt orthogonalization of an (m x rank) factor.

        Modelled as ``rank`` sequential column steps, each a handful of small
        kernel launches plus the strided traffic of projecting against the
        previous columns.  Launch overhead dominates for realistic shapes,
        matching the paper's observation that orthogonalization consumes
        ~40-47 % of the round time at rank 64 despite negligible FLOPs.
        """
        _validate_sizes(d=d)
        if rank <= 0:
            raise ValueError("rank must be positive")
        if d == 0:
            return 0.0
        m = rows if rows is not None else max(1, int(math.sqrt(d)))
        if m <= 0:
            raise ValueError("rows must be positive")
        launch_seconds = (
            rank
            * self.orthogonalization_launches_per_column
            * self.gpu.kernel_launch_overhead_s
        )
        ortho_flops = self.orthogonalization_flops_factor * m * rank * rank
        ortho_compute = ortho_flops / self.gpu.flops_per_second(Precision.FP32)
        ortho_memory = (m * rank * 4.0 * rank * 0.5) / (
            self.gpu.memory.global_bandwidth_gbps * 1e9
        ) * self.gpu.memory.random_access_penalty
        return launch_seconds + max(ortho_compute, ortho_memory)

    # ------------------------------------------------------------------ #
    # Generic kernels
    # ------------------------------------------------------------------ #
    def cast_time(self, d: int, from_bits: int = 32, to_bits: int = 16) -> float:
        """Time to cast ``d`` values between precisions (e.g. FP32 -> FP16)."""
        _validate_sizes(d=d)
        if from_bits <= 0 or to_bits <= 0:
            raise ValueError("bit widths must be positive")
        if d == 0:
            return 0.0
        return self.gpu.memory_time(d * (from_bits + to_bits) / 8.0, sequential=True)

    def elementwise_sum_time(self, d: int, precision: Precision = Precision.FP32) -> float:
        """Time of an elementwise vector addition (local reduction of one block)."""
        _validate_sizes(d=d)
        if d == 0:
            return 0.0
        bytes_per_element = 3.0 * precision.bits / 8.0
        return self.gpu.elementwise_time(
            d, flops_per_element=1.0, bytes_per_element=bytes_per_element, precision=precision
        )


def _validate_sizes(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
