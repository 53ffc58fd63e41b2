"""Per-round time accounting.

A training round in the paper's system consists of forward/backward compute,
gradient compression kernels, the collective communication of the compressed
payload, and decompression/optimizer work.  :class:`RoundTimeline` collects
named contributions in each of those categories and reports the total round
time plus the breakdown the paper uses for its profiling claims (e.g. "TopK's
computation takes ~10 % of the training time", Table 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


#: Canonical phase names used throughout the experiments.
PHASE_COMPUTE = "compute"
PHASE_COMPRESSION = "compression"
PHASE_COMMUNICATION = "communication"
PHASE_DECOMPRESSION = "decompression"
PHASE_OPTIMIZER = "optimizer"

ALL_PHASES = (
    PHASE_COMPUTE,
    PHASE_COMPRESSION,
    PHASE_COMMUNICATION,
    PHASE_DECOMPRESSION,
    PHASE_OPTIMIZER,
)


@dataclass(frozen=True)
class TimelineEntry:
    """One named contribution to a round's time."""

    phase: str
    label: str
    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("seconds must be non-negative")
        if self.phase not in ALL_PHASES:
            raise ValueError(f"unknown phase {self.phase!r}; expected one of {ALL_PHASES}")


@dataclass
class RoundTimeline:
    """Accumulates the simulated time of one training round.

    Phases add up serially; to model pipelining, stragglers, or
    heterogeneous clusters build a per-bucket schedule with
    :mod:`repro.simulator.pipeline` instead.
    """

    entries: list[TimelineEntry] = field(default_factory=list)

    def add(self, phase: str, label: str, seconds: float) -> None:
        """Record ``seconds`` of simulated time under ``phase``/``label``."""
        self.entries.append(TimelineEntry(phase=phase, label=label, seconds=seconds))

    def extend(self, entries: Iterable[TimelineEntry]) -> None:
        """Record several entries at once."""
        for entry in entries:
            self.entries.append(entry)

    def phase_time(self, phase: str) -> float:
        """Total time attributed to one phase."""
        return sum(entry.seconds for entry in self.entries if entry.phase == phase)

    def breakdown(self) -> dict[str, float]:
        """Total time per phase, for every phase (zero if unused)."""
        return {phase: self.phase_time(phase) for phase in ALL_PHASES}

    def total_time(self) -> float:
        """Total round time: the plain sum of every phase."""
        return sum(self.phase_time(phase) for phase in ALL_PHASES)

    def compression_fraction(self) -> float:
        """Fraction of round time spent in compression + decompression kernels.

        This is the "compression overhead" quantity of Table 6.
        """
        total = self.total_time()
        if total == 0:
            return 0.0
        heavy = self.phase_time(PHASE_COMPRESSION) + self.phase_time(PHASE_DECOMPRESSION)
        return heavy / total

    def rounds_per_second(self) -> float:
        """Throughput implied by this round's total time."""
        total = self.total_time()
        if total <= 0:
            raise ValueError("cannot compute throughput of an empty timeline")
        return 1.0 / total

    def merged_with(self, other: "RoundTimeline") -> "RoundTimeline":
        """Return a new timeline containing the entries of both."""
        merged = RoundTimeline()
        merged.extend(self.entries)
        merged.extend(other.entries)
        return merged
