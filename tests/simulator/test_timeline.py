"""Unit tests for per-round timeline accounting."""

import pytest

from repro.simulator.timeline import (
    ALL_PHASES,
    PHASE_COMMUNICATION,
    PHASE_COMPRESSION,
    PHASE_COMPUTE,
    PHASE_DECOMPRESSION,
    RoundTimeline,
    TimelineEntry,
)


class TestTimelineEntry:
    def test_rejects_negative_seconds(self):
        with pytest.raises(ValueError):
            TimelineEntry(PHASE_COMPUTE, "fwd", -1.0)

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError):
            TimelineEntry("warmup", "x", 1.0)

    def test_valid_entry(self):
        entry = TimelineEntry(PHASE_COMPUTE, "fwd", 0.5)
        assert entry.seconds == 0.5


class TestRoundTimeline:
    def test_empty_breakdown_all_zero(self):
        timeline = RoundTimeline()
        assert all(value == 0.0 for value in timeline.breakdown().values())

    def test_total_time_sums_phases(self):
        timeline = RoundTimeline()
        timeline.add(PHASE_COMPUTE, "fwd", 0.1)
        timeline.add(PHASE_COMPRESSION, "topk", 0.02)
        timeline.add(PHASE_COMMUNICATION, "allreduce", 0.05)
        assert timeline.total_time() == pytest.approx(0.17)

    def test_phase_time_filters(self):
        timeline = RoundTimeline()
        timeline.add(PHASE_COMPUTE, "fwd", 0.1)
        timeline.add(PHASE_COMPUTE, "bwd", 0.2)
        timeline.add(PHASE_COMMUNICATION, "allreduce", 0.05)
        assert timeline.phase_time(PHASE_COMPUTE) == pytest.approx(0.3)

    def test_compression_fraction(self):
        timeline = RoundTimeline()
        timeline.add(PHASE_COMPUTE, "fwd", 0.08)
        timeline.add(PHASE_COMPRESSION, "select", 0.01)
        timeline.add(PHASE_DECOMPRESSION, "scatter", 0.01)
        assert timeline.compression_fraction() == pytest.approx(0.2)

    def test_compression_fraction_empty(self):
        assert RoundTimeline().compression_fraction() == 0.0

    def test_rounds_per_second(self):
        timeline = RoundTimeline()
        timeline.add(PHASE_COMPUTE, "fwd", 0.25)
        assert timeline.rounds_per_second() == pytest.approx(4.0)

    def test_rounds_per_second_empty_raises(self):
        with pytest.raises(ValueError):
            RoundTimeline().rounds_per_second()

    def test_extend_and_merge(self):
        first = RoundTimeline()
        first.add(PHASE_COMPUTE, "fwd", 0.1)
        second = RoundTimeline()
        second.add(PHASE_COMMUNICATION, "allreduce", 0.2)
        merged = first.merged_with(second)
        assert merged.total_time() == pytest.approx(0.3)
        assert len(merged.entries) == 2

    def test_all_phases_constant_is_complete(self):
        assert set(ALL_PHASES) == {
            PHASE_COMPUTE,
            PHASE_COMPRESSION,
            PHASE_COMMUNICATION,
            PHASE_DECOMPRESSION,
            "optimizer",
        }
