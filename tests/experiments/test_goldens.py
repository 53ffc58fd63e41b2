"""Golden-value regression tests for the experiment drivers.

Small canonical Table 6 / Table 8 outputs (flat and multi-rack) are checked
into ``tests/experiments/goldens/*.json``.  The drivers are deterministic
analytics, so any drift means a refactor changed the reproduced numbers --
exactly what these tests exist to catch.

To intentionally re-baseline after a deliberate model change::

    pytest tests/experiments/test_goldens.py --update-goldens

then review and commit the JSON diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import ExperimentSession
from repro.api.measures import configure_for_workload, paper_context
from repro.compression.registry import make_scheme
from repro.experiments import adaptive, faults, table6, table8, validation
from repro.simulator.cluster import multirack_cluster, paper_testbed
from repro.training.workloads import bert_large_wikitext, vgg19_tinyimagenet

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: The benchmark's recorded outputs (read only; never rewritten by tests).
E2E_REFERENCE = Path(__file__).resolve().parents[2] / "e2ebench" / "reference.json"

#: Relative tolerance for golden comparisons.  The drivers are deterministic,
#: but JSON serialisation round-trips through decimal text, so exact float
#: identity is compared through ``repr``-faithful JSON numbers with a tiny
#: slack for cross-platform libm differences.
RELATIVE_TOLERANCE = 1e-9


def _assert_matches(actual, golden, path=""):
    if isinstance(golden, dict):
        assert isinstance(actual, dict), f"{path}: expected object"
        assert sorted(actual) == sorted(golden), f"{path}: keys differ"
        for key in golden:
            _assert_matches(actual[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list), f"{path}: expected array"
        assert len(actual) == len(golden), f"{path}: length differs"
        for index, (a, g) in enumerate(zip(actual, golden)):
            _assert_matches(a, g, f"{path}[{index}]")
    elif isinstance(golden, float):
        assert actual == pytest.approx(golden, rel=RELATIVE_TOLERANCE), (
            f"{path}: {actual!r} != golden {golden!r}"
        )
    else:
        assert actual == golden, f"{path}: {actual!r} != golden {golden!r}"


def check_golden(name: str, payload, update: bool) -> None:
    """Compare ``payload`` against ``goldens/<name>.json`` (or rewrite it)."""
    path = GOLDEN_DIR / f"{name}.json"
    if update:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"rewrote golden {path.name}")
    assert path.exists(), (
        f"golden fixture {path} is missing; generate it with "
        "pytest tests/experiments/test_goldens.py --update-goldens"
    )
    _assert_matches(payload, json.loads(path.read_text()), path=name)


# ------------------------------------------------------------------ #
# Canonical payloads
# ------------------------------------------------------------------ #
def table6_payload(rows) -> list[dict]:
    return [
        {
            "workload": row.workload_name,
            "bits_per_coordinate": row.bits_per_coordinate,
            "compression_seconds": row.compression_seconds,
            "round_seconds": row.round_seconds,
            "overhead_fraction": row.overhead_fraction,
        }
        for row in rows
    ]


def table8_payload(results) -> dict:
    saturation_rows, baseline_rows = results
    return {
        "saturation": [
            {
                "workload": row.workload_name,
                "quantization_bits": row.quantization_bits,
                "full_rotation_rps": row.full_rotation.rounds_per_second,
                "partial_rotation_rps": row.partial_rotation.rounds_per_second,
                "no_rotation_rps": row.no_rotation.rounds_per_second,
            }
            for row in saturation_rows
        ],
        "baseline": [
            {
                "workload": row.workload_name,
                "rps": row.baseline.rounds_per_second,
            }
            for row in baseline_rows
        ],
    }


def table6_faulty_payload(rows) -> list[dict]:
    return [
        {
            "workload": row.workload_name,
            "scheme": row.scheme_spec,
            "scenario": row.scenario_spec,
            "static_rps": row.static_rps,
            "faulty_rps": row.faulty_rps,
            "static_rank": row.static_rank,
            "faulty_rank": row.faulty_rank,
            "p50_round_seconds": row.p50_round_seconds,
            "p95_round_seconds": row.p95_round_seconds,
            "p99_round_seconds": row.p99_round_seconds,
            "tail_amplification": row.tail_amplification,
            "recovery_seconds": row.recovery_seconds,
            "excess_seconds": row.excess_seconds,
        }
        for row in rows
    ]


def adaptive_tta_payload(result) -> dict:
    return {
        "workload": result.workload_name,
        "scenario": result.scenario_spec,
        "target_metric": result.target_metric,
        "static_tta_seconds": dict(result.static_tta_seconds),
        "adaptive_tta_seconds": result.adaptive_tta_seconds,
        "adaptive_margin_seconds": result.adaptive_margin_seconds,
        "switches": [
            {
                "round_index": event.round_index,
                "from_spec": event.from_spec,
                "to_spec": event.to_spec,
                "observed_p95_seconds": event.observed_p95_seconds,
                "predicted_from_seconds": event.predicted_from_seconds,
                "predicted_to_seconds": event.predicted_to_seconds,
            }
            for event in result.switches
        ],
        "inversion": table6_faulty_payload(result.inversion_rows),
    }


def table8_multirack_payload(rows) -> list[dict]:
    return [
        {
            "workload": row.workload_name,
            "quantization_bits": row.quantization_bits,
            "num_racks": row.num_racks,
            "oversubscription": row.oversubscription,
            "host_side_rps": row.host_side.rounds_per_second,
            "in_network_rps": row.in_network.rounds_per_second,
            "speedup": row.speedup,
        }
        for row in rows
    ]


#: Error-feedback wrappers priced next to the registry specs.
EF_SPECS = ("ef(topk(b=2))", "ef(thc(q=4, rot=partial, agg=sat))", "ef(powersgd(r=4))")


def pricing_payload() -> dict:
    """``estimate_bucket_costs`` of every registry and EF spec at paper sizes."""
    clusters = {"paper_testbed": paper_testbed(), "multirack2": multirack_cluster(2)}
    payload = {}
    for workload in (bert_large_wikitext(), vgg19_tinyimagenet()):
        for cluster_name, cluster in clusters.items():
            ctx = paper_context(cluster)
            rows = {}
            for spec in (*validation.REGISTRY_SPECS, *EF_SPECS):
                scheme = configure_for_workload(make_scheme(spec), workload)
                rows[spec] = {
                    str(num_buckets): [
                        [
                            cost.compression_seconds,
                            cost.communication_seconds,
                            cost.bits_per_coordinate,
                        ]
                        for cost in scheme.estimate_bucket_costs(
                            workload.paper_num_coordinates, num_buckets, ctx
                        )
                    ]
                    for num_buckets in (1, 4, 16)
                }
            payload[f"{workload.name}/{cluster_name}"] = rows
    return payload


# ------------------------------------------------------------------ #
# Tests
# ------------------------------------------------------------------ #
class TestTable6Goldens:
    def test_flat(self, update_goldens):
        check_golden("table6", table6_payload(table6.run_table6()), update_goldens)

    def test_multirack(self, update_goldens):
        rows = table6.run_table6_multirack(num_racks=4, oversubscription=2.0)
        check_golden("table6_multirack", table6_payload(rows), update_goldens)


class TestTable6FaultyGoldens:
    def test_fault_tolerance_driver(self, update_goldens):
        """The fault drivers are deterministic (churn is seed-derived), so the
        scenario engine's whole pricing path is pinned by this golden --
        including the ranking inversion the drivers exist to demonstrate."""
        rows = faults.run_table6_faulty()
        check_golden("table6_faulty", table6_faulty_payload(rows), update_goldens)
        inversions = faults.ranking_inversions(rows)
        assert any(
            "powersgd" in static_winner and "thc" in faulty_winner
            for _, _, static_winner, faulty_winner in inversions
        ), "the shipped straggler scenario must invert the thc/powersgd ranking"


class TestAdaptiveGoldens:
    def test_adaptive_beats_every_static(self, update_goldens):
        """The headline robustness claim, pinned end to end: the scenario
        inverts the static transport ranking (a table6_faulty inversion), the
        controller switches out and back at the window edges, and the
        adaptive run reaches the accuracy target before *every* static
        candidate."""
        result = adaptive.run_adaptive_tta()
        assert faults.ranking_inversions(result.inversion_rows), (
            "the demonstration scenario must invert the static ranking"
        )
        assert len(result.switches) == 2, "expected one switch out and one back"
        assert result.switches[0].to_spec == result.switches[1].from_spec
        assert result.adaptive_margin_seconds > 0, (
            "the adaptive run must beat every static candidate on TTA"
        )
        check_golden("adaptive_tta", adaptive_tta_payload(result), update_goldens)


class TestTable8Goldens:
    def test_flat(self, update_goldens):
        check_golden("table8", table8_payload(table8.run_table8()), update_goldens)

    def test_multirack(self, update_goldens):
        rows = table8.run_table8_multirack(num_racks=4, oversubscription=4.0)
        check_golden("table8_multirack", table8_multirack_payload(rows), update_goldens)


class TestValidationGolden:
    def test_validation_report(self, update_goldens):
        """The real-tensor agreement report, pinned: measured VNMSE, traffic
        accounting, and per-class verdicts for the whole registry on the
        canonical seeded trace.  The payload excludes wall-clock, so the
        golden is machine-independent; any drift means either a scheme's
        numerics changed or the harness stopped reproducing the simulator."""
        report = validation.run_validation(num_steps=2, seed=7)
        assert report.all_ok, report.render()
        check_golden("validation", report.to_payload(), update_goldens)


class TestPricingGolden:
    def test_bucket_pricing(self, update_goldens):
        """Every scheme's priced bucket costs at the paper sizes, pinned: the
        analytic pricing behind every throughput and TTA figure."""
        check_golden("pricing", pricing_payload(), update_goldens)

    def test_tta_reproduces_benchmark_reference(self):
        """A short ``session.tta`` of the benchmark's four contenders on bert
        prices exactly the rounds/s the benchmark's reference records (the
        benchmark compares them with ``!=``, so the pricing sums must not even
        change their rounding)."""
        reference = json.loads(E2E_REFERENCE.read_text())["tta-paper"]
        session = ExperimentSession(seed=0, executor="serial", record_timeline=False)
        workload = bert_large_wikitext()
        contenders = [label.split("/", 1)[1] for label in reference if label.startswith("bert/")]
        assert len(contenders) == 4
        for spec in contenders:
            result = session.tta(spec, workload, num_rounds=2, eval_every=1)
            expected = reference[f"bert/{spec}"]["rounds_per_second"]
            assert result.rounds_per_second == expected, spec


class TestGoldenHarness:
    def test_mismatch_is_reported_with_path(self, tmp_path, monkeypatch):
        import sys

        monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)
        (tmp_path / "fake.json").write_text(json.dumps({"value": 1.0}))
        with pytest.raises(AssertionError, match="fake.value"):
            check_golden("fake", {"value": 2.0}, update=False)

    def test_missing_golden_points_at_update_flag(self, tmp_path, monkeypatch):
        import sys

        monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)
        with pytest.raises(AssertionError, match="--update-goldens"):
            check_golden("absent", {"value": 1.0}, update=False)
