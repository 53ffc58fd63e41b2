"""Self-test of the benchmark at tiny sizes: ``python -m pytest e2ebench -q``.

Checks that every workload runs and passes its output checks, that every
named metric is printed with its unit, that a failed check makes the exit
code non-zero, that the tracer counts the values of every collective and
restores every function it wrapped.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, _repro_modules  # noqa: E402

TINY = {
    "tta-paper": functools.partial(workloads.TTAPaper, rounds=3),
    "advisor-open": functools.partial(workloads.AdvisorOpen, rate_qps=40.0),
    "validate-bridge": functools.partial(workloads.ValidateBridge, num_steps=1),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", dict(TINY))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", HERE / "out" / "selftest")


def _result(capsys, argv: list[str]) -> tuple[int, dict, str]:
    code = run.main(argv)
    stdout = capsys.readouterr().out
    return code, json.loads(stdout.strip().splitlines()[-1]), stdout


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.4", "--trace", str(trace)]
    code, result, stdout = _result(capsys, argv)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    lines = stdout.splitlines()
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit) for line in lines)
    if trace:
        assert result["metrics"]["harness.trace_overhead_ratio"]["value"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["end_to_end"]] == list(run.END_TO_END)
    assert [entry["name"] for entry in spec["per_layer"]] == list(run.PER_LAYER)
    assert {entry["name"] for entry in spec["workloads"]} == set(workloads.WORKLOADS)


def test_failed_check_exits_nonzero(tiny, capsys, monkeypatch):
    def broken_check(self, outcome):
        outcome.fail("injected")

    monkeypatch.setattr(workloads.ValidateBridge, "check", broken_check)
    argv = ["--workload", "validate-bridge", "--seed", "0", "--seconds", "0.1", "--trace", "0"]
    code, result, _ = _result(capsys, argv)
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def _bindings() -> dict:
    return {
        (module.__name__, name): value
        for module in _repro_modules()
        for name, value in vars(module).items()
        if callable(value)
    } | {
        (module.__name__, cls.__qualname__, name): value
        for module in _repro_modules()
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        for name, value in vars(cls).items()
    }


def test_tracer_restores_every_binding():
    from repro.compression import kernels, thc

    before = _bindings()
    with Tracer("selftest") as tracer:
        original = before[("repro.compression.kernels", "fwht_rows")]
        assert thc.fwht_rows is kernels.fwht_rows is not original
        assert thc.fwht_rows.__wrapped__ is original
        workloads.ValidateBridge(0, 0.1, num_steps=1).setup()
    assert tracer.spans
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed
    assert not [key for key, value in after.items() if getattr(value, "tracer", None) is tracer]


def test_sectioned_gather_values_are_counted():
    from repro.collectives.api import CollectiveBackend

    backend = CollectiveBackend()
    sections = [
        (np.arange(3, dtype=np.int32), np.ones(3, dtype=np.float16))
        for _ in range(backend.world_size)
    ]
    with Tracer("selftest") as tracer:
        backend.allgather_sections(sections, wire_bits_per_section=(32.0, 16.0))
    assert tracer.layer_table()["collectives"]["calls"] == 1
    assert tracer.counters["collectives.values"] == 6 * backend.world_size
