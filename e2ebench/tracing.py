"""Layer-boundary tracing from outside the program.

:class:`Tracer` wraps the public functions and methods at each layer
boundary of ``repro`` (see :func:`_boundaries`) for the duration of a
``with`` block and records one span per call: name, start, end, parent
span, thread and run id.  Spans stay in memory; :meth:`Tracer.export`
writes them out as Chrome trace-event JSON (opens in Perfetto or
``chrome://tracing``) plus a flat per-layer self-time table.

A function is patched wherever it is bound: every ``repro.*`` module
attribute that *is* the original object is replaced, so
``repro.compression.thc.fwht_rows`` is traced as well as
``repro.compression.kernels.fwht_rows``.  Leaving the block restores every
original binding.

Self time is a span's duration minus the durations of its child spans on
the same thread.  Work a span hands to another thread (the advisor's
evaluation pool, the bridge's worker threads) opens root spans on that
thread, so the handing span's self time includes its wait.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Span:
    """One traced call."""

    span_id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


def _array_values(values) -> int:
    """Elements in the ndarrays among ``values``, inside lists and tuples too.

    Nested containers matter: ``allgather_sections`` takes one tuple of
    section arrays per worker.
    """
    total = 0
    for value in values:
        if isinstance(value, np.ndarray):
            total += value.size
        elif isinstance(value, (list, tuple)):
            total += _array_values(value)
    return total


def _count_values(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.add("collectives.values", _array_values(itertools.chain(args[1:], kwargs.values())))


def _count_recovery(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.add("simulator.recovery.retries", result.retries)
    tracer.add("simulator.recovery.timeouts", int(result.timed_out))


def _count_wire_bytes(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.add("bridge.wire.bytes", result.nbytes)


def _count_sweep(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.add("api.sweep.points", len(result.points))


def _count_tasks(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.add("api.executor.tasks", len(args[0]))


def _defining(base: type, attribute: str) -> list[tuple[type, str]]:
    """``base`` and its subclasses that define a concrete ``attribute``."""
    found, stack = [], [base]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        method = vars(cls).get(attribute)
        if method is not None and not getattr(method, "__isabstractmethod__", False):
            found.append((cls, attribute))
    return found


def _boundaries() -> list[tuple[str, list[tuple[object, str]], Callable | None]]:
    """``(span name, targets, observer)`` per layer boundary.

    ``targets`` are ``(owner, attribute)`` pairs: a module-level function is
    given by its defining module and patched everywhere it is bound; a
    method is patched on the class that defines it.
    """
    import repro.experiments.validation  # noqa: F401 - bind its imports before patching
    import repro.service  # noqa: F401

    def module(name: str):
        # By import path: package attributes such as repro.simulator.scenario
        # are shadowed by same-named functions.
        return importlib.import_module(f"repro.{name}")

    executors, measures, session = (
        module(f"api.{name}") for name in ("executors", "measures", "session")
    )
    actors, prediction, transport, wire = (
        module(f"bridge.{name}") for name in ("actors", "prediction", "transport", "wire")
    )
    hadamard, kernels, registry, spec = (
        module(f"compression.{name}") for name in ("hadamard", "kernels", "registry", "spec")
    )
    pipeline, recovery, scenario = (
        module(f"simulator.{name}") for name in ("pipeline", "recovery", "scenario")
    )
    AggregationScheme = module("compression.base").AggregationScheme
    CollectiveBackend = module("collectives.api").CollectiveBackend
    Model = module("training.models").Model
    SGD = module("training.optimizer").SGD
    DDPWorker = module("training.worker").DDPWorker

    collective_methods = (
        "allreduce", "allreduce_matrix", "allgather", "allgather_sections", "parameter_server",
    )
    return [
        ("compression.aggregate", _defining(AggregationScheme, "aggregate"), None),
        ("compression.fwht", [(kernels, "fwht_rows"), (hadamard, "_butterfly_passes")], None),
        ("compression.spec", [(registry, "make_scheme"), (spec, "parse_spec")], None),
        (
            "collectives",
            [(CollectiveBackend, name) for name in collective_methods],
            _count_values,
        ),
        ("training.grad", [(DDPWorker, "compute_gradient")], None),
        ("training.optimizer", [(SGD, "step")], None),
        ("training.eval", _defining(Model, "evaluate"), None),
        ("simulator.price", [(measures, "estimate_throughput")], None),
        ("simulator.schedule", [(pipeline, "simulate_schedule")], None),
        ("simulator.scenario", [(scenario.Scenario, "cluster_at")], None),
        ("simulator.recovery", [(recovery.PolicyEngine, "resolve")], _count_recovery),
        ("service.sweep", [(session.ExperimentSession, "sweep")], _count_sweep),
        ("api.executor", [(executors, "run_tasks")], _count_tasks),
        ("bridge.harness", [(actors, "run_harness")], None),
        ("bridge.simulate", [(prediction, "simulate_trace")], None),
        ("bridge.wire.encode", [(wire, "encode_section")], _count_wire_bytes),
        ("bridge.wire.decode", [(wire, "decode_section")], None),
        (
            "bridge.transport.send",
            [(transport.QueueEndpoint, "send"), (transport.PipeEndpoint, "send")],
            None,
        ),
        (
            "bridge.transport.recv",
            [(transport.QueueEndpoint, "recv"), (transport.PipeEndpoint, "recv")],
            None,
        ),
    ]


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and name.split(".")[0] == "repro"
    ]


class Tracer:
    """Wraps layer-boundary calls while active; keeps spans and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------- #
    def add(self, counter: str, amount: int) -> None:
        with self._lock:
            self.counters[counter] += amount

    def _wrap(self, name: str, function: Callable, observer: Callable | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = Span(
                span_id=next(tracer._ids),
                name=name,
                parent=stack[-1].span_id if stack else None,
                thread=threading.get_ident(),
                start=time.perf_counter(),
            )
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.duration_s
                tracer.spans.append(span)
            if observer is not None:
                observer(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = function
        traced.tracer = self
        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    # -- patching ---------------------------------------------------------- #
    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._restore.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> "Tracer":
        for name, targets, observer in _boundaries():
            for owner, attribute in targets:
                original = vars(owner)[attribute]
                if isinstance(owner, type):
                    self._patch(owner, attribute, self._wrap(name, original, observer))
                    continue
                traced = self._wrap(name, original, observer)
                for module in _repro_modules():
                    if vars(module).get(attribute) is original:
                        self._patch(module, attribute, traced)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)
        # A module imported while tracing copied a wrapper at its import.
        for module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                if getattr(value, "tracer", None) is self:
                    setattr(module, attribute, value.__wrapped__)

    # -- reporting --------------------------------------------------------- #
    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds."""
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            row = table[span.name]
            row["calls"] += 1
            row["total_s"] += span.duration_s
            row["self_s"] += span.self_s
        return dict(table)

    def export(self, directory: Path, stem: str) -> list[Path]:
        """Write ``<stem>.trace.json`` (Chrome trace events) and ``<stem>.layers.txt``."""
        directory.mkdir(parents=True, exist_ok=True)
        origin = min((span.start for span in self.spans), default=0.0)
        thread_ids = dict.fromkeys(span.thread for span in self.spans)
        threads = {ident: index for index, ident in enumerate(thread_ids)}
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": 1,
                "tid": threads[span.thread],
                "args": {"id": span.span_id, "parent": span.parent, "run": self.run_id},
            }
            for span in self.spans
        ]
        trace_path = directory / f"{stem}.trace.json"
        trace_path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                        "otherData": {"run": self.run_id, "spans": len(events)}})
        )
        table = self.layer_table()
        lines = [f"{'layer span':28s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}"]
        for name in sorted(table, key=lambda key: -table[key]["self_s"]):
            row = table[name]
            lines.append(
                f"{name:28s} {int(row['calls']):9d} {row['total_s']:10.4f} {row['self_s']:10.4f}"
            )
        lines.extend(f"{name:28s} {value:g}" for name, value in sorted(self.counters.items()))
        table_path = directory / f"{stem}.layers.txt"
        table_path.write_text("\n".join(lines) + "\n")
        return [trace_path, table_path]
