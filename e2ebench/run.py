#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the repro library.

Runs one workload through the public API (``repro.api.ExperimentSession``,
``repro.service.AdvisorService``), checks its outputs, and prints every
metric by name and unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 e2ebench/run.py --workload tta-paper --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload twice for half the time each, untraced and
then, set-up included, with every layer boundary wrapped (see
``tracing.py``); it reports the per-layer counts and self times of the
traced half, the tracing overhead, and writes a Chrome trace plus a
per-layer table to ``e2ebench/out/``.

The exit code is 0 when every output check passed and 1 when one failed
(the JSON line is still printed); 2 when the library cannot be imported.
The benchmark never sets BLAS threads; it reads and reports them.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
IMPORT_PROBE = (
    "import time; started = time.perf_counter(); import repro.api, repro.service; "
    "print(time.perf_counter() - started)"
)

#: End-to-end metrics: name -> unit (every workload reports all of them).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "goodput_per_s": "1/s",
    "latency_p50_ms": "ms",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "compression.aggregate.calls": "count",
    "compression.aggregate.self_s": "s",
    "compression.fwht.calls": "count",
    "compression.fwht.self_s": "s",
    "compression.spec.calls": "count",
    "compression.spec.self_s": "s",
    "compression.bits_per_coord": "bits",
    "collectives.calls": "count",
    "collectives.values": "count",
    "collectives.self_s": "s",
    "training.grad.calls": "count",
    "training.grad.self_s": "s",
    "training.optimizer.self_s": "s",
    "training.eval.self_s": "s",
    "simulator.price.calls": "count",
    "simulator.price.self_s": "s",
    "simulator.schedule.self_s": "s",
    "simulator.scenario.self_s": "s",
    "simulator.recovery.self_s": "s",
    "simulator.recovery.retries": "count",
    "simulator.recovery.timeouts": "count",
    "service.cache_hit_ratio": "ratio",
    "service.batch_size_mean": "count",
    "service.sweeps": "count",
    "service.sweep.self_s": "s",
    "service.queue_depth_max": "count",
    "service.rejected": "count",
    "api.sweep.points": "count",
    "api.sweep.memo_hits": "count",
    "api.executor.tasks": "count",
    "api.executor.self_s": "s",
    "bridge.harness.self_s": "s",
    "bridge.simulate.self_s": "s",
    "bridge.wire.encode_s": "s",
    "bridge.wire.decode_s": "s",
    "bridge.wire.bytes": "B",
    "bridge.transport.msgs": "count",
    "bridge.transport.wait_s": "s",
    "harness.gen_lag_ms_max": "ms",
    "harness.latency_tail_ms": "ms",
    "harness.trace_overhead_ratio": "ratio",
}


# --------------------------------------------------------------------------- #
# Provenance
# --------------------------------------------------------------------------- #
def blas_threads() -> tuple[int | None, str]:
    """The effective OpenBLAS thread count, read (never set), and its source."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter()), f"{Path(path).name}:{symbol}"
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(variable, "").isdigit():
            return int(os.environ[variable]), f"env:{variable}"
    return None, "unknown"


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    return ref_path.read_text().strip() if ref_path.is_file() else "unknown"


def provenance(seed: int, extra: dict) -> dict:
    import numpy as np

    from repro.api.executors import available_cpus

    threads, source = blas_threads()
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "blas_threads_source": source,
        "affinity_cpus": available_cpus(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "seed": seed,
        "canonical_specs": extra.get("specs", []),
        "cluster_digests": [
            hashlib.sha256(repr(cluster.cache_key()).encode()).hexdigest()[:16]
            for cluster in extra.get("clusters", [])
        ],
        "scenario": extra.get("scenario"),
    }


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
def import_seconds() -> float:
    """Import time of the public API in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.strip().splitlines()[-1])


def latency_tail(latencies: list[float]) -> tuple[float, float]:
    """``(fraction, ms)`` of the highest of p99/p90/p50 with ten samples beyond it."""
    from repro.service.metrics import percentile

    fraction = next((f for f in (0.99, 0.9) if len(latencies) * (1 - f) >= 10), 0.5)
    return fraction, percentile(latencies, fraction) * 1e3


def end_to_end_metrics(outcome, setup_samples: list[float]) -> dict:
    from repro.service.metrics import percentile

    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_s": statistics.median(outcome.pass_s),
        "goodput_per_s": outcome.work / outcome.wall_s,
        "latency_p50_ms": percentile(outcome.op_latency_s, 0.5) * 1e3,
    }


def per_layer_metrics(tracer, outcome, harness: dict) -> dict:
    table = tracer.layer_table()
    counters = tracer.counters

    def calls(span: str) -> float:
        return table.get(span, {}).get("calls", 0)

    def self_s(span: str) -> float:
        return table.get(span, {}).get("self_s", 0.0)

    snapshot = outcome.extra.get("snapshot")
    service = {}
    if snapshot is not None:
        service = {
            "service.cache_hit_ratio": snapshot["cache"]["hit_rate"],
            "service.batch_size_mean": snapshot["batch"]["mean_size"],
            "service.sweeps": snapshot["sweeps_dispatched"],
            "service.queue_depth_max": snapshot["queue"]["max_depth"],
            "service.rejected": snapshot["rejected"],
        }
    metrics = {
        "compression.aggregate.calls": calls("compression.aggregate"),
        "compression.aggregate.self_s": self_s("compression.aggregate"),
        "compression.fwht.calls": calls("compression.fwht"),
        "compression.fwht.self_s": self_s("compression.fwht"),
        "compression.spec.calls": calls("compression.spec"),
        "compression.spec.self_s": self_s("compression.spec"),
        "compression.bits_per_coord": outcome.extra.get("compression.bits_per_coord", 0.0),
        "collectives.calls": calls("collectives"),
        "collectives.values": counters.get("collectives.values", 0),
        "collectives.self_s": self_s("collectives"),
        "training.grad.calls": calls("training.grad"),
        "training.grad.self_s": self_s("training.grad"),
        "training.optimizer.self_s": self_s("training.optimizer"),
        "training.eval.self_s": self_s("training.eval"),
        "simulator.price.calls": calls("simulator.price"),
        "simulator.price.self_s": self_s("simulator.price"),
        "simulator.schedule.self_s": self_s("simulator.schedule"),
        "simulator.scenario.self_s": self_s("simulator.scenario"),
        "simulator.recovery.self_s": self_s("simulator.recovery"),
        "simulator.recovery.retries": counters.get("simulator.recovery.retries", 0),
        "simulator.recovery.timeouts": counters.get("simulator.recovery.timeouts", 0),
        "service.cache_hit_ratio": 0.0,
        "service.batch_size_mean": 0.0,
        "service.sweeps": 0,
        "service.sweep.self_s": self_s("service.sweep"),
        "service.queue_depth_max": 0,
        "service.rejected": 0,
        **service,
        "api.sweep.points": counters.get("api.sweep.points", 0),
        "api.sweep.memo_hits": max(
            0, counters.get("api.sweep.points", 0) - counters.get("api.executor.tasks", 0)
        ),
        "api.executor.tasks": counters.get("api.executor.tasks", 0),
        "api.executor.self_s": self_s("api.executor"),
        "bridge.harness.self_s": self_s("bridge.harness"),
        "bridge.simulate.self_s": self_s("bridge.simulate"),
        "bridge.wire.encode_s": self_s("bridge.wire.encode"),
        "bridge.wire.decode_s": self_s("bridge.wire.decode"),
        "bridge.wire.bytes": counters.get("bridge.wire.bytes", 0),
        "bridge.transport.msgs": calls("bridge.transport.send"),
        "bridge.transport.wait_s": self_s("bridge.transport.recv"),
        "harness.gen_lag_ms_max": outcome.extra.get("harness.gen_lag_ms_max", 0.0),
        **harness,
    }
    return metrics


def measure(workload, *, setups: int):
    """Set up ``setups`` times (median into ``setup_s``), then run and check."""
    samples = []
    for _ in range(setups):
        imported = import_seconds()
        started = time.perf_counter()
        workload.setup()
        samples.append(imported + time.perf_counter() - started)
    outcome = workload.run()
    workload.check(outcome)
    return outcome, samples


def run(args) -> tuple[dict, object, list[Path]]:
    """The metrics, the measured outcome and the trace files of one run."""
    from workloads import WORKLOADS

    # A traced run is an untraced and a traced half of half the time each.
    workload = WORKLOADS[args.workload](args.seed, args.seconds / (2 if args.trace else 1))
    # The generated inputs and the imported modules are the benchmark's:
    # keep the collector from re-scanning them in the program's collections.
    gc.collect()
    gc.freeze()
    try:
        if not args.trace:
            outcome, setups = measure(workload, setups=SETUP_REPEATS)
            return end_to_end_metrics(outcome, setups), outcome, []
        return traced_run(args, workload)
    finally:
        gc.unfreeze()


def traced_run(args, workload) -> tuple[dict, object, list[Path]]:
    """Per-layer metrics of the traced half; the untraced half is its baseline."""
    from tracing import Tracer

    untraced, setups = measure(workload, setups=1)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    with Tracer(run_id) as tracer:
        # Set-up is traced as well, so compression.spec.* sees its parses.
        workload.setup()
        traced = workload.run()
    workload.check(traced)
    baseline = end_to_end_metrics(untraced, setups)["latency_p50_ms"]
    harness = {
        # The tail is too sensitive to the host's speed to gate on; it is
        # reported here, from the untraced half, for attribution.
        "harness.latency_tail_ms": latency_tail(untraced.op_latency_s)[1],
        "harness.trace_overhead_ratio":
            end_to_end_metrics(traced, setups)["latency_p50_ms"] / baseline,
    }
    files = tracer.export(OUT, f"{args.workload}-seed{args.seed}")
    traced.failures.extend(untraced.failures)
    traced.attempted += untraced.attempted
    return per_layer_metrics(tracer, traced, harness), traced, files


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro library is not in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    metrics, outcome, files = run(args)
    units = PER_LAYER if args.trace else END_TO_END
    print("provenance: " + json.dumps(provenance(args.seed, outcome.extra), default=str))
    for path in files:
        print(f"wrote {path.relative_to(ROOT)}")
    fraction, tail_ms = latency_tail(outcome.op_latency_s)
    print(f"operations: {len(outcome.op_latency_s)} timed, passes: {len(outcome.pass_s)}, "
          f"p{round(fraction * 100)} latency: {tail_ms:.6g} ms")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    for failure in outcome.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    failed = min(len(outcome.failures), outcome.attempted)
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not outcome.failures else 1


if __name__ == "__main__":
    sys.exit(main())
