#!/usr/bin/env python
"""Load-test harness for the advisor service: sustained qps and tail latency.

Replays a mixed query trace against a live :class:`AdvisorService` with two
generator disciplines and three traffic classes:

* **Closed loop** -- ``concurrency`` clients issue requests back-to-back;
  throughput is the sustained rate the service absorbs (the warm-cache
  acceptance number comes from here).
* **Open loop** -- requests arrive on a fixed schedule regardless of
  completions (the honest way to observe queueing tails: a closed loop
  self-throttles exactly when the service degrades).

Traffic classes, mixed like a production advisor's day:

* **hot repeats** -- a small set of popular questions, re-asked constantly
  (fast-path cache hits after first touch);
* **cold sweeps** -- a long tail of distinct spec/axis combinations that
  miss the cache and exercise micro-batching;
* **scenario-heavy** -- scenario-conditioned queries whose evaluations
  price a multi-round dynamic run (the expensive class).

Three phases are reported: a *cold* closed-loop pass over distinct queries
(cache population + batching), a *warm* closed-loop pass over the hot set
(the ``warm_qps`` acceptance floor: >= 1000 queries/sec in ``--quick``),
and an *open-loop mixed* pass at a configured arrival rate (p99 under
queueing).  Results land in the same JSON shape as
``benchmarks/perf/harness.py``, so ``check_regression.py`` applies the 2x
timing band to every ``*_seconds`` entry and the floors table to
``service_load.warm_qps``::

    python benchmarks/perf/service_load.py --quick --out SERVICE_results.json
    python benchmarks/perf/check_regression.py SERVICE_results.json \\
        benchmarks/perf/baseline.json --only service_load
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.executors import available_cpus  # noqa: E402
from repro.service import AdviseRequest, AdvisorService  # noqa: E402
from repro.service.errors import ServiceError  # noqa: E402
from repro.service.metrics import percentile  # noqa: E402

#: The hot set: the paper's headline scheme face-off, re-asked constantly.
HOT_REQUESTS = [
    AdviseRequest(
        specs=("thc(q=4, rot=partial, agg=sat)", "topkc(b=2)", "powersgd(r=4)"),
        workload="bert_large",
    ),
    AdviseRequest(
        specs=("thc(q=4, rot=full, agg=sat)", "qsgd(q=4, agg=sat)"),
        workload="vgg19",
    ),
    AdviseRequest(
        specs=("ef(topk(b=2))", "signsgd", "baseline(p=fp16)"),
        workload="bert_large",
    ),
]


def cold_requests(count: int) -> list[AdviseRequest]:
    """A long tail of distinct questions (cache misses, batched sweeps)."""
    specs_pool = [
        "thc(q={q}, rot=partial, agg=sat)",
        "thc(q={q}, rot=full, agg=widened)",
        "qsgd(q={q}, agg=sat)",
        "topkc(b={q})",
    ]
    requests = []
    for index in range(count):
        template = specs_pool[index % len(specs_pool)]
        q = 2 + (index % 7)
        workload = "bert_large" if index % 2 == 0 else "vgg19"
        requests.append(
            AdviseRequest(
                specs=(template.format(q=q),),
                workload=workload,
                metric_kwargs={"num_buckets": 1 + (index % 3)},
            )
        )
    return requests


def scenario_requests(count: int) -> list[AdviseRequest]:
    """Scenario-conditioned queries: the expensive, tail-defining class."""
    stories = [
        "slowdown(w=1, x={x})@5..15",
        "churn(p=0.{x})@0..10",
        "nic_degrade(w=0, x={x})@3..12",
    ]
    requests = []
    for index in range(count):
        story = stories[index % len(stories)].format(x=2 + (index % 4))
        requests.append(
            AdviseRequest(
                specs=("thc(q=4, rot=partial, agg=sat)", "powersgd(r=4)"),
                workload="bert_large",
                scenario=story,
                metric_kwargs={"num_rounds": 20},
            )
        )
    return requests


async def closed_loop(
    service: AdvisorService, trace: list[AdviseRequest], *, concurrency: int
) -> dict:
    """``concurrency`` clients draining one shared trace back-to-back."""
    queue: asyncio.Queue[AdviseRequest] = asyncio.Queue()
    for request in trace:
        queue.put_nowait(request)
    latencies: list[float] = []
    errors = [0]

    async def client() -> None:
        while True:
            try:
                request = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            started = time.perf_counter()
            try:
                await service.advise(request)
            except ServiceError:
                errors[0] += 1
            else:
                latencies.append(time.perf_counter() - started)

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(concurrency)))
    elapsed = time.perf_counter() - started
    return {
        "requests": len(trace),
        "errors": errors[0],
        "elapsed_wall_seconds": elapsed,
        "qps": len(latencies) / elapsed if elapsed > 0 else 0.0,
        "p50_seconds": percentile(latencies, 0.50),
        "p99_seconds": percentile(latencies, 0.99),
    }


async def open_loop(
    service: AdvisorService, trace: list[AdviseRequest], *, rate: float
) -> dict:
    """Fixed-rate arrivals: requests fire on schedule, completions gathered."""
    interval = 1.0 / rate
    latencies: list[float] = []
    errors = [0]

    async def fire(request: AdviseRequest) -> None:
        started = time.perf_counter()
        try:
            await service.advise(request)
        except ServiceError:
            errors[0] += 1
        else:
            latencies.append(time.perf_counter() - started)

    started = time.perf_counter()
    tasks = []
    for index, request in enumerate(trace):
        target = started + index * interval
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(fire(request)))
    await asyncio.gather(*tasks)
    elapsed = time.perf_counter() - started
    return {
        "requests": len(trace),
        "errors": errors[0],
        "offered_qps": rate,
        "elapsed_wall_seconds": elapsed,
        "qps": len(latencies) / elapsed if elapsed > 0 else 0.0,
        "p50_seconds": percentile(latencies, 0.50),
        "p99_seconds": percentile(latencies, 0.99),
    }


async def run_load_test(
    *,
    cold_count: int,
    scenario_count: int,
    warm_repeats: int,
    concurrency: int,
    open_rate: float,
) -> dict:
    """The three phases against one service instance; returns the bench dict."""
    async with AdvisorService(max_queue=8192) as service:
        # Phase 1 -- cold: distinct queries, cache population, micro-batching.
        cold_trace = cold_requests(cold_count) + scenario_requests(scenario_count)
        cold = await closed_loop(service, cold_trace, concurrency=concurrency)

        # Phase 2 -- warm: the hot set hammered back-to-back (fast path).
        warm_trace = [
            HOT_REQUESTS[index % len(HOT_REQUESTS)] for index in range(warm_repeats)
        ]
        warm = await closed_loop(service, warm_trace, concurrency=concurrency)

        # Phase 3 -- open loop over the full mix at a fixed arrival rate:
        # three hot repeats for every cold/scenario query (warm by now).
        mixed_trace = []
        for index in range(max(64, cold_count)):
            if index % 4 == 1:
                mixed_trace.append(cold_trace[index % len(cold_trace)])
            else:
                mixed_trace.append(HOT_REQUESTS[index % len(HOT_REQUESTS)])
        open_mixed = await open_loop(service, mixed_trace, rate=open_rate)

        snapshot = service.snapshot()
        batching = {
            "sweep_evaluations": snapshot["sweep_evaluations"],
            "sweeps_dispatched": snapshot["sweeps_dispatched"],
            "mean_batch_size": snapshot["batch"]["mean_size"],
            "cache_hit_rate": snapshot["cache"]["hit_rate"],
        }

    return {
        "concurrency": concurrency,
        "cold_requests": cold["requests"],
        "cold_qps": cold["qps"],
        "cold_p50_seconds": cold["p50_seconds"],
        "cold_p99_seconds": cold["p99_seconds"],
        "warm_requests": warm["requests"],
        "warm_qps": warm["qps"],
        "warm_p50_seconds": warm["p50_seconds"],
        "warm_p99_seconds": warm["p99_seconds"],
        "open_loop_offered_qps": open_mixed["offered_qps"],
        "open_loop_qps": open_mixed["qps"],
        "open_loop_p99_seconds": open_mixed["p99_seconds"],
        "errors": cold["errors"] + warm["errors"] + open_mixed["errors"],
        **batching,
    }


def run_service_bench(*, quick: bool) -> dict:
    """Entry point used by ``harness.py``: one sized load test, one dict."""
    scale = {
        # Full scale: a few thousand warm queries and a deep cold tail.
        False: dict(cold=96, scenarios=24, warm=8000, concurrency=32, rate=600.0),
        # CI smoke (~10-20 s wall): still enough warm traffic to measure a
        # sustained >= 1000 qps fast path with a meaningful p99.
        True: dict(cold=32, scenarios=8, warm=3000, concurrency=16, rate=400.0),
    }[quick]
    return asyncio.run(
        run_load_test(
            cold_count=scale["cold"],
            scenario_count=scale["scenarios"],
            warm_repeats=scale["warm"],
            concurrency=scale["concurrency"],
            open_rate=scale["rate"],
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("SERVICE_results.json"),
        help="where to write the results JSON (default: ./SERVICE_results.json)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized trace (seconds, not minutes)"
    )
    parser.add_argument(
        "--min-warm-qps",
        type=float,
        default=1000.0,
        help="fail unless the warm-cache closed loop sustains this rate (default 1000)",
    )
    args = parser.parse_args(argv)

    bench = run_service_bench(quick=args.quick)
    results = {
        "meta": {
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "quick": args.quick,
            "cpus": available_cpus(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "benchmarks": {"service_load": bench},
    }
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(
        "[service] cold {cold_qps:.0f} qps (p50 {cold_p50_seconds:.4f}s, "
        "p99 {cold_p99_seconds:.4f}s)  "
        "warm {warm_qps:.0f} qps (p99 {warm_p99_seconds:.4f}s)  "
        "open-loop p99 {open_loop_p99_seconds:.4f}s @ {open_loop_offered_qps:.0f} qps".format(
            **bench
        )
    )
    print(
        "[service] batching: {sweeps_dispatched} sweeps for {sweep_evaluations} "
        "evaluations, mean batch {mean_batch_size:.1f}, cache hit rate "
        "{cache_hit_rate:.2f}, {errors} errors".format(**bench)
    )
    print(f"[service] wrote {args.out}")
    if bench["errors"]:
        print(f"[service] FAILED: {bench['errors']} requests errored", file=sys.stderr)
        return 1
    if bench["warm_qps"] < args.min_warm_qps:
        print(
            f"[service] FAILED: warm-cache throughput {bench['warm_qps']:.0f} qps is "
            f"below the {args.min_warm_qps:.0f} qps floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
