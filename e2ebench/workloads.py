"""The benchmark's workloads, driven through the public API only.

Each workload is generated from the benchmark's ``--seed`` and the length
of its measured phase: the constructor makes every input (scenarios,
request traces, gradient traces) and the program receives only those.  A
workload object then has three phases:

* ``setup()`` -- construct the session or service and warm it up (the
  benchmark repeats it and reports the median as ``setup_s``);
* ``run()`` -- the measured phase, returning an :class:`Outcome`;
* ``check(outcome)`` -- the output checks, run after the measured phase,
  which add failure messages to the outcome.

``tta-paper`` and ``validate-bridge`` are closed loops (the next operation
starts when the previous one returns); ``advisor-open`` is an open loop at
a fixed arrival rate.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import ExperimentSession
from repro.bridge import synthetic_trace
from repro.experiments.validation import REGISTRY_SPECS
from repro.service import AdviseRequest, AdvisorService
from repro.service.errors import ServiceError
from repro.service.models import resolve_workload
from repro.simulator.cluster import multirack_cluster, paper_testbed
from repro.simulator.scenario import scenario as make_scenario
from repro.training.workloads import bert_large_wikitext, vgg19_tinyimagenet

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Outcome:
    """What one measured phase did.

    ``work`` is the workload's unit of useful output (training rounds,
    answers within the latency limit, validated schemes); ``wall_s`` is the
    measured wall time it was produced in.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    op_latency_s: list[float] = field(default_factory=list)
    work: float = 0.0
    wall_s: float = 0.0
    #: Workload counters reported by the traced run (``harness.*`` and
    #: ``compression.bits_per_coord``) and provenance (``specs``, ``clusters``).
    extra: dict = field(default_factory=dict)
    #: Per-operation results kept for the output checks.
    results: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-12)


# --------------------------------------------------------------------------- #
# tta-paper
# --------------------------------------------------------------------------- #
#: The paper's four contenders (EF stays on for top-k-c by default).
CONTENDERS = (
    "baseline(p=fp16)",
    "thc(q=4, rot=partial, agg=sat)",
    "topkc(b=2)",
    "powersgd(r=4)",
)
TTA_POLICY = "timeout(k=3) + retry(max_attempts=2) + drop(max_workers=1) + stale(max_stale=1)"
TTA_ROUNDS = 100
TTA_EVAL_EVERY = 10

#: Relative tolerance of a contender's best metric against the reference,
#: per scheme class: an FP16 cast and top-k selection are exact up to float
#: summation order; PowerSGD orthogonalizes in floating point; THC rounds
#: stochastically, so a changed float order can flip rounding decisions.
BEST_METRIC_TOLERANCE = {
    "baseline(p=fp16)": 1e-6,
    "topkc(b=2)": 1e-6,
    "powersgd(r=4)": 1e-3,
    "thc(q=4, rot=partial, agg=sat)": 2e-2,
}


def tta_scenario(seed: int):
    """A seeded ``slowdown + churn + flap`` scenario on the 2-rack cluster."""
    rng = np.random.default_rng([seed, 11])
    slow_from = int(rng.integers(0, 30))
    flap_from = int(rng.integers(20, 70))
    spec = (
        f"slowdown(w={int(rng.integers(8))}, x={float(rng.choice([2, 4, 8])):g})"
        f"@{slow_from}..{slow_from + int(rng.integers(10, 30))}"
        " + churn(p=0.1)"
        f" + flap(rack={int(rng.integers(2))})@{flap_from}..{flap_from + int(rng.integers(5, 15))}"
    )
    return make_scenario(spec, seed=seed)


class TTAPaper:
    """Closed loop: the four contenders, on a static and a faulty cluster."""

    name = "tta-paper"

    def __init__(self, seed: int, seconds: float, *, rounds: int = TTA_ROUNDS):
        self.seed = seed
        self.seconds = seconds
        self.rounds = rounds
        self.scenario = tta_scenario(seed)
        cluster = multirack_cluster(2)
        self.halves = (
            ("bert", bert_large_wikitext(), {}),
            (
                "vgg",
                vgg19_tinyimagenet(),
                {"cluster": cluster, "scenario": self.scenario, "policy": TTA_POLICY},
            ),
        )
        self.session: ExperimentSession | None = None

    def setup(self) -> None:
        self.session = ExperimentSession(seed=0, executor="serial", record_timeline=False)
        for _, workload, options in self.halves:
            for spec in CONTENDERS:
                self.session.tta(spec, workload, num_rounds=2, eval_every=1, **options)

    def one_pass(self, outcome: Outcome) -> dict:
        results = {}
        for half, workload, options in self.halves:
            for spec in CONTENDERS:
                started = time.perf_counter()
                result = self.session.tta(
                    spec, workload, num_rounds=self.rounds, eval_every=TTA_EVAL_EVERY, **options
                )
                outcome.op_latency_s.append(time.perf_counter() - started)
                outcome.attempted += 1
                outcome.work += result.history.num_rounds
                results[(half, spec)] = result
        return results

    def run(self) -> Outcome:
        outcome = _closed_loop(self.one_pass, self.seconds)
        outcome.extra["specs"] = [self.session.scheme(spec).spec() for spec in CONTENDERS]
        outcome.extra["clusters"] = [paper_testbed(), self.halves[1][2]["cluster"]]
        outcome.extra["scenario"] = self.scenario.spec()
        first = outcome.results[0]
        outcome.extra["compression.bits_per_coord"] = float(
            np.mean([result.bits_per_coordinate for result in first.values()])
        )
        return outcome

    def check(self, outcome: Outcome) -> None:
        reference = reference_values().get("tta-paper", {})
        first = outcome.results[0]
        for results in outcome.results:
            for (half, spec), result in results.items():
                label = f"{half}/{spec}"
                best = result.curve.best_value()
                # Every pass of a run replays the same seeded inputs.
                if result.rounds_per_second != first[(half, spec)].rounds_per_second:
                    outcome.fail(f"{label}: rounds/s differs between passes")
                if best != first[(half, spec)].curve.best_value():
                    outcome.fail(f"{label}: best metric differs between passes")
                if not math.isfinite(best) or not result.history.num_rounds:
                    outcome.fail(f"{label}: no finite best metric")
                if half != "bert" or self.rounds != TTA_ROUNDS:
                    continue  # recorded for the static half at the benchmark's size
                expected = reference.get(label)
                if expected is None:
                    outcome.fail(f"{label}: no reference value")
                    continue
                if result.rounds_per_second != expected["rounds_per_second"]:
                    outcome.fail(
                        f"{label}: priced rounds/s {result.rounds_per_second!r} != "
                        f"reference {expected['rounds_per_second']!r}"
                    )
                if _relative_gap(best, expected["best_metric"]) > BEST_METRIC_TOLERANCE[spec]:
                    outcome.fail(
                        f"{label}: best metric {best!r} outside "
                        f"{BEST_METRIC_TOLERANCE[spec]:g} of reference {expected['best_metric']!r}"
                    )


def reference_values() -> dict:
    """Reference outputs recorded on the commit that defined the benchmark."""
    return json.loads(REFERENCE_PATH.read_text())


def _closed_loop(one_pass, seconds: float) -> Outcome:
    """Repeat ``one_pass`` while another pass of the last one's length fits."""
    outcome = Outcome()
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        outcome.results.append(one_pass(outcome))
        now = time.perf_counter()
        outcome.pass_s.append(now - pass_started)
        if now - started + outcome.pass_s[-1] > seconds:
            break
    outcome.wall_s = time.perf_counter() - started
    return outcome


# --------------------------------------------------------------------------- #
# advisor-open
# --------------------------------------------------------------------------- #
#: Offered load: about half of what the service sustains on this mix.
ADVISOR_RATE_QPS = 180.0
#: Latency limit of an answer counted in goodput (fixed, not measured).
ADVISOR_LIMIT_S = 0.1
#: Share of hot repeats, cold throughput queries and scenario queries.
ADVISOR_MIX = (0.5, 0.35, 0.15)
#: Requests of the ranking check, drawn from the trace.
ADVISOR_CHECK_SAMPLE = 16

HOT_REQUESTS = (
    AdviseRequest(specs=CONTENDERS, workload="bert_large"),
    AdviseRequest(specs=CONTENDERS, workload="vgg19"),
    AdviseRequest(
        specs=("thc(q=4, rot=full, agg=sat)", "qsgd(q=4, agg=sat)", "signsgd"),
        workload="vgg19",
    ),
    AdviseRequest(specs=("ef(topk(b=2))", "topkc(b=8)", "baseline(p=fp32)"), workload="bert_large"),
)
#: Event templates of the scenario queries.  Factors, churn rate and window
#: length are fixed because they set how many rounds time out and retry,
#: which sets the pricing cost; the seed draws workers, racks and starts.
SCENARIO_EVENTS = (
    "slowdown(w={w}, x=4)@{a}..{b}",
    "nic_degrade(w={w}, x=4)@{a}..{b}",
    "flap(rack={r}, x=4)@{a}..{b}",
    "churn(p=0.2)@{a}..{b}",
)
SCENARIO_WINDOW = 8
SCENARIO_POLICIES = (
    "timeout(k=3)",
    "timeout(k=2) + retry(max_attempts=2)",
    "drop(max_workers=1)",
    "timeout(k=3) + drop(max_workers=1) + stale(max_stale=1)",
)


def advisor_fabrics() -> list:
    """Cluster axis of the cold queries: testbed plus 2- and 4-rack fabrics."""
    clusters = [paper_testbed()]
    for racks in (2, 4):
        for oversubscription in (1.0, 2.0, 4.0):
            clusters.append(multirack_cluster(racks, oversubscription=oversubscription))
    return clusters


def advisor_trace(seed: int, count: int) -> list[tuple[str, AdviseRequest]]:
    """``count`` seeded requests of the three classes, in arrival order."""
    rng = np.random.default_rng([seed, 22])
    fabrics = advisor_fabrics()
    grid = [
        (spec, workload, buckets, fabric)
        for spec in REGISTRY_SPECS
        for workload in ("bert_large", "vgg19")
        for buckets in range(1, 9)
        for fabric in range(len(fabrics))
    ]
    cold_order = rng.permutation(len(grid))
    scenario_cluster = multirack_cluster(2)
    shapes = list(itertools.product(
        itertools.combinations(SCENARIO_EVENTS, 2), SCENARIO_POLICIES, ("bert_large", "vgg19")
    ))
    shape_order = rng.permutation(len(shapes))
    trace = []
    cold_used = scenario_used = 0
    assigned = np.zeros(len(ADVISOR_MIX))
    for index in range(count):
        # The classes interleave evenly in the mix's proportions, so only
        # the requests' contents (not the burstiness) depend on the seed.
        kind = int(np.argmax((index + 1) * np.asarray(ADVISOR_MIX) - assigned))
        assigned[kind] += 1
        if kind == 0:
            trace.append(("hot", HOT_REQUESTS[index % len(HOT_REQUESTS)]))
        elif kind == 1:
            spec, workload, buckets, fabric = grid[cold_order[cold_used % len(grid)]]
            cold_used += 1
            trace.append((
                "cold",
                AdviseRequest(
                    specs=(spec,),
                    workload=workload,
                    cluster=fabrics[fabric],
                    metric_kwargs={"num_buckets": buckets},
                ),
            ))
        else:
            # Scenario shapes (event pair, policy, workload) cycle in a
            # seeded order, so every run prices nearly the same mix of
            # shapes (the p99 tail is made of the costliest ones).
            events, policy, workload = shapes[shape_order[scenario_used % len(shapes)]]
            specs = tuple(str(spec) for spec in rng.choice(CONTENDERS, size=2, replace=False))
            scenario_used += 1
            terms = []
            for template in events:
                start = int(rng.integers(0, 20 - SCENARIO_WINDOW))
                terms.append(template.format(
                    w=int(rng.integers(8)), r=int(rng.integers(2)),
                    a=start, b=start + SCENARIO_WINDOW,
                ))
            trace.append((
                "scenario",
                AdviseRequest(
                    specs=specs,
                    workload=workload,
                    cluster=scenario_cluster,
                    scenario=make_scenario(" + ".join(terms), seed=int(rng.integers(1 << 30))),
                    metric_kwargs={"num_rounds": 20, "policy": policy},
                ),
            ))
    return trace


class AdvisorOpen:
    """Open loop at a fixed arrival rate against a fresh advisor service."""

    name = "advisor-open"

    def __init__(self, seed: int, seconds: float, *, rate_qps: float = ADVISOR_RATE_QPS):
        self.seed = seed
        self.rate_qps = rate_qps
        self.trace = advisor_trace(seed, max(1, int(rate_qps * seconds)))
        self.service: AdvisorService | None = None
        self.loop: asyncio.AbstractEventLoop | None = None

    def setup(self) -> None:
        self.close()
        self.loop = asyncio.new_event_loop()
        self.service = AdvisorService()  # default settings, memory-only cache
        self.loop.run_until_complete(self.service.start())
        self.loop.run_until_complete(self.service.advise_many(HOT_REQUESTS))

    def close(self) -> None:
        if self.loop is None:
            return
        self.loop.run_until_complete(self.service.stop())
        self.loop.close()
        self.loop = None

    async def _replay(self, trace, outcome: Outcome) -> None:
        interval = 1.0 / self.rate_qps
        responses: list = [None] * len(trace)
        lag = 0.0

        async def fire(index: int, request: AdviseRequest, due: float) -> None:
            try:
                responses[index] = await self.service.advise(request)
            except ServiceError as error:
                # A failed request misses every latency limit.
                outcome.fail(f"request {index}: {type(error).__name__}: {error}")
                outcome.op_latency_s.append(math.inf)
            else:
                outcome.op_latency_s.append(time.perf_counter() - due)

        tasks = []
        started = time.perf_counter()
        for index, (_, request) in enumerate(trace):
            due = started + index * interval
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lag = max(lag, time.perf_counter() - due)
            tasks.append(asyncio.create_task(fire(index, request, due)))
        await asyncio.gather(*tasks)
        outcome.wall_s = time.perf_counter() - started
        outcome.pass_s.append(outcome.wall_s)
        outcome.extra["harness.gen_lag_ms_max"] = lag * 1e3
        outcome.results = responses

    def run(self) -> Outcome:
        outcome = Outcome(attempted=len(self.trace))
        self.loop.run_until_complete(self._replay(self.trace, outcome))
        outcome.work = sum(latency <= ADVISOR_LIMIT_S for latency in outcome.op_latency_s)
        outcome.extra["snapshot"] = self.service.snapshot()
        outcome.extra["specs"] = list(REGISTRY_SPECS)
        outcome.extra["clusters"] = advisor_fabrics()
        self.close()
        return outcome

    def check(self, outcome: Outcome) -> None:
        trace = self.trace
        snapshot = outcome.extra["snapshot"]
        if snapshot["rejected"]:
            outcome.fail(f"{snapshot['rejected']} requests rejected")
        for index, ((_, request), response) in enumerate(zip(trace, outcome.results)):
            if response is not None and len(response.ranked) != len(set(request.specs)):
                outcome.fail(f"request {index}: ranked {len(response.ranked)} candidates")
        # The advisor's ranking equals a direct session.throughput ranking.
        rng = np.random.default_rng([self.seed, 33])
        direct = ExperimentSession(record_timeline=False)
        bits = []
        candidates = [i for i, (kind, _) in enumerate(trace) if kind != "hot"]
        for index in rng.choice(candidates, size=min(ADVISOR_CHECK_SAMPLE, len(candidates)),
                                replace=False):
            request, response = trace[index][1], outcome.results[index]
            if response is None:
                continue
            kwargs = dict(request.metric_kwargs)
            estimates = {
                spec: direct.throughput(
                    spec, resolve_workload(request.workload), cluster=request.cluster,
                    scenario=request.scenario, **kwargs,
                )
                for spec in request.specs
            }
            bits.extend(estimate.cost.bits_per_coordinate for estimate in estimates.values())
            expected = sorted(request.specs, key=lambda spec: -estimates[spec].rounds_per_second)
            if [entry.spec for entry in response.ranked] != expected:
                outcome.fail(f"request {index}: ranking differs from session.throughput")
        outcome.extra["compression.bits_per_coord"] = float(np.mean(bits)) if bits else 0.0


# --------------------------------------------------------------------------- #
# validate-bridge
# --------------------------------------------------------------------------- #
VALIDATE_STEPS = 8


class ValidateBridge:
    """Closed loop: ``session.validate()`` over the whole registry."""

    name = "validate-bridge"

    def __init__(self, seed: int, seconds: float, *, num_steps: int = VALIDATE_STEPS):
        self.seed = seed
        self.seconds = seconds
        self.cluster = paper_testbed()
        self.trace = synthetic_trace(
            num_steps=num_steps, num_workers=self.cluster.world_size, seed=seed
        )
        self.session: ExperimentSession | None = None

    def setup(self) -> None:
        self.session = ExperimentSession(cluster=self.cluster, record_timeline=False)
        warm = synthetic_trace(num_steps=1, num_workers=self.cluster.world_size, seed=self.seed)
        self.session.validate(trace=warm)

    def one_pass(self, outcome: Outcome):
        report = self.session.validate(trace=self.trace)
        outcome.attempted += len(report.rows)
        outcome.work += len(report.rows)
        return report

    def run(self) -> Outcome:
        outcome = _closed_loop(self.one_pass, self.seconds)
        outcome.op_latency_s = list(outcome.pass_s)  # one operation is one pass
        outcome.extra["specs"] = [row.spec for row in outcome.results[0].rows]
        outcome.extra["clusters"] = [self.cluster]
        outcome.extra["compression.bits_per_coord"] = float(
            np.mean([row.analytic_bits_per_coordinate for row in outcome.results[0].rows])
        )
        return outcome

    def check(self, outcome: Outcome) -> None:
        first = outcome.results[0].to_payload()
        for report in outcome.results:
            if len(report.rows) != len(REGISTRY_SPECS):
                outcome.fail(f"validated {len(report.rows)} of {len(REGISTRY_SPECS)} specs")
            for row in report.rows:
                if not row.ok:
                    outcome.fail(f"{row.spec}: measured and simulated disagree")
            if report.to_payload() != first:
                outcome.fail("agreement report differs between passes")


WORKLOADS = {cls.name: cls for cls in (TTAPaper, AdvisorOpen, ValidateBridge)}
