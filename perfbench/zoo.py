"""zoo-sim: the discrete-event ServingSimulator on three-tenant zoo traces.

The inputs are :data:`WINDOWS` independent quarter-second windows of a
three-tenant trace (mnist Poisson, cnn bursty, tiny-res Poisson), each
with its own seeded fault plan.  Set-up compiles the networks and builds
the pipelined, checksum-priced cost models from cold caches, then makes
one warm-up pass over every window, which fills the probe cache.  The
timed part reruns the windows warm, round-robin, so it measures the
serving core, policies, fault injection and integrity bookkeeping on the
recorded path, not the cost-model probes.

A warm rerun of a window repeats exactly the same work, so each window
is timed by its fastest rerun, as ``timeit`` does: on a shared host the
slower reruns measure the neighbours' load, which moves this host's
single-thread speed by up to 2x over seconds to minutes.  One window is
one answered simulation request; the host-latency percentiles are taken
over the windows' fastest reruns, and the modeled metrics pool every
window.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from host import freeze_heap
from ledger import TAIL_Q, tail_percentile

ARRAYS = 2
MAX_BATCH = 8
MAX_WAIT_US = 1000.0
SETUP_REPEATS = 3
#: Enough windows for the tail percentile to have MIN_BEYOND beyond it.
WINDOWS = 128
#: Simulated seconds of arrivals per window (request counts = rate x this).
WINDOW_SECONDS = 0.25
BURST_SIZE = 16
#: Per-placement fault draws; each window's plan seed comes from ``--seed``.
CRASH_RATE = 0.002
CORRUPT_RATE = 0.002
#: Passes over the windows a run makes however long they take.
MIN_PASSES = 3
#: Passes over the windows, with and without a tracer, that price it.
TRACER_PASSES = 2


@dataclass(frozen=True)
class ZooTenant:
    network: str
    trace: str
    rate_rps: float
    deadline_ms: float
    max_batch: int = MAX_BATCH


TENANTS = (
    ZooTenant("mnist", "poisson", 400.0, 30.0, max_batch=1),
    ZooTenant("cnn", "bursty", 1000.0, 2.0),
    ZooTenant("tiny-res", "poisson", 1000.0, 2.0),
)


def clear_compiled() -> None:
    """Forget every compiled network, so ``get_network`` compiles again.

    ``clear_program_cache`` leaves the zoo's own memo of built networks,
    which has no public reset, so that dict is emptied here too.
    """
    from repro.compiler import zoo as compiler_zoo

    compiler_zoo.clear_program_cache()
    compiler_zoo._ZOO_CACHE.clear()


def clear_caches() -> None:
    """Drop every compile and probe cache, so set-up starts cold."""
    from repro.hw.pipeline import clear_timeline_caches
    from repro.hw.scheduler import clear_traced_ops_cache
    from repro.perf.stream import clear_analytic_ops_cache
    from repro.serve import clear_probe_cache

    clear_compiled()
    clear_probe_cache()
    clear_timeline_caches()
    clear_traced_ops_cache()
    clear_analytic_ops_cache()


def make_inputs(seed: int):
    """Per window: the tenants' arrival traces and a fault plan, from ``seed``."""
    from repro.serve import FaultPlan, make_trace

    rng = np.random.default_rng(seed)
    windows = []
    for _ in range(WINDOWS):
        traces = []
        for tenant in TENANTS:
            count = int(round(tenant.rate_rps * WINDOW_SECONDS))
            kwargs = {"burst_size": BURST_SIZE} if tenant.trace == "bursty" else {}
            traces.append(make_trace(tenant.trace, tenant.rate_rps, count, rng, **kwargs))
        plan = FaultPlan(
            crash_rate=CRASH_RATE,
            corrupt_rate=CORRUPT_RATE,
            seed=int(rng.integers(0, 2**31)),
        )
        windows.append((traces, plan))
    return windows


def build(windows):
    """Compile the networks and build the cost models once; per window a
    server (its fault plan) and a simulator.  Returns ``[(server, tenants,
    simulator)]``."""
    from repro.compiler.zoo import get_network
    from repro.serve import (
        DeadlineBatcher,
        ScheduledBatchCost,
        ServerConfig,
        ServingSimulator,
        TenantSpec,
    )

    costs = {
        tenant.network: ScheduledBatchCost(
            get_network(tenant.network), pipeline=True, integrity="checksum"
        )
        for tenant in TENANTS
    }
    built = []
    for traces, plan in windows:
        tenants = [
            TenantSpec(
                name=tenant.network,
                trace=trace,
                cost=costs[tenant.network],
                deadline_us=tenant.deadline_ms * 1e3,
                batching=DeadlineBatcher(
                    max_batch=tenant.max_batch, max_wait_us=MAX_WAIT_US
                ),
            )
            for tenant, trace in zip(TENANTS, traces)
        ]
        server = ServerConfig.from_policy(
            "deadline",
            costs[TENANTS[0].network],
            max_batch=MAX_BATCH,
            max_wait_us=MAX_WAIT_US,
            dispatch="prefer-warm",
            arrays=ARRAYS,
            pipeline=True,
            network_name=TENANTS[0].network,
            fault_plan=plan,
            integrity="checksum",
        )
        built.append((server, tenants, ServingSimulator(server=server, tenants=tenants)))
    return built


def timed_setups(windows, before_each=None):
    """Cold set-up plus one warm-up pass, :data:`SETUP_REPEATS` times."""
    times = []
    for _ in range(SETUP_REPEATS):
        clear_caches()
        if before_each is not None:
            before_each()
        start = time.perf_counter()
        built = build(windows)
        for _, _, simulator in built:
            simulator.run()
        times.append(time.perf_counter() - start)
    freeze_heap()
    return statistics.median(times), built


def counts(report) -> tuple:
    """What must repeat exactly across warm reruns of one simulation."""
    return (
        report.offered,
        report.completed,
        report.shed_count,
        report.failed_count,
        report.batch_count,
        report.makespan_us,
        tuple(sorted((report.faults or {}).items())),
    )


@dataclass
class WarmRuns:
    """Each window's fastest warm rerun and last report, and run totals."""

    #: Host seconds of each window's fastest rerun.
    best: list[float]
    reports: list
    reruns: int = 0
    #: Requests offered, and failed by the simulator, over every rerun.
    attempted: int = 0
    failed: int = 0
    #: Reruns whose counts differed from their window's first run.
    diverged: int = 0

    @property
    def throughput_rps(self) -> float:
        return sum(r.offered for r in self.reports) / sum(self.best)


def timed_runs(built, seconds: float) -> WarmRuns:
    """Rerun the windows warm, round-robin, until ``seconds`` pass and every
    window has run :data:`MIN_PASSES` times."""
    runs = WarmRuns(best=[math.inf] * len(built), reports=[None] * len(built))
    first: list[tuple | None] = [None] * len(built)
    end = time.perf_counter() + seconds
    while runs.reruns < MIN_PASSES * len(built) or time.perf_counter() < end:
        window = runs.reruns % len(built)
        start = time.perf_counter()
        report = built[window][2].run()
        runs.best[window] = min(runs.best[window], time.perf_counter() - start)
        runs.reruns += 1
        runs.attempted += report.offered
        runs.failed += report.failed_count
        if first[window] is None:
            first[window] = counts(report)
        elif counts(report) != first[window]:
            runs.diverged += 1
        runs.reports[window] = report
    return runs


def check(built, reports) -> list[str]:
    """Conservation, no corrupted answer served, replay identity per window."""
    from repro.serve import replay_virtual
    from repro.serve.compare import decision_diffs

    problems = []
    for window, ((server, tenants, _), report) in enumerate(zip(built, reports)):
        if report.offered != report.completed + report.shed_count + report.failed_count:
            problems.append(
                f"window {window}: offered {report.offered} != completed"
                f" {report.completed} + shed {report.shed_count}"
                f" + failed {report.failed_count}"
            )
        faults = report.faults or {}
        if faults.get("corrupted_served", 0) != 0:
            problems.append(
                f"window {window}: {faults['corrupted_served']} corrupted results served"
            )
        diffs = decision_diffs(report, replay_virtual(server, tenants=tenants))
        if diffs:
            problems.append(f"window {window}: replay_virtual diverged: {diffs[:3]}")
    return problems


def pooled(reports) -> dict:
    """Counts and simulated latencies of every window together."""
    latencies = np.concatenate(
        [np.array([r.latency_us for r in report.served]) for report in reports]
    )
    faults: dict[str, int] = {}
    for report in reports:
        for key, value in (report.faults or {}).items():
            faults[key] = faults.get(key, 0) + value
    return {
        "offered": sum(r.offered for r in reports),
        "completed": sum(r.completed for r in reports),
        "shed": sum(r.shed_count for r in reports),
        "failed": sum(r.failed_count for r in reports),
        "latency_ms": latencies / 1e3,
        "faults": faults,
    }


def end_to_end(setup_s: float, runs: WarmRuns) -> tuple[dict, list[str]]:
    totals = pooled(runs.reports)
    best_ms = np.array(runs.best) * 1e3
    problems = []
    try:
        tail, _ = tail_percentile(best_ms, TAIL_Q)
    except ValueError as error:
        problems.append(str(error))
        tail = float("nan")
    values = {
        "setup_s": setup_s,
        "throughput_rps": runs.throughput_rps,
        "p50_ms": float(np.median(best_ms)),
        "tail_ms": tail,
        "failed_frac": (totals["shed"] + totals["failed"]) / totals["offered"],
    }
    return values, problems


def model_metrics(reports) -> dict:
    """Simulated-time results and fault counts; exact for a given seed."""
    totals = pooled(reports)
    faults = totals["faults"]
    return {
        "modeled_goodput": totals["completed"] / totals["offered"],
        "modeled_p99_ms": float(np.percentile(totals["latency_ms"], 99)),
        "faults.crashes": faults.get("crashes", 0),
        "faults.retries": faults.get("retries", 0),
        "integrity.detections": faults.get("detected", 0),
        "integrity.corrupted_served": faults.get("corrupted_served", 0),
    }


def tracer_overhead(built) -> float:
    """Warm-run time with a RecordingTracer over the time without, minus one."""
    from repro.obs import RecordingTracer
    from repro.serve import ServingSimulator

    plain = traced = 0.0
    for _ in range(TRACER_PASSES):
        for server, tenants, simulator in built:
            start = time.perf_counter()
            simulator.run()
            plain += time.perf_counter() - start
            recorded = ServingSimulator(
                server=server, tenants=tenants, tracer=RecordingTracer()
            )
            start = time.perf_counter()
            recorded.run()
            traced += time.perf_counter() - start
    return traced / plain - 1.0
