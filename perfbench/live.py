"""Live workloads: the wall-clock ServingRuntime, in-process and over its socket.

Each run offers two open-loop phases from one seeded schedule: a
nominal phase (latency is measured here) and a bounded overload phase
(throughput is measured here).  Rates are absolute constants, never
derived from what the code under test manages.  Every served prediction
is checked against the golden per-image model.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from host import freeze_heap
from ledger import (
    ERROR,
    OK,
    SHED,
    TAIL_Q,
    Phase,
    begin_phases,
    failed_fraction,
    pace,
    poisson_schedule,
    tail_percentile,
)

#: Array pool and batching shared by the live workloads.
ARRAYS = 2
POLICY = "fifo"
#: Shares of ``--seconds``: nominal arrivals, nominal grace, overload.
NOMINAL_SHARE, GRACE_SHARE, OVERLOAD_SHARE = 0.55, 0.05, 0.40
#: Set-up runs at least this many times, and until this much time has gone
#: into it, so that a cheap network's set-up median is not mostly noise.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
CLIENT = Path(__file__).resolve().parent / "socket_client.py"
SOCKET_CONNECTIONS = 2


@dataclass(frozen=True)
class LiveWorkload:
    name: str
    network: str
    max_batch: int
    nominal_rps: float
    overload_rps: float
    pool: int
    calibrate_sizes: tuple[int, ...]
    socket: bool = False
    arrays: int = ARRAYS
    #: Queue depth beyond which admission sheds (None: admit all).
    queue_limit: int | None = None


WORKLOADS = {
    # Numerics-bound: ~50 req/s capacity on a 2-core host.  The overload
    # is three times that, so the failed share is large and moves little
    # with host speed; the queue limit sheds the excess at admission
    # instead of queueing seconds of work the shutdown would then drain.
    # The golden model costs ~0.4 s per MNIST image: a small image pool.
    "mnist-live": LiveWorkload(
        "mnist-live", "mnist", 16, 16.0, 150.0, 8, (1, 8, 16), queue_limit=32
    ),
    # The tiny runtime through serve_socket (JSONL), 2 client connections,
    # one array (a second engine thread only adds GIL contention here).
    # The front end serves ~470 req/s; the overload is three times that.
    # Its nominal p99 (10-25 ms over ten seeds) rides on rare host stalls,
    # so the tail reported is p90.
    "tiny-socket": LiveWorkload(
        "tiny-socket", "tiny", 64, 200.0, 1500.0, 256, (1, 8, 32, 64), True, arrays=1
    ),
}


def network_config(name: str):
    from repro.capsnet.config import mnist_capsnet_config, tiny_capsnet_config

    return mnist_capsnet_config() if name == "mnist" else tiny_capsnet_config()


def make_inputs(workload: LiveWorkload, seconds: float, seed: int):
    """Image pool and the two phases, all from ``seed``."""
    from repro.data.synthetic import SyntheticDigits

    rng = np.random.default_rng(seed)
    config = network_config(workload.network)
    pool = SyntheticDigits(size=config.image_size, rng=rng).generate(workload.pool).images
    nominal = NOMINAL_SHARE * seconds
    overload = OVERLOAD_SHARE * seconds
    phases = []
    for name, rate, window, length in (
        ("nominal", workload.nominal_rps, nominal, nominal + GRACE_SHARE * seconds),
        ("overload", workload.overload_rps, overload, overload),
    ):
        due = poisson_schedule(rate, window, rng)
        phases.append(Phase(name, due, length, rng.integers(0, workload.pool, due.size)))
    return np.ascontiguousarray(pool), phases


def set_up(workload: LiveWorkload, pool: np.ndarray, wrap=None):
    """Build the engine, calibrate the cost model, build the runtime."""
    from repro.serve import MeasuredBatchCost, ServerConfig, ServingRuntime
    from repro.serve.workers import InlineEngineExecutor

    executor = InlineEngineExecutor(network_config(workload.network))
    if wrap is not None:
        executor = wrap(executor)
    sizes = workload.calibrate_sizes
    calibration = np.resize(pool, (sizes[-1],) + pool.shape[1:])
    cost = MeasuredBatchCost.calibrate(executor, calibration, sizes=sizes, repeats=1)
    server = ServerConfig.from_policy(
        POLICY,
        cost,
        max_batch=workload.max_batch,
        queue_limit=workload.queue_limit,
        arrays=workload.arrays,
        network_name=workload.network,
    )
    return ServingRuntime(server, executor=executor)


def timed_setups(workload: LiveWorkload, pool: np.ndarray, wrap=None):
    """Set up until :data:`SETUP_REPEATS` and :data:`SETUP_MIN_S` are both
    reached; the median time and the last runtime."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        start = time.perf_counter()
        runtime = set_up(workload, pool, wrap)
        times.append(time.perf_counter() - start)
    freeze_heap()
    return statistics.median(times), runtime


async def drive_phase(submit, phase: Phase, pool: np.ndarray) -> None:
    """Offer ``phase`` open loop through ``submit``; close it at its deadline."""
    from repro.serve import RequestShedError

    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    tasks: set[asyncio.Task] = set()

    async def one(index: int) -> None:
        try:
            prediction = await submit(pool[phase.images[index]])
        except RequestShedError:
            phase.finish(index, clock(), SHED)
        except Exception:  # noqa: BLE001 - a serving error fails only its request
            phase.finish(index, clock(), ERROR)
        else:
            phase.finish(index, clock(), OK, prediction)

    def send(index: int) -> None:
        task = loop.create_task(one(index))
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    await pace(phase, send)
    leftover = list(tasks)
    for task in leftover:
        task.cancel()
    await asyncio.gather(*leftover, return_exceptions=True)


async def serve_in_process(runtime, phases, pool, monitor=None) -> None:
    if monitor is not None:
        monitor.start()
    begin_phases(phases, time.perf_counter())
    try:
        for phase in phases:
            await drive_phase(runtime.submit, phase, pool)
    finally:
        if monitor is not None:
            monitor.stop()
        await runtime.stop()


def _quiet_cancelled(loop, context) -> None:
    # Python 3.11's stream server reports a *cancelled* connection handler
    # as an exception in its done-callback; cancelling the handlers is how
    # this benchmark ends a socket run, so only that report is dropped.
    if isinstance(context.get("exception"), asyncio.CancelledError):
        return
    loop.default_exception_handler(context)


async def serve_over_socket(runtime, phases, pool, seconds: float, monitor=None) -> dict:
    """Serve ``serve_socket`` to a separate open-loop client process."""
    asyncio.get_running_loop().set_exception_handler(_quiet_cancelled)
    server = await runtime.serve_socket("127.0.0.1", 0)
    plan = {
        "port": server.sockets[0].getsockname()[1],
        "connections": SOCKET_CONNECTIONS,
        "lines": [json.dumps(image.tolist()) for image in pool],
        "phases": [phase.to_dict() for phase in phases],
    }
    process = await asyncio.create_subprocess_exec(
        sys.executable,
        str(CLIENT),
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
        limit=1 << 28,
    )
    if monitor is not None:
        monitor.start()
    try:
        process.stdin.write(json.dumps(plan).encode() + b"\n")
        await process.stdin.drain()
        line = await asyncio.wait_for(process.stdout.readline(), timeout=seconds + 60.0)
    finally:
        if monitor is not None:
            monitor.stop()
        # Close the server side before the client hangs up, so no handler
        # is left writing replies into a dead connection.
        server.close()
        handlers = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        process.stdin.close()
        try:
            await asyncio.wait_for(process.wait(), timeout=10.0)
        finally:
            if process.returncode is None:
                process.kill()
                await process.wait()
        await runtime.stop()
    if process.returncode != 0 or not line:
        raise RuntimeError(f"socket client exited with {process.returncode}")
    return json.loads(line)


def run_once(workload, seconds, seed, probes=None) -> dict:
    """One measured run: set-up, both phases, prediction checks."""
    from repro.capsnet.quantized import QuantizedCapsuleNet

    pool, phases = make_inputs(workload, seconds, seed)
    wrap = probes.wrap_executor if probes is not None else None
    setup_s, runtime = timed_setups(workload, pool, wrap)
    monitor = probes.monitor if probes is not None else None
    socket_reply = None
    if probes is not None:
        probes.begin()
    try:
        if workload.socket:
            socket_reply = asyncio.run(
                serve_over_socket(runtime, phases, pool, seconds, monitor)
            )
            phases = [Phase.from_dict(data) for data in socket_reply["phases"]]
        else:
            asyncio.run(serve_in_process(runtime, phases, pool, monitor))
    finally:
        if probes is not None:
            probes.end()
    golden = QuantizedCapsuleNet(network_config(workload.network)).predict_batch(pool)
    wrong = sum(phase.check_predictions(golden) for phase in phases)
    return {
        "setup_s": setup_s,
        "phases": phases,
        "report": runtime.report(),
        "wrong": wrong,
        "socket": socket_reply,
    }


def end_to_end(workload: LiveWorkload, run: dict) -> tuple[dict, list[str]]:
    """End-to-end metrics of one run, plus the failed checks."""
    nominal, overload = run["phases"]
    problems = []
    if run["wrong"]:
        problems.append(f"{run['wrong']} predictions differ from the golden model")
    latencies = nominal.latencies_ms()
    p50 = float(np.median(latencies)) if latencies.size else float("nan")
    try:
        tail, beyond = tail_percentile(latencies, TAIL_Q)
    except ValueError as error:
        problems.append(str(error))
        tail, beyond = float("nan"), 0
    failed, attempted = failed_fraction(run["phases"])
    metrics = {
        "setup_s": run["setup_s"],
        "throughput_rps": overload.completed_rate(),
        "p50_ms": p50,
        "tail_ms": tail,
        "failed_frac": failed / attempted,
    }
    run["summary"] = {
        "tail": f"p{TAIL_Q:g}",
        "samples": int(latencies.size),
        "beyond_tail": beyond,
        "nominal": nominal.counts(),
        "overload": overload.counts(),
    }
    return metrics, problems


def engine_ceiling(workload: LiveWorkload, pool: np.ndarray) -> dict:
    """ms/img of direct BatchedQuantizedForward.predict calls (best of a few)."""
    from repro.capsnet.batched import BatchedQuantizedForward
    from repro.capsnet.quantized import QuantizedCapsuleNet

    engine = BatchedQuantizedForward(QuantizedCapsuleNet(network_config(workload.network)))
    ceiling = {}
    for size, repeats in ((1, 5), (8, 3), (64, 1)):
        batch = np.resize(pool, (size,) + pool.shape[1:])
        engine.predict(batch)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            engine.predict(batch)
            best = min(best, time.perf_counter() - start)
        ceiling[f"capsnet.ceiling_ms_per_img.b{size}"] = best / size * 1e3
    return ceiling


def layer_metrics(workload: LiveWorkload, run: dict, probes) -> dict:
    """Per-layer metrics of one traced run."""
    timers, executor = probes.timers, probes.executor
    nominal, overload = run["phases"]
    images = timers.calls.get("execute.images", 0)

    def per_image_ms(name: str) -> float:
        return timers.seconds.get(name, 0.0) / images * 1e3 if images else 0.0

    def busy(start: float, end: float) -> float:
        return executor.busy_s(start, end) / (workload.arrays * (end - start))

    breakdown = run["report"].latency_summary()
    lateness = np.concatenate([phase.lateness_ms() for phase in run["phases"]])
    lag = probes.monitor.lag_ms
    values = {
        "capsnet.execute.ms_per_img": per_image_ms("execute"),
        "capsnet.execute.batch_mean": images / max(1, timers.calls.get("execute", 0)),
        "capsnet.busy_frac": busy(nominal.start, overload.deadline),
        "capsnet.conv_ms": per_image_ms("stage.conv"),
        "capsnet.caps_einsum_ms": per_image_ms("stage.caps_einsum"),
        "capsnet.lut_ms": per_image_ms("stage.lut"),
        "fixedpoint.requantize_ms": per_image_ms("stage.requantize"),
        "runtime.queueing_ms": breakdown["queueing"]["p50_us"] / 1e3,
        "runtime.batching_ms": breakdown["batching"]["p50_us"] / 1e3,
        "runtime.compute_ms": breakdown["compute"]["p50_us"] / 1e3,
        "runtime.batch_mean": run["report"].mean_batch_size,
        "runtime.loop_lag_ms": float(np.percentile(lag, 99)) if lag else 0.0,
        "runtime.gen_late_ms": float(np.percentile(lateness, 99)) if lateness.size else 0.0,
        "runtime.overhead_frac": 1.0 - busy(overload.start, overload.deadline),
        "latency.samples": float(nominal.latencies_ms().size),
        "core.offer.us": timers.mean_us("core.offer"),
        "core.offer.calls": timers.calls.get("core.offer", 0),
        "core.form_and_place.us": timers.mean_us("core.form_and_place"),
        "core.form_and_place.calls": timers.calls.get("core.form_and_place", 0),
        "policies.admit.us": timers.mean_us("policies.admit"),
    }
    if workload.socket:
        rtt = (nominal.done - nominal.sent)[nominal.outcome == OK] * 1e3
        values["socket.rtt_ms"] = float(np.median(rtt)) if rtt.size else 0.0
        values["socket.batch_mean"] = run["report"].mean_batch_size
        values["socket.errors"] = run["socket"]["errors"]
    return values
