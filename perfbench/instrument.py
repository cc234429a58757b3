"""Per-layer instrumentation, installed from outside the program.

The traced run wraps the public entry points of each layer (and, for
the engine's stage split, the module-level names the batched forward
calls) with timers, then restores the originals.  Nothing under
``src/`` is edited.  The untraced run installs none of this, so the
difference between the two runs' throughput is the wrappers' cost.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time

import numpy as np

#: Period of the loop-lag monitor's callback.
LAG_PERIOD_S = 0.005


class Timers:
    """Thread-safe call counts and seconds per name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + calls
            self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def reset(self) -> None:
        with self._lock:
            self.calls.clear()
            self.seconds.clear()

    def mean_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.seconds.get(name, 0.0) / calls * 1e6 if calls else 0.0

    def wrap(self, name: str, func):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - start)

        return timed


@contextlib.contextmanager
def patched(replacements):
    """Temporarily ``setattr(owner, attr, value)`` for each triple."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def engine_stage_patches(timers: Timers):
    """Stage timers around the functions the batched forward calls.

    No timed stage calls another timed stage, so each one's time is its
    self time: conv (both convolutions, GEMM and saturation included),
    the ClassCaps and routing einsums, the LUT operators, and the
    requantize calls the forward itself makes.
    """
    import repro.capsnet.batched as batched

    stages = {
        "_batched_conv2d": "conv",
        "_exact_einsum": "caps_einsum",
        "hw_squash": "lut",
        "hw_softmax": "lut",
        "hw_norm": "lut",
        "requantize": "requantize",
    }
    return [
        (batched, attr, timers.wrap(f"stage.{stage}", getattr(batched, attr)))
        for attr, stage in stages.items()
    ]


def serving_core_patches(timers: Timers):
    """Timers on ServingCore.offer / form_and_place and every admit()."""
    from repro.serve import core, policies

    targets = [
        (core.ServingCore, "offer", "core.offer"),
        (core.ServingCore, "form_and_place", "core.form_and_place"),
    ]
    for cls in (
        policies.AdmitAll,
        policies.QueueLimitAdmission,
        policies.DeadlineAdmission,
        policies.DegradedModeAdmission,
        policies.ChainedAdmission,
    ):
        targets.append((cls, "admit", "policies.admit"))
    return [
        (owner, attr, timers.wrap(name, owner.__dict__[attr]))
        for owner, attr, name in targets
    ]


def cost_probe_patches(timers: Timers):
    """Count cost-model calls that probed (grew the probe cache).

    Only the outermost call is timed, so a warm-cost query that prices
    its cold cost on the way counts once.  ``simulate_stream`` is timed
    on its own: it is the pipeline model every warm probe runs.
    """
    from repro.hw import pipeline
    from repro.serve import costs

    depth = threading.local()

    def probe_wrapper(func):
        def timed(*args, **kwargs):
            level = getattr(depth, "level", 0)
            if level:
                depth.level = level + 1
                try:
                    return func(*args, **kwargs)
                finally:
                    depth.level = level
            before = costs.probe_cache_size()
            start = time.perf_counter()
            depth.level = 1
            try:
                return func(*args, **kwargs)
            finally:
                depth.level = 0
                if costs.probe_cache_size() > before:
                    timers.add("costs.probe", time.perf_counter() - start)

        return timed

    replacements = [
        (pipeline, "simulate_stream", timers.wrap("hw.simulate_stream", pipeline.simulate_stream))
    ]
    for cls in (costs.ScheduledBatchCost, costs.AnalyticBatchCost):
        for attr in ("batch_cycles", "warm_batch_cycles"):
            replacements.append((cls, attr, probe_wrapper(cls.__dict__[attr])))
    return replacements


class TimedExecutor:
    """Executor wrapper: wall time and images of every ``execute`` call."""

    def __init__(self, executor, timers: Timers) -> None:
        self.inner = executor
        self.timers = timers
        self.image_size = executor.image_size
        self.intervals: list[tuple[float, float]] = []

    def execute(self, array: int, images: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        try:
            return self.inner.execute(array, images)
        finally:
            end = time.perf_counter()
            self.timers.add("execute", end - start)
            self.timers.add("execute.images", 0.0, calls=len(images))
            self.intervals.append((start, end))

    def busy_s(self, start: float, end: float) -> float:
        """Engine-busy seconds (summed over arrays) inside ``[start, end]``."""
        return sum(
            max(0.0, min(b, end) - max(a, start)) for a, b in list(self.intervals)
        )

    def close(self) -> None:
        self.inner.close()


class LoopLagMonitor:
    """A periodic callback on the event loop; records how late it ran."""

    def __init__(self) -> None:
        self.lag_ms: list[float] = []
        self._handle = None
        self._loop = None

    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._schedule(time.perf_counter())

    def _schedule(self, now: float) -> None:
        due = now + LAG_PERIOD_S
        self._handle = self._loop.call_later(LAG_PERIOD_S, self._tick, due)

    def _tick(self, due: float) -> None:
        now = time.perf_counter()
        self.lag_ms.append(max(0.0, now - due) * 1e3)
        self._schedule(now)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class Probes:
    """Everything the traced live run installs: executor timer, stage and
    serving-core timers, and the loop-lag monitor."""

    def __init__(self) -> None:
        self.timers = Timers()
        self.monitor = LoopLagMonitor()
        self.executor: TimedExecutor | None = None
        self._stack: contextlib.ExitStack | None = None

    def wrap_executor(self, executor) -> TimedExecutor:
        self.executor = TimedExecutor(executor, self.timers)
        return self.executor

    def begin(self) -> None:
        """Start counting (set-up and calibration calls are not counted)."""
        self.timers.reset()
        self.executor.intervals.clear()
        self._stack = contextlib.ExitStack()
        self._stack.enter_context(
            patched(engine_stage_patches(self.timers) + serving_core_patches(self.timers))
        )

    def end(self) -> None:
        self._stack.close()
