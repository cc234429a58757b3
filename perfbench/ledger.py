"""Request ledger and statistics for the open-loop workloads.

Every request of a phase is due at a fixed instant of the seeded arrival
schedule.  Its latency runs from that due instant, not from when the
generator got round to sending it, so a stalled generator or event loop
shows up as latency of the requests it delayed.  A phase ends at a fixed
deadline: whatever has not completed by then counts as failed, so a
collapse reads as low throughput and a high failed fraction instead of
as a run that never ends.
"""

from __future__ import annotations

import asyncio
import math
import time

import numpy as np

#: A tail percentile is reported only with at least this many samples
#: strictly above it.
MIN_BEYOND = 10
#: The tail percentile every workload reports as ``tail_ms``.
TAIL_Q = 90.0

UNSENT, PENDING, OK, WRONG, SHED, ERROR, UNFINISHED = range(7)
OUTCOME_NAMES = ("unsent", "pending", "ok", "wrong", "shed", "error", "unfinished")
FAILED_OUTCOMES = (WRONG, SHED, ERROR, UNFINISHED)


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def tail_percentile(values, q: float) -> tuple[float, int]:
    """The ``q``-th percentile and the count of samples strictly above it.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond the percentile.
    """
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        raise TooFewSamples(f"p{q:g} of an empty sample")
    value = float(np.percentile(data, q))
    beyond = int(np.count_nonzero(data > value))
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {data.size} samples has {beyond} beyond it"
            f" (needs {MIN_BEYOND})"
        )
    return value, beyond


def poisson_schedule(rate_rps: float, window_s: float, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (s) of a Poisson process at ``rate_rps`` over ``window_s``.

    The count is fixed at ``round(rate * window)`` and the instants are
    the sorted uniform draws of a Poisson process conditioned on that
    count, so every seed offers exactly the same number of requests.
    """
    count = int(round(rate_rps * window_s))
    return np.sort(rng.uniform(0.0, window_s, count))


class Phase:
    """Outcome ledger of one load phase.

    ``due_s`` are offsets from the phase start and ``deadline_s`` is the
    offset at which the phase closes; :meth:`begin` pins both to a clock.
    """

    def __init__(self, name: str, due_s, deadline_s: float, images=None) -> None:
        self.name = name
        self.due_rel = np.asarray(due_s, dtype=np.float64)
        self.deadline_rel = float(deadline_s)
        if self.due_rel.size and self.due_rel[-1] > self.deadline_rel:
            raise ValueError("a request is due after the phase deadline")
        count = self.due_rel.size
        #: Index into the workload's image pool, per request.
        self.images = (
            np.zeros(count, dtype=np.int64) if images is None else np.asarray(images)
        )
        self.start = math.nan
        self.due = self.due_rel.copy()
        self.deadline = self.deadline_rel
        self.sent = np.full(count, np.nan)
        self.done = np.full(count, np.nan)
        self.outcome = np.full(count, UNSENT, dtype=np.int8)
        self.prediction = np.full(count, -1, dtype=np.int64)
        self.closed = False

    def __len__(self) -> int:
        return self.due_rel.size

    def begin(self, start: float) -> None:
        """Pin the schedule to absolute clock time ``start``."""
        self.start = start
        self.due = start + self.due_rel
        self.deadline = start + self.deadline_rel

    def send(self, index: int, now: float) -> None:
        self.sent[index] = now
        self.outcome[index] = PENDING

    def finish(self, index: int, now: float, outcome: int, prediction: int = -1) -> None:
        """Record a reply; replies after the deadline are ignored."""
        if self.closed or now > self.deadline:
            return
        self.done[index] = now
        self.outcome[index] = outcome
        self.prediction[index] = prediction

    def close(self) -> None:
        """The deadline passed: everything still open is unfinished."""
        open_ = (self.outcome == UNSENT) | (self.outcome == PENDING)
        self.outcome[open_] = UNFINISHED
        self.closed = True

    def check_predictions(self, golden: np.ndarray) -> int:
        """Mark completed requests whose prediction differs from ``golden``."""
        ok = self.outcome == OK
        wrong = ok & (self.prediction != golden[self.images])
        self.outcome[wrong] = WRONG
        return int(np.count_nonzero(wrong))

    # ---- statistics --------------------------------------------------------

    def counts(self) -> dict[str, int]:
        tally = np.bincount(self.outcome, minlength=len(OUTCOME_NAMES))
        return {name: int(tally[code]) for code, name in enumerate(OUTCOME_NAMES)}

    def failed(self) -> int:
        return int(np.count_nonzero(np.isin(self.outcome, FAILED_OUTCOMES)))

    def latencies_ms(self) -> np.ndarray:
        """Due-time latency of every correctly served request."""
        ok = self.outcome == OK
        return (self.done[ok] - self.due[ok]) * 1e3

    def completed_rate(self) -> float:
        """Requests completed by the deadline per second of the phase."""
        served = (self.outcome == OK) | (self.outcome == WRONG)
        return float(np.count_nonzero(served)) / self.deadline_rel

    def lateness_ms(self) -> np.ndarray:
        """How late the generator sent each request it sent."""
        sent = ~np.isnan(self.sent)
        return (self.sent[sent] - self.due[sent]) * 1e3

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "due_rel": self.due_rel.tolist(),
            "deadline_rel": self.deadline_rel,
            "images": self.images.tolist(),
            "start": self.start,
            "sent": self.sent.tolist(),
            "done": self.done.tolist(),
            "outcome": self.outcome.tolist(),
            "prediction": self.prediction.tolist(),
            "closed": self.closed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Phase":
        phase = cls(data["name"], data["due_rel"], data["deadline_rel"], data["images"])
        phase.begin(data["start"])
        phase.sent = np.asarray(data["sent"], dtype=np.float64)
        phase.done = np.asarray(data["done"], dtype=np.float64)
        phase.outcome = np.asarray(data["outcome"], dtype=np.int8)
        phase.prediction = np.asarray(data["prediction"], dtype=np.int64)
        phase.closed = data["closed"]
        return phase


def begin_phases(phases, start: float) -> None:
    """Pin consecutive phases to the clock, the first at ``start``."""
    for phase in phases:
        phase.begin(start)
        start = phase.deadline


async def pace(phase: Phase, send) -> None:
    """Offer ``phase`` open loop, then close it at its deadline.

    ``send(index)`` is called for each request at its due instant, or as
    soon after as the event loop gets round to it; it must not block.
    """
    clock = time.perf_counter
    count, at = len(phase), 0
    while at < count:
        now = clock()
        if now >= phase.deadline:
            break
        while at < count and phase.due[at] <= now:
            phase.send(at, now)
            send(at)
            at += 1
        if at < count:
            await asyncio.sleep(max(0.0, phase.due[at] - clock()))
    await asyncio.sleep(max(0.0, phase.deadline - clock()))
    phase.close()


def failed_fraction(phases) -> tuple[int, int]:
    """``(failed, attempted)`` summed over ``phases``."""
    return sum(p.failed() for p in phases), sum(len(p) for p in phases)
