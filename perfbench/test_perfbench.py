"""Self-tests of the benchmark's statistics and bookkeeping.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ledger  # noqa: E402
import live  # noqa: E402
import run  # noqa: E402
import zoo  # noqa: E402


# ---- the "ten samples beyond" percentile rule ------------------------------


@pytest.mark.parametrize(
    ("size", "q", "ok"),
    [(92, 90, True), (91, 90, False), (902, 99, True), (901, 99, False), (11, 0, True)],
)
def test_tail_percentile_needs_ten_samples_beyond(size, q, ok):
    values = np.arange(size, dtype=float)
    if ok:
        value, beyond = ledger.tail_percentile(values, q)
        assert beyond >= ledger.MIN_BEYOND
        assert np.count_nonzero(values > value) == beyond
    else:
        with pytest.raises(ledger.TooFewSamples):
            ledger.tail_percentile(values, q)


def test_tail_percentile_counts_ties_as_not_beyond():
    with pytest.raises(ledger.TooFewSamples):
        ledger.tail_percentile(np.ones(5000), 50)


# ---- due-time latency ------------------------------------------------------


def test_latency_runs_from_due_time_not_send_time():
    phase = ledger.Phase("p", [0.000, 0.001, 0.002], deadline_s=1.0)
    phase.begin(100.0)
    for index in range(3):
        phase.send(index, 100.050)  # the generator stalled for 50 ms
        phase.finish(index, 100.060, ledger.OK, 0)
    assert np.allclose(phase.latencies_ms(), [60.0, 59.0, 58.0])
    assert np.allclose(phase.lateness_ms(), [50.0, 49.0, 48.0])


def test_generator_stall_shows_as_latency_of_the_requests_it_delayed():
    stall_s = 0.05

    async def submit(image):
        if image == 0:
            time.sleep(stall_s)  # blocks the event loop, as a slow path would
        return int(image)

    due = np.linspace(0.0, 0.02, 5)
    phase = ledger.Phase("p", due, deadline_s=0.5, images=np.arange(5))

    async def main():
        phase.begin(time.perf_counter())
        await live.drive_phase(submit, phase, np.arange(5))

    asyncio.run(main())
    latencies = phase.latencies_ms()
    assert phase.counts()["ok"] == 5
    # Requests due during the stall were sent late; their latency counts
    # the wait from their due instant.
    expected = (stall_s - due[1:]) * 1e3
    assert np.all(latencies[1:] >= expected - 1.0)
    assert np.all(phase.lateness_ms()[1:] >= expected - 1.0)


# ---- failures and unfinished requests --------------------------------------


def test_failures_and_unfinished_are_counted():
    phase = ledger.Phase("p", [0.0] * 7, deadline_s=1.0, images=[0, 1, 0, 0, 0, 0, 0])
    phase.begin(0.0)
    for index in range(6):
        phase.send(index, 0.0)
    phase.finish(0, 0.1, ledger.OK, 3)
    phase.finish(1, 0.1, ledger.OK, 5)  # golden says 4: wrong
    phase.finish(2, 0.1, ledger.SHED)
    phase.finish(3, 0.1, ledger.ERROR)
    phase.finish(4, 1.5, ledger.OK, 3)  # after the deadline: unfinished
    # 5 was sent and never answered; 6 was never sent.
    phase.close()
    assert phase.check_predictions(np.array([3, 4])) == 1
    counts = phase.counts()
    assert counts == {
        "unsent": 0,
        "pending": 0,
        "ok": 1,
        "wrong": 1,
        "shed": 1,
        "error": 1,
        "unfinished": 3,
    }
    assert phase.failed() == 6
    other = ledger.Phase("q", [0.0, 0.0], deadline_s=1.0)
    other.begin(0.0)
    other.send(0, 0.0)
    other.finish(0, 0.2, ledger.OK, 0)
    other.close()
    assert ledger.failed_fraction([phase, other]) == (7, 9)
    assert other.completed_rate() == pytest.approx(1 / 1.0)


def test_phase_round_trips_through_json():
    phase = ledger.Phase("p", [0.0, 0.5], deadline_s=1.0, images=[1, 0])
    phase.begin(10.0)
    phase.send(0, 10.0)
    phase.finish(0, 10.2, ledger.OK, 7)
    phase.close()
    copy = ledger.Phase.from_dict(json.loads(json.dumps(phase.to_dict())))
    assert copy.counts() == phase.counts()
    assert np.allclose(copy.latencies_ms(), phase.latencies_ms())


def test_poisson_schedule_count_is_fixed_by_rate_and_window():
    rng = np.random.default_rng(0)
    due = ledger.poisson_schedule(16.0, 8.25, rng)
    assert due.size == 132
    assert np.all(np.diff(due) >= 0) and 0.0 <= due[0] and due[-1] < 8.25


# ---- zoo-sim warm reruns ---------------------------------------------------


class FakeSimulator:
    """Stands in for a ServingSimulator whose run takes ``costs`` in turn."""

    def __init__(self, costs):
        self.costs = list(costs)
        self.calls = 0

    def run(self):
        time.sleep(self.costs[self.calls % len(self.costs)])
        self.calls += 1
        return SimpleNamespace(
            offered=10, completed=9, shed_count=1, failed_count=0, batch_count=3,
            makespan_us=5.0, faults={}, served=[],
        )


def test_warm_reruns_make_every_pass_and_keep_each_windows_fastest():
    simulators = [FakeSimulator([0.02, 0.001, 0.01]), FakeSimulator([0.005])]
    runs = zoo.timed_runs([(None, None, sim) for sim in simulators], seconds=0.0)
    # However slow a rerun, every window runs MIN_PASSES times.
    assert runs.reruns == zoo.MIN_PASSES * len(simulators)
    assert [sim.calls for sim in simulators] == [zoo.MIN_PASSES] * 2
    # A sleep never ends early, so window 0's best is its 1 ms rerun.
    assert 0.001 <= runs.best[0] < 0.01 and runs.best[1] >= 0.005
    assert runs.attempted == 10 * runs.reruns and runs.diverged == 0
    assert runs.throughput_rps == pytest.approx(20 / sum(runs.best))


def test_zoo_tail_has_enough_windows():
    best = np.linspace(1.0, 2.0, zoo.WINDOWS)
    _, beyond = ledger.tail_percentile(best, ledger.TAIL_Q)
    assert beyond >= ledger.MIN_BEYOND


# ---- printed metric names against BENCHMARK.json ---------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in load_spec()["workloads"]] == list(run.WORKLOAD_NAMES)


def test_live_end_to_end_names_match_benchmark_json():
    phases = []
    for name in ("nominal", "overload"):
        phase = ledger.Phase(name, np.linspace(0.0, 0.5, 200), deadline_s=1.0)
        phase.begin(0.0)
        for index in range(len(phase)):
            phase.send(index, phase.due[index])
            phase.finish(index, phase.due[index] + 0.001 * (1 + index / 50), ledger.OK, 0)
        phase.close()
        phases.append(phase)
    run_ = {"setup_s": 1.0, "phases": phases, "wrong": 0}
    values, problems = live.end_to_end(live.WORKLOADS["mnist-live"], run_)
    assert problems == []
    end_to_end, _ = run.declared_units()
    assert list(run.metric_block(dict(values, peak_rss_mb=1.0), end_to_end)) == list(end_to_end)


def test_modeled_cycle_names_are_declared():
    _, per_layer = run.declared_units()
    for network in run.MODELED_NETWORKS:
        assert per_layer[f"hw.modeled_cycles.{network}.b1"] == "cycles"


def test_benchmark_json_records_the_arrival_rates():
    why = {w["name"]: w["why"] for w in load_spec()["workloads"]}
    for name, workload in live.WORKLOADS.items():
        for rate in (workload.nominal_rps, workload.overload_rps):
            assert f"{rate:g} req/s" in why[name]
    for tenant in zoo.TENANTS:
        assert f"{tenant.rate_rps:g} req/s" in why["zoo-sim"]


def test_metric_block_rejects_a_different_metric_set():
    end_to_end, _ = run.declared_units()
    values = dict.fromkeys(end_to_end, 1.0)
    assert list(run.metric_block(values, end_to_end)) == list(end_to_end)
    with pytest.raises(ValueError):
        run.metric_block(dict(values, extra=1.0), end_to_end)
    del values["setup_s"]
    with pytest.raises(ValueError):
        run.metric_block(values, end_to_end)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mnist-live", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
