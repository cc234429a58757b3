"""Repository benchmark: three serving workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload mnist-live --seed 1 --seconds 20 --trace 0

Workloads: ``mnist-live`` and ``tiny-socket`` (the live
``ServingRuntime``) and ``zoo-sim`` (the discrete-event simulator).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any output
check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: BLAS threads are pinned before numpy is imported, so both commits of a
#: comparison run the same GEMM threading (2 cores, 2 array threads).
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("mnist-live", "tiny-socket", "zoo-sim")
#: Networks whose batch-1 modeled cycles are reported as exact counts.
MODELED_NETWORKS = ("mnist", "tiny", "cnn", "tiny-res")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def declared_units() -> tuple[dict, dict]:
    """``BENCHMARK.json``'s end-to-end and per-layer metrics: name -> unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    )


def metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    """The result's ``metrics`` object; the names must match ``units`` exactly."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def model_probes(networks) -> dict:
    """Compile time of ``networks`` from a cold cache; exact b1 cycles."""
    import time

    from repro.compiler.zoo import get_network
    from repro.serve import ScheduledBatchCost
    from zoo import clear_compiled

    clear_compiled()
    start = time.perf_counter()
    for name in networks:
        get_network(name)
    values = {"compiler.compile_s": time.perf_counter() - start}
    for name in MODELED_NETWORKS:
        values[f"hw.modeled_cycles.{name}.b1"] = ScheduledBatchCost(
            get_network(name)
        ).batch_cycles(1)
    return values


def run_live(name: str, args) -> dict:
    import live
    from instrument import Probes
    from ledger import ERROR, WRONG

    workload = live.WORKLOADS[name]
    runs = [live.run_once(workload, args.seconds, args.seed)]
    probes = None
    if args.trace:
        probes = Probes()
        runs.append(live.run_once(workload, args.seconds, args.seed, probes))
    problems, summaries = [], []
    for run in runs:
        values, found = live.end_to_end(workload, run)
        problems += found
        summaries.append(run["summary"])
    outcomes = [phase.outcome for run in runs for phase in run["phases"]]
    result = {
        "end_to_end": values if not args.trace else None,
        "attempted": sum(len(o) for o in outcomes),
        "failed": sum(int(((o == ERROR) | (o == WRONG)).sum()) for o in outcomes),
        "problems": problems,
        "summaries": summaries,
    }
    if args.trace:
        from repro.serve import probe_cache_size

        pool, _ = live.make_inputs(workload, args.seconds, args.seed)
        layers = live.layer_metrics(workload, runs[1], probes)
        layers["costs.probe_cache_size"] = probe_cache_size()
        layers.update(live.engine_ceiling(workload, pool))
        layers.update(model_probes([workload.network]))
        layers.update(
            wrapper_overhead(
                runs[0]["phases"][1].completed_rate(), runs[1]["phases"][1].completed_rate()
            )
        )
        result["layers"] = layers
    return result


def wrapper_overhead(untraced: float, traced: float) -> dict:
    return {
        "bench.untraced_throughput_rps": untraced,
        "bench.traced_throughput_rps": traced,
        "bench.wrapper_overhead_frac": 1.0 - traced / untraced if untraced else 0.0,
    }


def run_zoo(args) -> dict:
    import zoo
    from instrument import Timers, cost_probe_patches, patched, serving_core_patches
    from repro.serve import probe_cache_size

    windows = zoo.make_inputs(args.seed)
    setup_timers = Timers()
    with patched(cost_probe_patches(setup_timers) if args.trace else []):
        setup_s, built = zoo.timed_setups(windows, before_each=setup_timers.reset)
    cache_size = probe_cache_size()
    runs = zoo.timed_runs(built, args.seconds)
    values, problems = zoo.end_to_end(setup_s, runs)
    problems += zoo.check(built, runs.reports)
    if runs.diverged:
        problems.append(f"{runs.diverged} warm reruns diverged from their window's first run")
    totals = zoo.pooled(runs.reports)
    result = {
        "end_to_end": values,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "problems": problems,
        "summaries": [
            {
                "warm_reruns": runs.reruns,
                "windows": len(built),
                "tail": f"p{zoo.TAIL_Q:g}",
                **{k: v for k, v in totals.items() if k != "latency_ms"},
            }
        ],
    }
    if args.trace:
        core_timers = Timers()
        with patched(serving_core_patches(core_timers)):
            traced = zoo.timed_runs(built, args.seconds)
        if traced.diverged or [zoo.counts(r) for r in traced.reports] != [
            zoo.counts(r) for r in runs.reports
        ]:
            problems.append("the traced reruns diverged from the untraced ones")
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        reruns = traced.reruns
        result["layers"] = {
            "core.offer.us": core_timers.mean_us("core.offer"),
            "core.offer.calls": core_timers.calls.get("core.offer", 0) / reruns,
            "core.form_and_place.us": core_timers.mean_us("core.form_and_place"),
            "core.form_and_place.calls": core_timers.calls.get("core.form_and_place", 0)
            / reruns,
            "policies.admit.us": core_timers.mean_us("policies.admit"),
            "costs.probe.calls": setup_timers.calls.get("costs.probe", 0),
            "costs.probe_s": setup_timers.seconds.get("costs.probe", 0.0),
            "costs.probe_cache_size": cache_size,
            "hw.simulate_stream.calls": setup_timers.calls.get("hw.simulate_stream", 0),
            "hw.simulate_stream.s": setup_timers.seconds.get("hw.simulate_stream", 0.0),
            "obs.tracer_overhead_frac": zoo.tracer_overhead(built),
            **zoo.model_metrics(runs.reports),
            **wrapper_overhead(runs.throughput_rps, traced.throughput_rps),
            **model_probes([tenant.network for tenant in zoo.TENANTS]),
        }
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    import host

    print("fingerprint " + json.dumps(host.fingerprint(ROOT)), flush=True)
    print("host_speed start " + json.dumps(host.speed_probe()), flush=True)
    if args.workload == "zoo-sim":
        result = run_zoo(args)
    else:
        result = run_live(args.workload, args)
    print("host_speed end " + json.dumps(host.speed_probe()))
    for summary in result["summaries"]:
        print(f"summary {args.workload} seed={args.seed} " + json.dumps(summary))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    end_to_end, per_layer = declared_units()
    if args.trace:
        # A layer this workload does not exercise reports 0.
        values = dict.fromkeys(per_layer, 0.0)
        values.update(result["layers"])
        units = per_layer
    else:
        values = dict(result["end_to_end"], peak_rss_mb=peak_rss_mb())
        units = end_to_end
    metrics = metric_block(values, units)
    for name, metric in metrics.items():
        print(f"metric {args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    correct = not result["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
