"""Host fingerprint printed with every result, and process hygiene."""

from __future__ import annotations

import ctypes
import gc
import hashlib
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np


def git_sha(root: Path) -> str | None:
    """HEAD's commit from ``.git`` (a benchmark checkout may have none)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over every ``src/**/*.py`` path and content, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def fingerprint(root: Path) -> dict:
    """Commit, source digest, cores, Python, numpy, BLAS and its threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def speed_probe() -> dict:
    """Milliseconds a fixed pure-Python loop and a fixed float64 GEMM take
    on this host now, median of five each.  Printed with every result, so
    that a shift of the host's own speed between runs can be told apart
    from a change in the program."""
    matrix = np.random.default_rng(0).random((192, 192))

    def python_loop() -> None:
        table: dict[int, int] = {}
        for i in range(50_000):
            table[i & 255] = table.get(i & 255, 0) + i

    def gemm() -> None:
        for _ in range(10):
            matrix @ matrix

    speed = {}
    for name, work in (("python_loop_ms", python_loop), ("gemm_ms", gemm)):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            work()
            times.append((time.perf_counter() - start) * 1e3)
        speed[name] = round(statistics.median(times), 3)
    return speed


def freeze_heap() -> None:
    """Keep the start-up heap (imports, engine, set-up) out of later
    collections, so collector pauses during the timed part scale with what
    serving allocates, not with everything the process imported."""
    gc.collect()
    gc.freeze()
