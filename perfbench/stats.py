"""Reducers shared by the runner, the tracer and ``compare``.

Two rules from the benchmark's design live here so they are tested once:

* a percentile is only reported when at least ``MIN_BEYOND`` samples lie
  beyond it (a p90 needs 100 samples, a median 20); otherwise the reducer
  refuses and returns ``None``;
* ``ok_share`` counts every attempted operation, and an operation only
  counts as ok when it returned without error *and* passed its output
  check.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import sys
import time
from collections import Counter

import numpy as np

MIN_BEYOND = 10


def supported(count: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """True when ``count`` samples leave ``min_beyond`` beyond the q-th."""
    return count > 0 and count * (1.0 - q / 100.0) >= min_beyond - 1e-9


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND
               ) -> float | None:
    """Linear-interpolated q-th percentile, or None when unsupported."""
    values = np.asarray(samples, dtype=np.float64)
    if not supported(values.size, q, min_beyond):
        return None
    return float(np.percentile(values, q))


def median(samples) -> float:
    """Plain median for descriptive per-layer figures (0.0 when empty)."""
    values = np.asarray(samples, dtype=np.float64)
    return float(np.median(values)) if values.size else 0.0


def mean(samples) -> float:
    values = np.asarray(samples, dtype=np.float64)
    return float(values.mean()) if values.size else 0.0


def interquartile_mean(samples) -> float:
    """Mean of the values between the first and third quartile.

    The run-level reducer over sub-windows: a sub-window caught in a host
    stall or burst falls outside the middle half and is dropped, as with a
    median, while the middle half is averaged, so the figure moves
    smoothly when the host's speed is a mixture of fast and slow phases
    instead of jumping from one phase to the other.
    """
    values = np.sort(np.asarray(samples, dtype=np.float64))
    if not values.size:
        raise ValueError("interquartile mean of no values")
    low, high = np.percentile(values, [25.0, 75.0])
    return float(values[(values >= low) & (values <= high)].mean())


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) the way ``statistics.quantiles(n=4)`` computes them."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Tally:
    """Attempted / failed accounting behind ``ok_share``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.reasons[reason] += count

    def check(self, passed: bool, reason: str) -> bool:
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed

    @property
    def ok_share(self) -> float:
        if not self.attempted:
            return 0.0
        return (self.attempted - self.failed) / self.attempted


def _blas_threads() -> tuple[str, int | None]:
    """The loaded OpenBLAS build string and its thread count, if visible."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line and ".so" in line})
    except OSError:
        return "unknown", None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return config().decode(), int(threads())
    return "unknown", None


_PROBE = np.random.default_rng(0).random((64, 64))


def host_speed(seconds: float = 0.25) -> float:
    """Iterations per second of a fixed numpy + python loop.

    The runner takes it before set-up and after the checks: a run whose
    figure is far below the others fell into a slow-down of the host, not
    of the program, and can be identified and run again.
    """
    count = 0
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds:
        for _ in range(8):
            _PROBE @ _PROBE
        sum(i * i for i in range(2000))
        count += 1
    return count / elapsed


def environment(seed: int) -> dict:
    """Interpreter, numpy, BLAS and machine facts recorded with every run."""
    blas, threads = _blas_threads()
    return {"python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": threads,
            "blas_env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
            "cpu_count": os.cpu_count(),
            "cpu_affinity": (sorted(os.sched_getaffinity(0))
                             if hasattr(os, "sched_getaffinity") else None),
            "machine": platform.machine(),
            "seed": seed}
