"""Helpers shared by the workloads: timers, statistics, checks, environment."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Dataset, scale and model seed of every workload.  The models are the
#: system under test, so they stay fixed; ``--seed`` draws the requests.
DATASET = "adult"
SCALE = "fast"
MODEL_SEED = 0

#: Independent set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


class PhaseTimer:
    """Named wall-clock phases: ``with timer("setup.data_s"): ...``."""

    def __init__(self):
        self.seconds = {}

    @contextmanager
    def __call__(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + (
                time.perf_counter() - start)


def percentile(values, q):
    """``q``-th percentile (linear interpolation); NaN when empty."""
    return float(np.percentile(values, q)) if len(values) else float("nan")


def median(values):
    return float(statistics.median(values)) if len(values) else float("nan")


def peak_rss_mb():
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_answers(projector, blackbox, x, x_cf, desired, predicted, valid):
    """Per-row output checks; returns a boolean ``ok`` mask.

    A row passes when its counterfactual keeps every immutable column of
    its input, its reported prediction equals a fresh black-box predict,
    and its validity flag equals ``predicted == desired``.
    """
    x_cf = np.asarray(x_cf, dtype=np.float64)
    kept = projector.project(x, x_cf[:, None, :])[:, 0, :]
    ok = (kept == x_cf).all(axis=1)
    ok &= blackbox.predict(x_cf) == np.asarray(predicted)
    ok &= np.asarray(valid) == (np.asarray(predicted) == np.asarray(desired))
    return ok


def environment(blas_threads):
    """Versions, core count and BLAS threading of this run."""
    import scipy

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
    }


#: Reference probe times: the host-speed index reads 1 on a host whose
#: probe takes exactly these (a shared 2-core VM read about 0.85 in its
#: fast mode and 1.3-1.5 in its slow mode).
PROBE_REF_LOOP_MS = 3.0
PROBE_REF_GEMM_MS = 2.5


class HostSpeed:
    """How much slower than the reference host the current host runs.

    Shared hosts change speed under a benchmark: on a shared 2-core VM
    the same code ran 1.6x slower for minutes at a time, and a fixed
    probe about 1.5x slower.  The probe here, a pure-Python loop and four
    256x256 GEMMs (~5 ms), runs no repro code.  A sample is the
    geometric mean of its two times over their reference times;
    ``index`` is the median sample of the run.  Compute-bound times are
    divided by the index and rates multiplied by it, so a slow spell of
    the host does not read as a regression of the code.
    """

    def __init__(self):
        self.matrix = np.random.default_rng(0).standard_normal((256, 256))
        self.loop_ms, self.gemm_ms, self.samples = [], [], []
        self.last = -float("inf")

    def sample(self, repeats=1):
        for _ in range(repeats):
            start = time.perf_counter()
            total = 0
            for i in range(50_000):
                total += i * i
            middle = time.perf_counter()
            for _ in range(4):
                self.matrix @ self.matrix
            end = time.perf_counter()
            self.loop_ms.append(1e3 * (middle - start))
            self.gemm_ms.append(1e3 * (end - middle))
            self.samples.append(math.sqrt(
                self.loop_ms[-1] / PROBE_REF_LOOP_MS
                * self.gemm_ms[-1] / PROBE_REF_GEMM_MS))
        self.last = time.perf_counter()

    def sample_every(self, period_s):
        """Sample once if ``period_s`` passed since the last sample."""
        if time.perf_counter() - self.last >= period_s:
            self.sample()

    @property
    def index(self):
        return median(self.samples)

    def record(self):
        """The probe medians and the index, for the environment record."""
        return {"probe_loop_ms": median(self.loop_ms),
                "probe_gemm_ms": median(self.gemm_ms),
                "samples": len(self.samples), "speed_index": self.index}
