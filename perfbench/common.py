"""Helpers shared by the perfbench phases: set-up clock, statistics,
peak memory and the result record."""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: set-up phases in the order every workload pays them
SETUP_PHASES = ("imports", "inputs", "builds", "first_compile", "warmup")


class SetupClock:
    """Wall time per set-up phase.  ``imports`` is stamped by the caller,
    which starts timing before the first heavy import.  Only the first
    ``first_compile`` of a process is one; later ones count as warm-up."""

    def __init__(self):
        self.seconds = {p: 0.0 for p in SETUP_PHASES}

    @contextmanager
    def phase(self, name: str):
        if name not in self.seconds:
            raise ValueError(f"unknown set-up phase {name!r}")
        if name == "first_compile" and self.seconds[name] > 0.0:
            name = "warmup"
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0

    def total(self) -> float:
        return sum(self.seconds.values())


@dataclass
class Outcome:
    """What one measured run of a phase (or, merged, of a workload)
    produced.

    ``metrics`` holds the end-to-end figures (untraced) and ``layers``
    the per-layer figures (traced runs only), both as name -> (value,
    unit).  An operation whose output fails its check counts as failed,
    with its reason in ``failures``; ``problems`` lists the checks that
    belong to no single operation, and a run is correct when it is empty.
    """

    attempted: int = 0
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn):
    """Seconds one call of ``fn`` takes."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
