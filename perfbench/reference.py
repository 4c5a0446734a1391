"""How fast the host runs, sampled while the benchmark's passes run.

On a shared host the same code runs at speeds a third or more apart, and the
host switches between them many times a second and drifts between runs. A
pass's wall time alone therefore measures the host as much as lwlattice.

``HostSpeed`` samples a small fixed reference kernel every ``INTERVAL_S``
seconds of wall time while a pass runs: a ``SIGALRM`` handler runs it in the
main thread, between two bytecodes of whatever the pass is doing. The
kernel's time is taken out of the pass's wall time, and the pass's cost is
its net wall time times the mean reference rate (kernels per second) of the
samples taken during it: how many reference kernels the host could have run
in the time the pass took. That cost moves when lwlattice gets faster or
slower, not when the host does.

The kernel does not call lwlattice and is the same for every commit. It
mixes the kinds of work lwlattice spends its time on: interpreter work,
outer products of sample points contracted by a BLAS matrix product (the
shape of the oracle's moment sums) and a batched small linear solve. Each
workload sets the points and dimension of the contraction to those of its
own oracle calls, up to ``MAX_POINTS``, so that the kernel meets the same
caches: a host state that evicts a workload's working set from a core's
cache then slows the kernel alike. It takes 5 to 10 ms.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PY_STEPS = 30_000
#: Points and entries of the outer products per kernel call; smaller shapes
#: repeat the contraction until they reach about as many entries.
MAX_POINTS = 65_536
ENTRIES = MAX_POINTS * 9
INTERVAL_S = 0.2


class HostSpeed:
    """Samples the reference kernel while active: once on entry, every
    ``INTERVAL_S`` seconds from ``SIGALRM``, and once on exit."""

    def __init__(self, points: int, dims: int):
        points = min(points, MAX_POINTS)
        rng = np.random.default_rng(0)
        self.points = rng.standard_normal((points, dims))
        self.weights = rng.random(points)
        self.rounds = max(1, round(ENTRIES / (points * dims * dims)))
        self.mats = 2.0 * np.eye(3) + 0.1 * rng.standard_normal((2000, 3, 3))
        self.rhs = np.ones((2000, 3, 1))
        self.samples = []
        self.kernel()

    def kernel(self) -> float:
        """Run the reference kernel once; returns its wall time."""
        start = time.perf_counter()
        acc = 0
        for i in range(PY_STEPS):
            acc += i * i
        m, d = self.points.shape
        for _ in range(self.rounds):
            pairs = np.einsum("mi,mj->mij", self.points, self.points).reshape(m, d * d)
            (pairs * self.weights[:, None]).T @ pairs
        np.linalg.solve(self.mats, self.rhs)
        return time.perf_counter() - start

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.samples.append((start, self.kernel()))

    def __enter__(self):
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def busy_since(self, start: float) -> float:
        """Time the samples taken since ``start`` took."""
        return sum(took for at, took in self.samples if at >= start)

    def rate(self) -> float:
        """Mean reference kernels per second over this activation's samples."""
        return statistics.fmean(1.0 / took for _, took in self.samples)

    def times(self) -> list:
        return [took for _, took in self.samples]
