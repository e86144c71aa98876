"""Machine-speed gauge: fixed reference kernels timed between ops.

On a shared host the same op, with the same input, can take twice as long
a minute later while other tenants load the machine, and not every kind of
work slows alike: interpreted code and small-array numpy slow together
(up to 2x here), while streaming a large dense matrix follows the memory
bandwidth left over.  ``ReferenceClock`` therefore times two kernels at op
boundaries (at most once per ``SAMPLE_EVERY_S``):

* ``core``   -- an interpreted loop of n=45 complex matvecs (integrator
  steps), 2-D FFTs of a 128 x 128 grid, and dict arithmetic on tuple keys
  (the sparse Fock algebra);
* ``memory`` -- repeated matvecs with a dense n=495 complex matrix (the
  d=2, K=8 sphere field streams matrices of that size).

An op declares the share of its time that is memory-bound
(``memory_share``; 0 for most ops).  Its wall time is divided by the
slowdown ``(1 - w) * core / NOMINAL_S["core"] + w * memory /
NOMINAL_S["memory"]``, where each kernel time is the median of the
samples taken just before and just after the op.  The scaled figure is in
seconds at the speed where the kernels take ``NOMINAL_S`` (their times on
a quiet 2-core host); the raw wall times stay in the run's record.

The kernels use numpy and the interpreter only, never the package under
test, so a change to the program cannot change the reference.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = {"core": 0.013, "memory": 0.010}
SAMPLES_PER_SIDE = 2
SAMPLE_EVERY_S = 0.25


class ReferenceClock:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.small = rng.normal(size=(45, 45)) + 1j * rng.normal(size=(45, 45))
        self.small /= np.linalg.norm(self.small, 2)
        self.large = rng.normal(size=(495, 495)) + 1j * rng.normal(size=(495, 495))
        self.large /= np.linalg.norm(self.large, 2)
        self.grid = rng.normal(size=(128, 128)) + 0j
        self.keys = [(i % 7, i % 5, i % 3) for i in range(600)]
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: dict[str, list[float]] = {"core": [], "memory": []}

    def _core(self) -> float:
        y = np.ones(45, dtype=complex)
        for _ in range(1200):
            y = self.small @ y
            y = y / np.linalg.norm(y)
        g = self.grid
        for _ in range(8):
            g = np.fft.ifft2(np.fft.fft2(g) * 0.5)
        acc: dict = {}
        for rep in range(12):
            for j, key in enumerate(self.keys):
                acc[key] = acc.get(key, 0j) + complex(j, rep)
        return abs(y[0]) + abs(g[0, 0]) + abs(sum(acc.values()))

    def _memory(self) -> float:
        z = np.ones(495, dtype=complex)
        for _ in range(144):
            z = self.large @ z
            z = z / np.linalg.norm(z)
        return abs(z[0])

    def sample(self) -> None:
        self.starts.append(time.perf_counter())
        for kind, kernel in (("core", self._core), ("memory", self._memory)):
            t0 = time.perf_counter()
            kernel()
            self.durations[kind].append(time.perf_counter() - t0)
        self.ends.append(time.perf_counter())

    def bracket(self) -> None:
        """Samples enough for ``local`` on one side of an interval."""
        for _ in range(SAMPLES_PER_SIDE):
            self.sample()

    def sample_if_due(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def local(self, t0: float, t1: float) -> dict[str, float]:
        """Median time of each kernel over the samples that end by ``t0``
        and those that start from ``t1`` on, ``SAMPLES_PER_SIDE`` of each."""
        before = bisect.bisect_right(self.ends, t0)
        after = bisect.bisect_left(self.starts, t1)
        if before == 0 and after == len(self.starts):
            raise ValueError("no reference sample around the interval")
        lo, hi = max(0, before - SAMPLES_PER_SIDE), after + SAMPLES_PER_SIDE
        return {
            kind: statistics.median(d[lo:before] + d[after:hi])
            for kind, d in self.durations.items()
        }

    def scaled(self, t0: float, t1: float, memory_share: float = 0.0) -> float:
        """Wall time ``t1 - t0`` in seconds at the nominal machine speed."""
        near = self.local(t0, t1)
        slowdown = ((1.0 - memory_share) * near["core"] / NOMINAL_S["core"]
                    + memory_share * near["memory"] / NOMINAL_S["memory"])
        return (t1 - t0) / slowdown
