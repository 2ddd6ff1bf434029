"""A fixed reference computation, timed between the workload's own steps.

Other tenants of a shared host slow a whole run, by up to half, for
stretches of tens of seconds, so no statistic over one run's task times
takes that out. The reference kernel does the kinds of work the workloads
do, on fixed data and without calling the library: gathers, scatter-adds
and elementwise updates over arrays of a few hundred KiB with fresh
temporaries, an interpreted loop like a random walk's, and first touches
of freshly mapped pages (the page faults that the library's temporaries
cause, which slow the most when the host is busy). So its time tracks how
fast the host runs at that moment. A task's time, each stretch of it
divided by the reference time measured around that stretch, is the task's
cost in host-independent units (``benchstats.reference_units``): a change
to the library moves the task's time and leaves the reference time alone.
"""
from __future__ import annotations

import math
import mmap
import time

import numpy as np

ROWS, COLS, GATHER, STEPS, WALK, FAULT_PAGES = 1500, 50, 384, 10, 3000, 1536
INTERVAL = 0.5  # seconds between samples


class Reference:
    """Runs the kernel at most every ``INTERVAL`` seconds from inside a task.

    It hooks the corruption draw that ``train`` makes once per batch and the
    transition lookup a random walk makes once per step, the finest public
    steps of the workloads. ``now`` is the run's clock with the kernel's own
    time taken out, so the tasks and epochs timed with it do not include it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((ROWS, COLS))
        self._y = rng.standard_normal((ROWS, COLS))
        self._rows = rng.integers(0, ROWS, GATHER)
        self.samples: list[float] = []  # kernel seconds
        self.stamps: list[float] = []  # ``now`` when each sample was taken
        self.spent = 0.0
        self._last = -math.inf
        self._kernel()  # one-off costs of the first call stay out of the samples

    def _kernel(self) -> None:
        x, y, rows = self._x, self._y, self._rows
        for _ in range(STEPS):
            g = np.zeros_like(x)
            np.add.at(g, rows, x[rows] * y[rows])
            g /= np.sqrt(g * g) + 1e-8
        node, seen = 0, {}
        for step in range(WALK):
            node = int(rows[(node * 31 + step) % GATHER])
            seen[node] = seen.get(node, 0) + 1
        with mmap.mmap(-1, FAULT_PAGES * mmap.PAGESIZE) as fresh:
            for page in range(0, len(fresh), mmap.PAGESIZE):
                fresh[page] = 1

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self.stamps.append(self.now())
        self._last = end

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def install(self, patches) -> None:
        patches.wrap("qakge.training", "sample_corruptions", self._wrap_step)
        patches.wrap("qakge.node2vec", "transition_probs", self._wrap_step)

    def _wrap_step(self, original):
        def step(*args, **kwargs):
            if time.perf_counter() - self._last >= INTERVAL:
                self.sample()
            return original(*args, **kwargs)

        return step
