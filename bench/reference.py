"""Measures how fast the host runs while a timed process runs.

The benchmark runs on a few cores of a shared host whose speed changes by
up to a factor of two, for seconds to minutes at a time (other tenants'
load on the same cores and caches). The guest cannot see this: a process's
own CPU time grows with it. So a ``Probe`` thread in the harness, on the
same CPU as the timed child, wakes every ``INTERVAL_S`` and times one
fixed ``chunk()`` of work by its own thread CPU time, which excludes the
slices the child runs in between. The chunk mixes the work coreglab does:
a few small MLP batches through NumPy (products, softmax, gradients) and
interpreter work on small objects (method calls, dicts, strings, a sort).
On the 2-vCPU Xeon VM it was tuned on, its time grew with the child's
CPU time one to one (within a few percent per process, on all three
workloads, over stretches where the child's CPU time varied by up to
1.9x). It never imports coreglab, so no change to the package can move it. ``speed(start, end)``
is ``REFERENCE_S`` over the mean chunk time in that interval: 1.0 on a
host as fast as the one the benchmark was tuned on, less on a slower one.
"""

import statistics
import threading
import time

import numpy as np

# CPU seconds one chunk takes on the host the benchmark was tuned on
# (2 vCPUs of an Intel Xeon VM, Python 3.11, NumPy 2.4, OpenBLAS on one
# thread) in its faster state.
REFERENCE_S = 0.001
INTERVAL_S = 0.025
BATCHES = 8
OBJECTS = 800

_rng = np.random.default_rng(7)
_X = _rng.standard_normal((2048, 50))
_W1 = _rng.standard_normal((50, 32)) * 0.1
_W2 = _rng.standard_normal((32, 4)) * 0.1


class _Item:
    def __init__(self, value: int):
        self.value = value

    def plus(self, other: int) -> int:
        return self.value + other


def chunk(offset: int) -> list:
    """One fixed unit of work; ``offset`` walks the batches through _X."""
    for b in range(BATCHES):
        lo = ((offset + b) * 64) % 2048
        xb = _X[lo:lo + 64]
        h = np.maximum(xb @ _W1, 0.0)
        z = h @ _W2
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        grad = xb.T @ ((p @ _W2.T) * (h > 0))
        grad *= grad
    table = {}
    for i in range(OBJECTS):
        table[i % 97] = _Item(i).plus(offset)
        key = str(i)
        table[key] = len(key)
    return sorted(table, key=str)[:3]


class Probe:
    """Times ``chunk()`` every INTERVAL_S on a thread until ``stop()``."""

    def __init__(self):
        self.samples = []  # (perf_counter at start, thread CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        offset = 0
        while not self._stop.is_set():
            at, cpu = time.perf_counter(), time.thread_time()
            chunk(offset)
            self.samples.append((at, time.thread_time() - cpu))
            offset += BATCHES
            self._stop.wait(INTERVAL_S)

    def start(self) -> "Probe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean chunk time of the chunks started in
        [start, end]; the latest earlier chunk if none did."""
        inside = [cpu for at, cpu in self.samples if start <= at <= end]
        if not inside:
            inside = [cpu for at, cpu in self.samples if at <= end][-1:]
        return REFERENCE_S / statistics.fmean(inside)
