"""Host speed, measured with a fixed standard-library kernel.

On a shared host the same pass can take up to twice as long, depending on
what other tenants run on the same cores, and the process's CPU time grows
with it: the benchmark's process is not preempted, it runs slower.  So the
benchmark times a fixed reference chunk before and after every op, and every
SAMPLE_EVERY_S while one runs, and reports times scaled to a nominal host
speed: an op that took ``t`` seconds while the chunk took ``r`` seconds on
average is reported as ``t * NOMINAL_CHUNK_S / r``.

The chunk uses only the standard library, so no change to spinlrl moves it.
Inside an op it runs from a SIGALRM handler, and the handler's time is taken
off the op's.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# about one chunk's time on a quiet 2-vCPU Xeon VM (2.1 GHz, Python 3.11.7;
# its fastest was 0.93 ms): scaled times read as seconds on that VM when
# nothing else runs on its host
NOMINAL_CHUNK_S = 0.001
SAMPLE_EVERY_S = 0.05
BOUNDARY_CHUNKS = 2

# The chunk multiplies two sparse polynomials with rational coefficients, as
# spinlrl's coefficient and operator layers do, then runs a small-integer
# loop.  Over 1.6 s windows on a loaded host, a verify check's time and a
# reduce request's time both moved with this chunk's time (log-log slope
# about 0.95, correlation 0.96); the polynomial product alone gave a slope of
# 0.85 and the integer loop alone 1.2.
_LEFT = {(i % 5, i % 7, i % 3): Fraction(i + 1, i % 4 + 1) for i in range(15)}
_RIGHT = {(i % 4, i % 6, i % 5): Fraction(2 * i + 3, i % 5 + 2) for i in range(15)}


def _chunk() -> float:
    start = time.perf_counter()
    product = {}
    for (a, b, c), x in _LEFT.items():
        for (d, e, f), y in _RIGHT.items():
            key = (a + d, b + e, c + f)
            product[key] = product.get(key, 0) + x * y
    total = 0
    for i in range(5000):
        total += i * i % 7
    return time.perf_counter() - start


def chunk_time(chunks: int = BOUNDARY_CHUNKS) -> float:
    """Mean time of one reference chunk now.  The cyclic GC is off meanwhile,
    so no collection the program owes lands inside a chunk."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return sum(_chunk() for _ in range(chunks)) / chunks
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, chunk_times: list) -> float:
    """``seconds`` at nominal host speed, given the chunk times taken around
    and during it."""
    return seconds * NOMINAL_CHUNK_S / statistics.fmean(chunk_times)


class OpSampler:
    """While active, times one chunk every SAMPLE_EVERY_S of wall time, from
    a SIGALRM handler in the main thread.  ``stolen`` is the handlers' time."""

    def __init__(self):
        self.chunks = []
        self.stolen = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.chunks.append(chunk_time(1))
        self.stolen += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
