"""Host speed, from a fixed pure-Python reference loop that shares no code with wdmsim.

A shared host's speed drifts by tens of percent within minutes, and the
drift moves the simulator and this loop alike.  The benchmark runs a block
of the loop after every timed piece of work and scales that work's host
seconds to seconds of a reference host, so the drift cancels while any
change to the simulator's own speed shows in full.  The loop mixes what the
simulator's hot paths do: heap pushes and pops, dict and set look-ups,
attribute reads and float arithmetic.

    python3 perfbench/calibrate.py    # this host's rate, to compare with REFERENCE_RATE
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

# rounds per second of the loop on the reference host (2-vCPU VM, Python 3.11.7)
REFERENCE_RATE = 3000.0
MIN_BLOCK_S = 0.05
BLOCK_SHARE = 1 / 3  # of the work just timed


class _Edge:
    __slots__ = ("to", "weight")

    def __init__(self, to: int, weight: float):
        self.to = to
        self.weight = weight


def _graph(nodes: int = 200, degree: int = 4) -> list[list[_Edge]]:
    rng = random.Random(1)
    return [[_Edge(rng.randrange(nodes), rng.random()) for _ in range(degree)] for _ in range(nodes)]


_GRAPH = _graph()


def _round(source: int) -> float:
    """One shortest-path tree over the fixed graph."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for edge in _GRAPH[u]:
            nd = d + edge.weight
            if nd < dist.get(edge.to, float("inf")):
                dist[edge.to] = nd
                heapq.heappush(heap, (nd, edge.to))
    return sum(dist.values())


def _rounds(seconds: float) -> int:
    rounds, start = 0, time.perf_counter()
    while time.perf_counter() - start < seconds:
        _round(rounds % len(_GRAPH))
        rounds += 1
    return rounds


def rate(seconds: float) -> float:
    """Rounds of the loop per host second, run for ``seconds``."""
    start = time.perf_counter()
    return _rounds(seconds) / (time.perf_counter() - start)


class Clock:
    """Turns host seconds of work into reference-host seconds.

    Call ``scale`` right after each piece of work: it runs a block of the
    loop lasting ``BLOCK_SHARE`` of that work and uses the mean rate of the
    blocks just before and just after it.  The loop runs in as many threads
    as the work does, so that it spreads over the CPUs as the work does.
    """

    def __init__(self, threads: int = 1):
        self.threads = threads
        self.pool = ThreadPoolExecutor(threads) if threads > 1 else None
        self.last = self._rate(MIN_BLOCK_S)

    def __enter__(self) -> Clock:
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.shutdown()

    def scale(self, host_seconds: float) -> float:
        after = self._rate(max(MIN_BLOCK_S, BLOCK_SHARE * host_seconds))
        host_rate, self.last = (self.last + after) / 2, after
        return reference_seconds(host_seconds, host_rate)

    def _rate(self, seconds: float) -> float:
        if self.pool is None:
            return rate(seconds)
        start = time.perf_counter()
        rounds = sum(self.pool.map(_rounds, [seconds] * self.threads))
        return rounds / (time.perf_counter() - start)


def reference_seconds(host_seconds: float, host_rate: float) -> float:
    """Seconds on the reference host for ``host_seconds`` of work on a host that
    runs the loop at ``host_rate``."""
    return host_seconds * host_rate / REFERENCE_RATE


if __name__ == "__main__":
    print(statistics.median(rate(1.0) for _ in range(5)))
