"""Backup path maintenance: candidate enumeration, probing, ranking, reroute.

For every established connection the source keeps a set of candidate routes
that are link-disjoint from the primary.  Each update interval it sends a
small batch of probes down every candidate; the far end answers PACK when
the route could currently carry a lightpath and NACK when it could not (no
admissible wavelength; a down hop offers none, since its ``free_mask`` reads
0).  A candidate is its route's memoised ``Hops``: a probe reads only their
masks, and its answer lands one round trip, twice their delay, later.
An answer is fixed when its probe is sent and is tallied then, in the
window it lands in before the close.  The NACKed fraction of those answers
is the route's blocking estimate, and at each close the candidates' own
``Hops`` are ranked ascending by it; they are the backups, and a failure
sets up on the best measured one first, resolving nothing.  Sub-optimal
candidates keep receiving probes, so the ranking tracks load changes.

The candidates are Yen's k shortest hop routes avoiding the primary's
links, from ``routing.k_shortest_hop_paths``, whose per-graph memo every run
on that graph shares; ``Topology.hops`` resolves each once per topology.
``reroute`` hands the fresh setup it falls back on one ignored argument,
``BACKUP``, only because ``perfbench/layers.py`` wraps it as a one-argument call.
"""

from __future__ import annotations

import math

from .routing import NO_CONVERSION, Lightpath, establish_lightpath, k_shortest_hop_paths
from .topology import Hops, Link, Topology

PACK = "pack"
NACK = "nack"
BACKUP = "backup"  # the one argument ``reroute`` passes its fallback


def candidate_paths(
    topology: Topology, src: int, dst: int, primary: Lightpath, k: int
) -> tuple[Hops, ...]:
    """Up to k shortest loop-free routes sharing no link with the primary, resolved."""
    routes = k_shortest_hop_paths(topology, src, dst, k, primary.hops.link_ids)
    return tuple(topology.hops(route) for route in routes)


def probe_count(probes_per_interval: int, adaptive_scale: float, aggregate_rate: float) -> int:
    """Probes per candidate per window, fixed for a run.

    The count shrinks as the offered arrival rate grows, so busy networks
    spend less capacity on probing; ``adaptive_scale = 0`` turns the
    adaptation off.
    """
    scaled = probes_per_interval / (1.0 + adaptive_scale * aggregate_rate)
    return max(1, math.floor(scaled))


def probe_outcome(hops: tuple[tuple[Link, int], ...], mode: str = NO_CONVERSION) -> str:
    """Admissibility of a candidate's resolved hops at probe time; reads masks only.

    Without conversion one wavelength must be free on every hop (a nonzero
    AND of the masks); with full conversion every hop needs some free
    wavelength.  A down hop's mask is 0, so it answers NACK.  ``mode`` is
    checked by the config.
    """
    common = -1
    for link, lane in hops:
        free = link.free_mask(lane)
        if not free:
            return NACK
        common &= free
    return PACK if common or mode != NO_CONVERSION else NACK


class ConnectionProber:
    """Probe windows over one connection's candidate set.

    Every window sends ``count`` evenly spaced probes down each candidate,
    one per slot.  ``sent`` tallies a probe's answer into the open window's
    PACK/NACK counts when it lands strictly before ``close_at``, and keeps
    every answer's landing time for ``landed``.  The owner closes a window
    once ``close_at`` has passed: a window's estimate is read once, when it
    closes, so an answer landing at or after the close moves no ranking.
    """

    def __init__(self, candidates: tuple[Hops, ...], count: int, interval: float):
        self.candidates = candidates
        self.count = count
        self.interval = interval
        n = len(candidates)
        self._acks = [0] * n
        self._nacks = [0] * n
        self._landing: list[tuple[float, str]] = []  # (land, outcome) of every probe sent
        self._opened_at, self.close_at = 0.0, math.inf  # the open window's span; none yet

    def open_windows(self, now: float) -> list[tuple[float, int, int]]:
        """Open a window; returns each candidate's first send, ``(time, path_index, slot)``."""
        self._opened_at, self.close_at = now, now + self.interval
        start = now + self.interval / (self.count + 1)
        return [(start, j, 0) for j in range(len(self.candidates))]

    def sent(self, path_index: int, slot: int, outcome: str, now: float) -> float:
        """Record a probe sent at ``now``; returns the next slot's send, even in the next window."""
        land = now + 2.0 * self.candidates[path_index].delay
        self._landing.append((land, outcome))
        if land < self.close_at:
            self.feedback(path_index, outcome)
        slot = (slot + 1) % self.count
        opened_at = self.close_at if slot == 0 else self._opened_at
        return opened_at + (slot + 1) * self.interval / (self.count + 1)

    def landed(self, now: float) -> list[str]:
        """Outcomes of the answers landing strictly before ``now``, the connection's end."""
        return [outcome for land, outcome in self._landing if land < now]

    def feedback(self, path_index: int, outcome: str) -> None:
        tally = self._acks if outcome == PACK else self._nacks
        tally[path_index] += 1

    def estimates(self) -> list[float]:
        """Open window's NACKed fraction of resolved probes; no evidence counts as 1.0."""
        return [
            nack / (ack + nack) if ack + nack else 1.0
            for ack, nack in zip(self._acks, self._nacks)
        ]

    def close_and_rank(self) -> list[Hops]:
        """Close the open window; every candidate ascending by (estimate, hops, route)."""
        estimates = self.estimates()
        routes = [hops.route for hops in self.candidates]
        order = sorted(range(len(routes)), key=lambda j: (estimates[j], len(routes[j]), routes[j]))
        self._acks = [0] * len(routes)
        self._nacks = [0] * len(routes)
        return [self.candidates[j] for j in order]


def reroute(
    backups: list[Hops], mode: str, conversion_time: float, fallback_establish=None
) -> Lightpath | None:
    """Restore onto the first viable ranked backup, else recompute, else drop.

    A backup with no admissible wavelength, a down hop included, is skipped.
    ``fallback_establish(BACKUP)`` runs the owning router's fresh path setup
    when every ranked backup fails.  It is called with that one positional
    argument, which the engine's callback ignores, only because the traced
    benchmark pass wraps the callback as a one-argument function.  Returns
    the restoring lightpath, or None when the connection drops.
    """
    for hops in backups:
        lp = establish_lightpath(hops, mode, conversion_time)
        if lp is not None:
            return lp
    if fallback_establish is not None:
        return fallback_establish(BACKUP).lightpath
    return None
