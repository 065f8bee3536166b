"""Backup path maintenance: candidate enumeration, probing, ranking, reroute.

For every established connection the source keeps a set of candidate routes
that are link-disjoint from the primary.  Each update interval it sends a
small batch of probes down every candidate; the far end answers PACK when
the route could currently carry a lightpath and NACK when it could not (no
admissible wavelength; a down hop offers none, since its ``free_mask`` reads
0).  Each candidate's hops are resolved once, when its candidate set is
built, so a probe only reads their masks.
An answer is fixed when its probe is sent and is tallied then, in the
window it lands in before the close.  The NACKed fraction of those answers
is the route's blocking estimate, and at each close the candidates are
ranked ascending by it, so a failure reroutes onto the best measured route
first.  Sub-optimal candidates keep receiving probes, so the ranking
tracks load changes.

Candidate routes are hop-count routes that read no link state, so they are
a function of the graph alone: they live in ``routing``'s per-graph memo of
hop-count routes, beside the baseline router's, for the life of the process
and are shared by every run on that graph.  Their hops and round trips
belong to one topology's links and are cached per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .routing import (
    BACKUP,
    NO_CONVERSION,
    Lightpath,
    establish_lightpath,
    hop_route_memo,
    min_hop_path,
)
from .topology import Hops, Link, Topology

PACK = "pack"
NACK = "nack"


@dataclass(frozen=True)
class CandidateSet:
    """Candidate routes with each route's resolved hops and probe round trip, in route order.

    Shared by every connection with the same endpoints and primary links, so
    it is never modified after ``candidate_paths`` builds it.
    """

    paths: list[tuple[int, ...]]
    hops: tuple[Hops, ...]  # topology.hops(paths[j])
    rtts: tuple[float, ...]


def k_shortest_hop_paths(
    topology: Topology,
    src: int,
    dst: int,
    k: int,
    banned_links: frozenset[int] = frozenset(),
) -> list[tuple[int, ...]]:
    """Yen's k shortest hop paths, memoised per graph; returns a fresh list."""
    memo = hop_route_memo(topology)
    banned = frozenset(banned_links)
    key = (src, dst, k, banned)
    routes = memo.get(key)
    if routes is None:
        routes = memo[key] = tuple(_yen(topology, src, dst, k, banned))
    return list(routes)


def _yen(
    topology: Topology, src: int, dst: int, k: int, banned_links: frozenset[int]
) -> list[tuple[int, ...]]:
    """Yen's algorithm ordered by (hop count, route), loop-free throughout."""
    first = min_hop_path(topology, src, dst, banned_links)
    if first is None or k < 1:
        return []
    accepted = [first]
    candidates: dict[tuple[int, ...], None] = {}
    while len(accepted) < k:
        prev = accepted[-1]
        for i in range(len(prev) - 1):
            root = prev[: i + 1]
            spur = prev[i]
            spur_banned = set(banned_links)
            for path in accepted:
                if path[: i + 1] == root and len(path) > i + 1:
                    link = topology.link_between(path[i], path[i + 1])
                    spur_banned.add(link.id)
            spur_path = min_hop_path(topology, spur, dst, spur_banned, frozenset(root[:-1]))
            if spur_path is None:
                continue
            total = root[:-1] + spur_path
            if total not in candidates and total not in accepted:
                candidates[total] = None
        if not candidates:
            break
        best = min(candidates, key=lambda p: (len(p), p))
        del candidates[best]
        accepted.append(best)
    return accepted


def candidate_paths(
    topology: Topology, src: int, dst: int, primary: Lightpath, k: int
) -> CandidateSet:
    """Up to k shortest loop-free routes sharing no link with the primary."""
    paths = k_shortest_hop_paths(topology, src, dst, k, primary.link_ids)
    hops = tuple(topology.hops(path) for path in paths)
    rtts = tuple(2.0 * route.delay for route in hops)
    return CandidateSet(paths=paths, hops=hops, rtts=rtts)


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

    def __init__(self, candidates: CandidateSet, count: int, interval: float, m: int):
        self.candidates = candidates
        self.count = count
        self.interval = interval
        self.m = m
        n = len(candidates.paths)
        self._acks = [0] * n
        self._nacks = [0] * n
        self._landing: list[tuple[float, str]] = []  # (land, outcome) of every probe sent
        self._opened_at, self.close_at = 0.0, math.inf  # the open window's span; none yet

    def open_windows(self, now: float) -> list[tuple[float, int, int]]:
        """Open a window; returns each candidate's first send, ``(time, path_index, slot)``."""
        self._opened_at, self.close_at = now, now + self.interval
        start = now + self.interval / (self.count + 1)
        return [(start, j, 0) for j in range(len(self.candidates.paths))]

    def sent(self, path_index: int, slot: int, outcome: str, now: float) -> float:
        """Record a probe sent at ``now``; returns the next slot's send, even in the next window."""
        land = now + self.candidates.rtts[path_index]
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

    def close_and_rank(self) -> list[tuple[int, ...]]:
        """Close the open window; candidates ascending by (estimate, hops, route), best m."""
        estimates = self.estimates()
        paths = self.candidates.paths
        order = sorted(range(len(paths)), key=lambda j: (estimates[j], len(paths[j]), paths[j]))
        self._acks = [0] * len(paths)
        self._nacks = [0] * len(paths)
        return [paths[j] for j in order[: self.m]]


def reroute(
    topology: Topology,
    backups: list[tuple[int, ...]],
    mode: str,
    conversion_time: float,
    fallback_establish=None,
) -> Lightpath | None:
    """Restore onto the first viable ranked backup, else recompute, else drop.

    A backup with no admissible wavelength, a down hop included, is skipped.
    ``fallback_establish(role)`` runs the owning router's fresh path setup
    when every ranked backup fails.  Returns the restoring lightpath, or
    None when the connection drops.
    """
    for route in backups:
        lp = establish_lightpath(topology, route, mode, conversion_time, role=BACKUP)
        if lp is not None:
            return lp
    if fallback_establish is not None:
        return fallback_establish(BACKUP).lightpath
    return None
