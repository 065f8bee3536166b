"""Backup path maintenance: candidate enumeration, probing, ranking, reroute.

For every established rftr connection the source keeps a set of candidate
routes link-disjoint from the primary.  Each update interval it sends a
small batch of probes down every candidate; the far end answers PACK when
the route could currently carry a lightpath and NACK when it could not (no
admissible wavelength; a down hop offers none).  A candidate is its route's
memoised ``Hops``: a probe reads only their masks, through the topology's arc
table, and its answer lands one round trip, twice their delay, later.
``ConnectionProber`` owns the window rule: each candidate's round trip, worked
out once, slot and next send (none at or after the connection's end), an
answer's tally (fixed at send, in the window it lands in before the close),
the close, and the probes and answers the connection's end counts.  A window's
NACKed fraction (1.0 without answers) is the route's blocking estimate; a close
sets its tallies aside, and a failure reading the ranking sorts the candidates'
own ``Hops`` ascending by the last closed window's.  That ranking is every
connection's backups, and a failure sets up on the best first, resolving
nothing; a baseline connection's prober opens no window, so it keeps the
candidate order.  Sub-optimal candidates keep being probed, so the ranking
tracks load changes.

The candidates are Yen's k shortest hop routes avoiding the primary's links,
read resolved by ``routing.resolved_routes`` from the graph's table in ``topology``;
``k_shortest_hop_paths`` is imported only for ``perfbench/layers.py`` to wrap.
``reroute`` hands the fresh setup it falls back on one ignored argument,
``BACKUP``, only because ``perfbench/layers.py`` wraps it as a one-argument call.
"""

from __future__ import annotations

import math
from functools import cache

from .routing import (NO_CONVERSION, Lightpath, establish_lightpath, k_shortest_hop_paths,
                      resolved_routes)
from .topology import Hops, Topology

PACK = "pack"
NACK = "nack"
BACKUP = "backup"  # the one argument ``reroute`` passes its fallback


def candidate_paths(topology: Topology, src: int, dst: int, primary: Lightpath,
                    k: int) -> tuple[Hops, ...]:
    """Up to k shortest loop-free routes sharing no link with the primary, resolved."""
    return resolved_routes(topology, src, dst, k, primary.hops.link_ids)


def probe_count(probes_per_interval: int, adaptive_scale: float, aggregate_rate: float) -> int:
    """Probes per candidate per window, fixed for a run.

    The count shrinks as the offered arrival rate grows, so busy networks
    spend less capacity on probing; ``adaptive_scale = 0`` turns the
    adaptation off.
    """
    scaled = probes_per_interval / (1.0 + adaptive_scale * aggregate_rate)
    return max(1, math.floor(scaled))


def probe_outcome(topology: Topology, hops: Hops, mode: str = NO_CONVERSION) -> str:
    """Admissibility of a candidate's resolved hops on ``topology`` at probe time; reads masks only.

    Without conversion one wavelength must be free on every hop (a nonzero
    AND of the masks); with full conversion every hop needs some free
    wavelength.  A down hop offers none, so it answers NACK.  ``mode`` is
    checked by the config.
    """
    arcs, common = topology.arcs, -1
    for arc in hops:
        link, lane = arcs[arc]
        if not (link.up and (free := link._free[lane])):
            return NACK
        common &= free
    return PACK if common or mode != NO_CONVERSION else NACK


@cache
def _slot_offsets(count: int, interval: float) -> tuple[float, ...]:
    """Each slot's send time after its window opens, ``count`` evenly spaced before the close."""
    return tuple((s + 1) * interval / (count + 1) for s in range(count))


class ConnectionProber:
    """Probe windows over one connection's candidate set, and their ranking.

    Every window sends ``count`` evenly spaced probes down each candidate, one
    per slot, before ``end``; the prober keeps each candidate's slot.  ``sent``
    tallies a probe's answer into the open window's PACK/NACK counts when it
    lands strictly before ``close_at``, and keeps its landing in ``landings``.
    A window closes at the first send after ``close_at`` or when a failure asks
    for the ranking, whichever comes first, fixing its tallies, so an answer
    landing at or after the close moves no ranking; ``ranking`` sorts the last
    closed window's, once.  Until the first close the ranking is candidate order.
    """

    def __init__(self, candidates: tuple[Hops, ...], count: int, interval: float, end: float):
        self.candidates = candidates
        self.count = count
        self.interval = interval
        self.end = end
        self._round_trips = [2.0 * hops.delay for hops in candidates]
        self._offsets = _slot_offsets(count, interval)
        n = len(candidates)  # each candidate's next slot, and the open window's tallies
        self._slots, self._acks, self._nacks = [0] * n, [0] * n, [0] * n
        self.landings: list[tuple[float, str]] = []  # (land, outcome) of every probe sent
        self._ranked: list[Hops] | tuple[Hops, ...] = candidates
        self._closed = None  # the last closed window's (PACKs, NACKs), until ranked
        self._opened_at, self.close_at = 0.0, math.inf  # the open window's span; none yet

    def open_windows(self, now: float) -> float | None:
        """Open a window at ``now``; returns its first send, every candidate's, if before end."""
        self._opened_at, self.close_at = now, now + self.interval
        t = now + self._offsets[0]
        return t if t < self.end else None

    def close_window(self) -> None:
        """Close the open window, its tallies kept unsorted, and open the next at its close."""
        self._closed, n = (self._acks, self._nacks), len(self.candidates)
        self._acks, self._nacks = [0] * n, [0] * n
        self.open_windows(self.close_at)

    def ranking(self, now: float) -> list[Hops] | tuple[Hops, ...]:
        """The candidates best first at ``now``: by the last window closed before ``now``."""
        if self.close_at < now:
            self.close_window()
        return self.close_and_rank() if self._closed else self._ranked

    def sent(self, path_index: int, outcome: str, now: float) -> float | None:
        """Record a probe sent at ``now``; returns the candidate's next send if before ``end``."""
        if self.close_at < now:
            self.close_window()
        land = now + self._round_trips[path_index]
        self.landings.append((land, outcome))
        if land < self.close_at:  # feedback's tally
            if outcome == PACK:
                self._acks[path_index] += 1
            else:
                self._nacks[path_index] += 1
        slot = self._slots[path_index] + 1
        if slot == self.count:  # the slot wraps into the next window
            slot, t = 0, self.close_at + self._offsets[0]
        else:
            t = self._opened_at + self._offsets[slot]
        self._slots[path_index] = slot
        return t if t < self.end else None

    def landed(self, end: float) -> tuple[int, int]:
        """(PACKs, NACKs) of the answers landing strictly before ``end``, the connection's end."""
        outcomes = [outcome for land, outcome in self.landings if land < end]
        return outcomes.count(PACK), outcomes.count(NACK)

    def feedback(self, path_index: int, outcome: str) -> None:
        tally = self._acks if outcome == PACK else self._nacks
        tally[path_index] += 1

    def estimates(self, tallies=None) -> list[float]:
        """NACKed fraction of resolved probes in (PACKs, NACKs), the open window's by default."""
        acks, nacks = tallies or (self._acks, self._nacks)
        return [nack / (ack + nack) if ack + nack else 1.0 for ack, nack in zip(acks, nacks)]

    def close_and_rank(self) -> list[Hops]:
        """Rank every candidate ascending by the last closed window's (estimate, hops, route),
        closing the open window first if no closed one waits."""
        if self._closed is None:
            self.close_window()
        estimates, self._closed = self.estimates(self._closed), None
        routes = [hops.route for hops in self.candidates]
        order = sorted(range(len(routes)), key=lambda j: (estimates[j], len(routes[j]), routes[j]))
        self._ranked = [self.candidates[j] for j in order]
        return self._ranked


def reroute(
    topology: Topology, backups: list[Hops], mode: str, conversion_time: float,
    fallback_establish=None,
) -> Lightpath | None:
    """Restore onto ``topology``'s first viable ranked backup, else recompute, else drop.

    A backup with no admissible wavelength, a down hop included, is skipped.
    ``fallback_establish(BACKUP)`` runs the owning router's fresh path setup
    when every ranked backup fails.  It is called with that one positional
    argument, which the engine's callback ignores, only because the traced
    benchmark pass wraps the callback as a one-argument function.  Returns
    the restoring lightpath, or None when the connection drops.
    """
    for hops in backups:
        lp = establish_lightpath(topology, hops, mode, conversion_time)
        if lp is not None:
            return lp
    if fallback_establish is not None:
        return fallback_establish(BACKUP).lightpath
    return None
