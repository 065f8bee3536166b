"""Backup path maintenance: candidate enumeration, probing, ranking, reroute.

For every established connection the source keeps a set of candidate routes
that are link-disjoint from the primary.  Each update interval it sends a
small batch of sequence-numbered probes down every candidate; the far end
answers PACK when the route could currently carry a lightpath and NACK when
it could not (a hop down, or no admissible wavelength).  The NACKed fraction
of resolved probes is the route's blocking estimate, and candidates are kept
sorted ascending by that estimate so that a failure reroutes onto the best
measured route first.  Sub-optimal candidates keep receiving probes, so the
ranking tracks load changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DuplicateFeedbackError, UnknownSequenceError
from .routing import (
    BACKUP,
    NO_CONVERSION,
    Lightpath,
    assign_wavelength,
    establish_lightpath,
    least_cost_path,
)
from .topology import Topology

PACK = "pack"
NACK = "nack"


@dataclass(frozen=True)
class CandidateSet:
    """Candidate routes with each route's probe round-trip time, in route order.

    Shared by every connection with the same endpoints and primary links, so
    it is never modified after ``candidate_paths`` builds it.
    """

    src: int
    dst: int
    paths: list[tuple[int, ...]]
    k: int
    rtts: tuple[float, ...]


def _min_hop_path(topology, src, dst, banned_links, banned_nodes):
    found = least_cost_path(
        topology,
        src,
        dst,
        lambda link, u, v: 1.0,  # pure hop count; up/down is probed, not assumed
        banned_links=frozenset(banned_links),
        banned_nodes=frozenset(banned_nodes),
    )
    return None if found is None else tuple(found[0])


def k_shortest_hop_paths(
    topology: Topology,
    src: int,
    dst: int,
    k: int,
    banned_links: frozenset[int] = frozenset(),
) -> list[tuple[int, ...]]:
    """Yen's algorithm ordered by (hop count, route), loop-free throughout."""
    first = _min_hop_path(topology, src, dst, banned_links, frozenset())
    if first is None:
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
            spur_path = _min_hop_path(
                topology, spur, dst, spur_banned, frozenset(root[:-1])
            )
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
    banned = frozenset(primary.link_ids)
    paths = k_shortest_hop_paths(topology, src, dst, k, banned)
    rtts = tuple(2.0 * sum(link.delay for link, _ in topology.hops(path)) for path in paths)
    return CandidateSet(src=src, dst=dst, paths=paths, k=k, rtts=rtts)


@dataclass
class ProbePolicy:
    """How many probes each candidate gets per update interval.

    The effective count shrinks as the offered arrival rate grows, so busy
    networks spend less capacity on probing; ``adaptive_scale = 0`` turns
    the adaptation off.  Built by ``SimConfig.probe_policy``, which has
    validated the three values.
    """

    probes_per_interval: int = 10
    update_interval: float = 0.5
    adaptive_scale: float = 0.0

    def effective_count(self, arrival_rate: float) -> int:
        scaled = self.probes_per_interval / (1.0 + self.adaptive_scale * arrival_rate)
        return max(1, math.floor(scaled))


@dataclass
class ProbeWindow:
    """Per-candidate tally of one probing interval."""

    path_index: int
    window_start: float
    next_seq: int = 0
    sent: int = 0
    acked: int = 0
    nacked: int = 0
    closed: bool = False
    pending: set[int] = field(default_factory=set)
    resolved: set[int] = field(default_factory=set)

    @property
    def resolved_count(self) -> int:
        return self.acked + self.nacked


def emit_probes(
    window: ProbeWindow, policy: ProbePolicy, arrival_rate: float, now: float
) -> list[tuple[float, int]]:
    """Schedule this window's probes, spread uniformly inside the interval.

    Returns (send_time, sequence_number) pairs and advances the window's
    counters; sequence numbers are unique and increasing.
    """
    if window.closed:
        raise ValueError("window already closed")
    count = policy.effective_count(arrival_rate)
    events = []
    for i in range(count):
        t = now + (i + 1) * policy.update_interval / (count + 1)
        seq = window.next_seq
        window.next_seq += 1
        window.pending.add(seq)
        window.sent += 1
        events.append((t, seq))
    return events


def record_feedback(window: ProbeWindow, seq: int, outcome: str) -> None:
    if seq in window.resolved:
        raise DuplicateFeedbackError(f"feedback for seq {seq} already recorded")
    if seq not in window.pending:
        raise UnknownSequenceError(f"seq {seq} was not emitted in this window")
    window.pending.discard(seq)
    window.resolved.add(seq)
    if outcome == PACK:
        window.acked += 1
    elif outcome == NACK:
        window.nacked += 1
    else:
        raise ValueError(f"outcome must be {PACK!r} or {NACK!r}, got {outcome!r}")


@dataclass(frozen=True)
class BlockingEstimate:
    path_index: int
    bp: float
    sample_size: int


def blocking_probability(window: ProbeWindow) -> BlockingEstimate:
    """NACKed fraction of resolved probes; no evidence counts as fully blocked."""
    resolved = window.resolved_count
    if resolved == 0:
        return BlockingEstimate(window.path_index, 1.0, 0)
    return BlockingEstimate(window.path_index, window.nacked / resolved, resolved)


def probe_outcome(topology: Topology, route, mode: str = NO_CONVERSION) -> str:
    """Admissibility test at probe time; never touches the occupancy map."""
    try:
        hops = topology.hops(route)
    except Exception:
        return NACK
    if any(not link.up for link, _ in hops):
        return NACK
    if assign_wavelength(topology, route, mode) is None:
        return NACK
    return PACK


def rank_and_select(
    estimates: list[BlockingEstimate], candidates: CandidateSet, m: int
) -> list[tuple[int, ...]]:
    """Candidates sorted ascending by estimate; ties by hops then route."""
    if len(estimates) != len(candidates.paths):
        raise ValueError("one estimate per candidate required")
    by_index = {e.path_index: e for e in estimates}
    order = sorted(
        range(len(candidates.paths)),
        key=lambda j: (by_index[j].bp, len(candidates.paths[j]), candidates.paths[j]),
    )
    return [candidates.paths[j] for j in order[:m]]


class ConnectionProber:
    """Window lifecycle for one connection's candidate set.

    Keeps one live window per candidate and retains just-closed windows
    until their in-flight feedback lands, so PACK/NACK arriving after a
    window rollover still finds its sequence number.  ``backups`` always
    holds the most recent completed ranking; before the first window closes
    it falls back to candidate order, which equals the ranking under
    all-sentinel estimates.
    """

    def __init__(self, candidates: CandidateSet, policy: ProbePolicy, m: int):
        self.candidates = candidates
        self.policy = policy
        self.m = m
        self._windows: list[list[ProbeWindow]] = [[] for _ in candidates.paths]
        self.backups: list[tuple[int, ...]] = list(candidates.paths[:m])

    def open_windows(self, now: float, arrival_rate: float) -> list[tuple[float, int, int]]:
        """Open a fresh window per candidate; returns (time, path_index, seq) sends."""
        sends = []
        for j, windows in enumerate(self._windows):
            next_seq = windows[-1].next_seq if windows else 0
            window = ProbeWindow(path_index=j, window_start=now, next_seq=next_seq)
            windows.append(window)
            for t, seq in emit_probes(window, self.policy, arrival_rate, now):
                sends.append((t, j, seq))
        return sends

    def feedback(self, path_index: int, seq: int, outcome: str) -> None:
        windows = self._windows[path_index]
        for window in reversed(windows):
            if seq in window.pending:
                record_feedback(window, seq, outcome)
                self._prune(path_index)
                return
            if seq in window.resolved:
                raise DuplicateFeedbackError(f"feedback for seq {seq} already recorded")
        raise UnknownSequenceError(f"seq {seq} unknown on path {path_index}")

    def close_and_rank(self) -> list[tuple[int, ...]]:
        """Close every live window, re-rank, and return the new backup list."""
        estimates = []
        for j, windows in enumerate(self._windows):
            if windows and not windows[-1].closed:
                windows[-1].closed = True
                estimates.append(blocking_probability(windows[-1]))
            else:
                estimates.append(BlockingEstimate(j, 1.0, 0))
            self._prune(j)
        self.backups = rank_and_select(estimates, self.candidates, self.m)
        return self.backups

    def _prune(self, path_index: int) -> None:
        windows = self._windows[path_index]
        windows[:] = [w for w in windows if not (w.closed and not w.pending)] or windows[-1:]


def reroute(
    topology: Topology,
    connection,
    backups: list[tuple[int, ...]],
    mode: str,
    conversion_time: float,
    fallback_establish=None,
) -> Lightpath | None:
    """Restore onto the first viable ranked backup, else recompute, else drop.

    ``fallback_establish(role)`` runs the owning router's fresh path setup
    when every ranked backup fails its liveness or wavelength check.
    Returns the restoring lightpath, or None when the connection drops.
    """
    for route in backups:
        hops = topology.hops(route)
        if any(not link.up for link, _ in hops):
            continue
        established = establish_lightpath(
            topology, list(route), mode, conversion_time, role=BACKUP
        )
        if established is not None:
            return established[0]
    if fallback_establish is not None:
        result = fallback_establish(BACKUP)
        if not result.blocked:
            return result.lightpath
    return None
