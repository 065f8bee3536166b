"""Primary lightpath computation: threshold link costs, Dijkstra, wavelength fit.

The cost of traversing a link depends on its load index LI (fraction of free
channels in the travel lane):

    cost = 1 - LI    if LI > LT
    cost = 1 + LI    if 0 < LI <= LT
    cost = infinity  if LI = 0

where LT is a configurable load threshold.  The piecewise form is kept
branch-for-branch as given, including the jump at LI = LT, and worked out per
lane from its free count and its own link's channel total.  A down link offers
no free wavelength, so like a saturated lane it is unusable, and a demand
whose every route crosses one is blocked.
``least_cost_path``, Dijkstra, prices each arc ``Topology.neighbors`` lists
inline from its lane's mask.  Every router sets its lightpath up through
``establish_lightpath`` on the ``Hops`` it resolved, once, where it found it.

Hop-count routes read no link state, so they are a function of the graph
alone: ``min_hop_path`` is a BFS.  Yen's k shortest hop routes (Yen, 1971) are
kept resolved, by (src, dst, k, banned links), in ``topology``'s one table for
the graph and link delays, which every topology built on them reads through its
own arc table; ``resolved_routes`` fills it.  They serve every connection's
candidates, which rftr probes and a baseline connection looks up at its first
failure, and the baseline's primary: Yen's first route, with the down links it
was found to cross banned.  Every endpoint a search is asked about is a
distinct node of the topology: the engine refuses any other before its first event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

from .topology import Hops, Topology

NO_CONVERSION = "none"
FULL_CONVERSION = "full"
CONVERSION_MODES = (NO_CONVERSION, FULL_CONVERSION)


def link_cost(load_index: float, lt: float) -> float:
    if load_index > lt:
        return 1.0 - load_index
    if load_index > 0.0:
        return 1.0 + load_index
    return math.inf


def least_cost_path(topology: Topology, src: int, dst: int,
                    lt: float) -> tuple[tuple[int, ...], float] | None:
    """Dijkstra over each arc's ``link_cost`` at LT ``lt``, priced inline from its lane's mask.

    A lane with no free wavelength, a down link's too, is skipped.  Ties on
    total cost break by fewer hops, then by lexicographically smallest node
    sequence.  Returns (route, cost) or None when no finite-cost route exists.
    """
    # priority = (cost, hops, route); route extension preserves the order
    # because compared routes are loop-free and never prefixes of each other
    heap: list[tuple[float, int, tuple[int, ...]]] = [(0.0, 0, (src,))]
    best: dict[int, tuple[float, int, tuple[int, ...]]] = {src: (0.0, 0, (src,))}
    done: set[int] = set()
    while heap:
        cost, hops, route = heappop(heap)
        u = route[-1]
        if u in done:
            continue
        done.add(u)
        if u == dst:
            return route, cost
        for v, link, lane in topology.neighbors(u):
            if v in done or not (link.up and (mask := link._free[lane])):
                continue
            li = mask.bit_count() / link.total_channels
            candidate = (cost + (1.0 - li if li > lt else 1.0 + li), hops + 1, route + (v,))
            known = best.get(v)
            if known is None or candidate < known:
                best[v] = candidate
                heappush(heap, candidate)
    return None


def min_hop_path(
    topology: Topology, src: int, dst: int,
    banned_links: frozenset[int] = frozenset(), banned_nodes: frozenset[int] = frozenset(),
) -> tuple[int, ...] | None:
    """Least-hop route avoiding the bans, least by node sequence among those; reads no
    link state, not even ``up``.  A BFS from ``dst`` gives each node its hops to go,
    and the walk from ``src`` steps to the smallest neighbour one hop nearer."""
    togo, queue = {dst: 0}, [dst]
    for u in queue:  # the queue grows as it is read
        for v, link, _ in topology.neighbors(u):
            if (v not in togo and link.id not in banned_links
                    and (v == src or v not in banned_nodes)):
                togo[v] = togo[u] + 1
                queue.append(v)
    if src not in togo or dst in banned_nodes:
        return None
    route = [src]
    for left in range(togo[src] - 1, -1, -1):  # the hops to go after this step
        route.append(next(v for v, link, _ in topology.neighbors(route[-1])
                          if togo.get(v) == left and link.id not in banned_links))
    return tuple(route)


def resolved_routes(topology: Topology, src: int, dst: int, k: int,
                    banned_links: frozenset[int] = frozenset()) -> tuple[Hops, ...]:
    """Yen's k shortest hop routes, resolved, from the graph's shared table; a miss fills
    it, so a process searches and resolves each route once per graph and link delays."""
    routes = topology.routes.get(key := (src, dst, k, banned_links))
    if routes is None:
        found = k_shortest_hop_paths(topology, *key)
        routes = topology.routes[key] = tuple(map(topology.hops, found))
    return routes


def k_shortest_hop_paths(topology: Topology, src: int, dst: int, k: int,
                         banned_links: frozenset[int] = frozenset()) -> list[tuple[int, ...]]:
    """Yen's algorithm ordered by (hop count, route), loop-free throughout; uncached."""
    first = min_hop_path(topology, src, dst, banned_links)
    if first is None or k < 1:
        return []
    accepted = [first]
    resolved: list[Hops] = []  # each accepted route, resolved once, when spurs leave it
    candidates: dict[tuple[int, ...], None] = {}
    while len(accepted) < k:
        prev = accepted[-1]
        resolved.append(topology.hops(prev))
        for i in range(len(prev) - 1):
            root = prev[: i + 1]
            spur_banned = set(banned_links)
            for hops in resolved:
                if hops.route[: i + 1] == root and len(hops) > i:
                    spur_banned.add(topology.arcs[hops[i]][0].id)
            spur_path = min_hop_path(topology, prev[i], dst, spur_banned, frozenset(root[:-1]))
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


def baseline_route(topology: Topology, src: int, dst: int) -> Hops | None:
    """The least-hop route over up links, least by node sequence among those: Yen's
    first route, resolved.

    Starting with no bans, look up the first of Yen's routes avoiding the
    bans, which is ``min_hop_path``'s; if it crosses down links, ban those
    too and look up again.  The bans stay inside the down set, so a route
    that is least among the routes avoiding them, and crosses no down link,
    is least among the routes over up links in the same (hops, route) order.
    """
    arcs, banned = topology.arcs, frozenset()
    while True:
        routes = resolved_routes(topology, src, dst, 1, banned)
        if not routes:
            return None
        down = [arcs[arc][0].id for arc in routes[0] if not arcs[arc][0].up]
        if not down:
            return routes[0]
        banned = banned.union(down)


def assign_wavelength(
    topology: Topology, route: list[int], mode: str = NO_CONVERSION
) -> list[int] | None:
    """First-fit wavelength assignment along ``route``: ``first_fit`` of its hops."""
    return first_fit(topology, topology.hops(route), mode)


def first_fit(topology: Topology, hops: Hops, mode: str) -> list[int] | None:
    """First-fit wavelength assignment along resolved hops, on ``topology``'s channels.

    Without conversion every hop must share one wavelength (continuity);
    with full conversion each hop independently takes its lowest free index.
    Returns the per-hop wavelength list, or None when no assignment exists,
    as on a route with a down hop, whose mask reads 0.  ``mode`` is checked
    by the config.
    """
    # the lowest set bit of a free mask is its lowest free wavelength index
    arcs = topology.arcs
    if mode == NO_CONVERSION:
        common = -1
        for arc in hops:
            link, lane = arcs[arc]
            common &= link._free[lane] if link.up else 0
        if not common:
            return None
        w = (common & -common).bit_length() - 1
        return [w] * len(hops)
    wavelengths = []
    for arc in hops:
        link, lane = arcs[arc]
        if not (link.up and (free := link._free[lane])):
            return None
        wavelengths.append((free & -free).bit_length() - 1)
    return wavelengths


@dataclass
class Lightpath:
    """An established route's resolved hops and the wavelength it holds on each hop."""

    arcs: list  # the arc table of the topology whose channels it holds
    hops: Hops  # the route's record as its router resolved it
    wavelengths: list[int]  # emptied on release
    path_delay: float = 0.0  # propagation plus conversion charges

    def wavelength_changes(self) -> int:
        return sum(1 for prev, cur in zip(self.wavelengths, self.wavelengths[1:]) if prev != cur)


@dataclass
class RouteResult:
    lightpath: Lightpath | None

    @property
    def blocked(self) -> bool:
        return self.lightpath is None


def establish_lightpath(topology: Topology, hops: Hops, mode: str,
                        conversion_time: float) -> Lightpath | None:
    """Assign wavelengths and occupy ``topology``'s channels atomically along resolved ``hops``.

    Returns the lightpath, whose ``path_delay`` is its setup delay, or None
    when no wavelength fits, a down hop included; in that case no channel is
    touched.
    """
    wavelengths = first_fit(topology, hops, mode)
    if wavelengths is None:
        return None
    arcs = topology.arcs
    for arc, w in zip(hops, wavelengths):
        link, lane = arcs[arc]
        link.occupy(lane, w)
    lp = Lightpath(arcs, hops, wavelengths, hops.delay)
    if mode == FULL_CONVERSION:  # a continuous lightpath changes no wavelength
        lp.path_delay += conversion_time * lp.wavelength_changes()
    return lp


def release_lightpath(lp: Lightpath) -> None:
    """Free the lightpath's channels; releasing it again is a no-op."""
    arcs = lp.arcs
    for arc, w in zip(lp.hops, lp.wavelengths):
        link, lane = arcs[arc]
        link.release(lane, w)
    lp.wavelengths = []


def establish_primary(topology: Topology, src: int, dst: int, lt: float,
                      mode: str = NO_CONVERSION, conversion_time: float = 0.024) -> RouteResult:
    """The threshold-cost router: the least-cost route under the load-aware costs at ``lt``."""
    found = least_cost_path(topology, src, dst, lt)
    hops = None if found is None else topology.hops(found[0])
    return RouteResult(hops and establish_lightpath(topology, hops, mode, conversion_time))


def establish_baseline(topology: Topology, src: int, dst: int,
                       mode: str = NO_CONVERSION, conversion_time: float = 0.024) -> RouteResult:
    """The shortest-hop reference router: the least-hop route over up links."""
    hops = baseline_route(topology, src, dst)
    return RouteResult(hops and establish_lightpath(topology, hops, mode, conversion_time))
