"""Brute-force reference implementations used to cross-check the fast paths.

Everything here trades efficiency for obviousness: exhaustive DFS over
simple paths, explicit sort-and-truncate candidate selection.  An arc's link
and lane are found by scanning ``topology.links`` and reading each link's
declared ends, never through ``Topology``'s own arc table.  Costs are
accumulated left-to-right along each path so floating-point sums agree
exactly with Dijkstra's incremental accumulation.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from wdmsim.topology import FORWARD, REVERSE, Hops, Link, Topology


def arc(topology: Topology, u: int, v: int) -> tuple[Link, int] | None:
    """(link, lane) for travel u -> v, by a scan of every link; None if no link joins them."""
    for link in topology.links:
        if (link.a, link.b) == (u, v):
            return link, FORWARD
        if (link.b, link.a) == (u, v):
            return link, REVERSE
    return None


def simple_paths(topology: Topology, src: int, dst: int, banned_links=frozenset()):
    """Yield every loop-free route src..dst as a node tuple."""
    stack = [(src, (src,))]
    while stack:
        node, route = stack.pop()
        if node == dst:
            yield route
            continue
        for nxt in range(topology.num_nodes):
            found = arc(topology, node, nxt)
            if found is None or found[0].id in banned_links or nxt in route:
                continue
            stack.append((nxt, route + (nxt,)))


def unit_edge_cost(link: Link, lane: int) -> float:
    """Hop-count costs over up links: under it ``least_cost_path`` is the baseline's route."""
    return 1.0 if link.up else math.inf


def path_cost(topology: Topology, route, edge_cost) -> float:
    total = 0.0
    for u, v in zip(route, route[1:]):
        total = total + edge_cost(*arc(topology, u, v))
    return total


def min_cost_route(topology: Topology, src: int, dst: int, edge_cost):
    """Exhaustive minimum by (cost, hops, route) — mirrors the tie-break."""
    best = None
    for route in simple_paths(topology, src, dst):
        cost = path_cost(topology, route, edge_cost)
        if cost == float("inf"):
            continue
        key = (cost, len(route) - 1, route)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return best[2], best[0]


def k_best_disjoint(topology: Topology, src: int, dst: int, primary_links, k: int):
    """All loop-free paths avoiding primary_links, k best by (hops, route)."""
    found = sorted(
        simple_paths(topology, src, dst, banned_links=frozenset(primary_links)),
        key=lambda r: (len(r), r),
    )
    return found[:k]


def held_channels(topology: Topology) -> set[tuple[int, int, int]]:
    """(link id, lane, wavelength) of every channel not offered as free (busy, or on a
    down link), read one mask bit at a time."""
    return {(link.id, lane, w) for link in topology.links for lane in (0, 1)
            for w in range(link.total_channels) if not link.free_mask(lane) >> w & 1}


def free_wavelengths(link: Link, lane: int, held) -> set[int]:
    """The lane's free indices under a held-channel model."""
    return {w for w in range(link.total_channels) if (link.id, lane, w) not in held}


def first_fit(topology: Topology, route, mode: str, held):
    """Set-based first-fit under a held-channel model: the least index free
    on every hop ("none"), or each hop's own least free index ("full"); None
    when nothing fits."""
    free = []
    for u, v in zip(route, route[1:]):
        free.append(free_wavelengths(*arc(topology, u, v), held))
    if mode == "none":
        common = set.intersection(*free) if free else set()
        return [min(common)] * len(free) if common else None
    if not all(free):
        return None
    return [min(f) for f in free]


def random_topology(rng: random.Random, max_nodes: int = 8) -> Topology:
    """Random connected-ish multigraph-free topology with random occupancy."""
    n = rng.randint(2, max_nodes)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(pairs)
    # a random spanning tree keeps most instances connected, then extra chords
    k_extra = rng.randint(0, len(pairs) // 2)
    chosen = set()
    seen = {0}
    for a, b in pairs:
        if (a in seen) != (b in seen):
            chosen.add((a, b))
            seen.update((a, b))
    for a, b in pairs:
        if len(chosen) >= len(seen) - 1 + k_extra:
            break
        chosen.add((a, b))
    links = [
        Link(i, a, b, delay=rng.choice([0.005, 0.01, 0.02]),
             total_channels=rng.randint(1, 4))
        for i, (a, b) in enumerate(sorted(chosen))
    ]
    topology = Topology(n, links)
    for link in topology.links:
        for lane in (0, 1):
            for w in range(link.total_channels):
                if rng.random() < 0.4:
                    link.occupy(lane, w)
        if rng.random() < 0.1:
            link.up = False
    return topology


def rank_by_feedback(paths, outcomes):
    """Every route, best first, by exact NACK fraction of (path_index, outcome) feedback.

    A route with no feedback counts as fully blocked; ties break by hop
    count, then by route.
    """
    nacks = [0] * len(paths)
    resolved = [0] * len(paths)
    for j, outcome in outcomes:
        resolved[j] += 1
        nacks[j] += outcome == "nack"
    estimate = [Fraction(n, r) if r else Fraction(1) for n, r in zip(nacks, resolved)]
    ranked = sorted(range(len(paths)), key=lambda j: (estimate[j], len(paths[j]), paths[j]))
    return [paths[j] for j in ranked]


def erlang_b(a: float, w: int) -> float:
    """Blocking of an M/M/w/w loss system offered ``a`` Erlangs (stable recursion)."""
    b = 1.0
    for k in range(1, w + 1):
        b = a * b / (k + a * b)
    return b


def erlang_fixed_point(routes, capacity: int) -> float:
    """Reduced-load (Erlang fixed-point) blocking of a loss network (Kelly 1986).

    ``routes`` lists ``(offered erlangs, resources)``, every resource a trunk
    group of ``capacity`` circuits.  A resource blocks with Erlang-B of the
    load its routes offer it, each thinned by the blocking of the route's
    other resources; a route is carried only if all of its resources admit
    it.  Returns the route blocking averaged over the offered load.
    """
    blocking = {r: 0.0 for _, resources in routes for r in resources}
    for _ in range(1000):  # repeated substitution; converges in a few dozen rounds here
        previous = blocking
        blocking = {
            r: erlang_b(sum(a * math.prod(1.0 - previous[k] for k in resources if k != r)
                            for a, resources in routes if r in resources), capacity)
            for r in previous
        }
        if max(abs(blocking[r] - previous[r]) for r in blocking) < 1e-12:
            break
    else:
        raise ArithmeticError("repeated substitution did not converge")
    lost = sum(a * (1.0 - math.prod(1.0 - blocking[r] for r in resources))
               for a, resources in routes)
    return lost / sum(a for a, _ in routes)


def random_failure_schedule(
    topology: Topology, seed: int, tmax: float, count: int = 1
) -> list[tuple[float, int]]:
    """Seeded ``count`` link failures, uniform in [0, tmax] over the links, sorted by time."""
    rng = random.Random(seed ^ 0xFA11)
    schedule = []
    for _ in range(count):
        t = rng.uniform(0.0, tmax)
        link = rng.randrange(len(topology.links))
        schedule.append((t, link))
    return sorted(schedule)


def hops_of(route, delay: float = 0.0) -> Hops:
    """``Hops`` of ``route`` with the given ``delay``, all on one link (none for 0).

    A prober reads only a candidate's route and delay, so the link need not
    join the route's nodes.
    """
    pairs = [(Link(0, route[0], route[-1], delay, 1), 0)] if delay else []
    return Hops(pairs, tuple(route))


def window_probes(prober, now: float) -> list[tuple[float, int, int]]:
    """Open a window; every ``(time, path_index, slot)`` it sends, candidate by candidate.

    ``open_windows`` returns only the first send, which every candidate
    shares; slot ``s`` of the window's ``count`` goes out ``s + 1`` spacings
    after it opens, a spacing being the window's span over ``count + 1``.
    """
    prober.open_windows(now)
    return [(now + (s + 1) * prober.interval / (prober.count + 1), j, s)
            for j in range(len(prober.candidates)) for s in range(prober.count)]
