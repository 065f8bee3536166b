"""Network model: nodes, bidirectional links, per-direction wavelength channels.

Links are declared once per unordered node pair but carry two independent
channel lanes, one per travel direction; a lightpath occupies the lane that
matches its direction of travel.  A lane's only channel state is its
free-wavelength bitmask, so free counts and first-fit are integer
operations; occupy refuses a busy channel, or any channel of a down link,
and release a free one.  Which lightpath holds a channel is recorded on the
lightpath (hops plus wavelengths), not on the link.

A down link offers no free wavelength: ``free_mask`` reads 0, so its callers
need no up check.  The hot readers, ``probe_outcome``, ``first_fit``, ``least_cost_path``
and ``metrics.sample_utilization``, read ``_free[lane]`` in place behind one ``up`` test,
to the same rule.  The raw masks are kept, so a repaired link gets its held channels
back, and ``occupancy_snapshot`` and the engine's audit (in arc order) see real occupancy.

The graph never changes after construction, so its arc table, from a travel
direction to its (link, lane) at index ``2 * link.id + lane``, is built once.
It refuses duplicate links and lists each node's arcs for ``neighbors``.  A
route's record, ``Hops``, names arcs, never a ``Link``, so a process resolves it
once: every topology of one graph and link delays shares the module's tables.
``Topology.graph`` is the structure alone; ``routing`` alone searches it, and keeps Yen's
routes resolved in the tables' ``routes``, the process's one route cache.
``Link`` and ``Topology`` alone check the structure: ``parse_topology`` reports
any refusal, dangling or duplicate links too, at the refused link's line.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

from .errors import (
    ChannelBusyError,
    ChannelFreeError,
    LinkDownError,
    TopologyError,
    TopologyParseError,
)

FORWARD = 0  # travel a -> b
REVERSE = 1  # travel b -> a

MAX_CHANNELS = 2**20  # a lane's free mask holds a bit per channel: billions exhaust memory
# ((graph, link delays), (Hops by route, Yen's resolved routes by query)) of the graph last built
_tables: tuple[tuple, tuple[dict, dict]] = ((), ({}, {}))


class Link:
    """One fiber link; ``a``/``b`` are its endpoints as declared."""

    def __init__(self, link_id: int, a: int, b: int, delay: float, total_channels: int):
        if a == b:
            raise TopologyError(f"self-loop link at node {a}")
        if not (math.isfinite(delay) and delay > 0):
            raise TopologyError(f"link {link_id}: delay must be finite and positive")
        if not 1 <= total_channels <= MAX_CHANNELS:
            raise TopologyError(f"link {link_id}: total_channels must be in 1..{MAX_CHANNELS}")
        self.id = link_id
        self.a = a
        self.b = b
        self.delay = delay
        self.total_channels = total_channels
        self.up = True
        # bit w of _free[lane] is set while wavelength w is free in that lane;
        # only occupy and release write it
        all_free = (1 << total_channels) - 1
        self._free = [all_free, all_free]

    def __repr__(self):
        return f"Link({self.id}: {self.a}<->{self.b}, {self.total_channels}ch)"

    def free_mask(self, lane: int) -> int:
        """Bitmask of the lane's free wavelengths (bit w set while w is free); 0 while down."""
        return self._free[lane] if self.up else 0

    def occupy(self, lane: int, w: int) -> None:
        if not 0 <= w < self.total_channels:
            raise TopologyError(f"wavelength {w} out of range for link {self.id}")
        if not self.up:
            raise LinkDownError(f"link {self.id} is down")
        if not self._free[lane] >> w & 1:
            raise ChannelBusyError(f"link {self.id} lane {lane} wavelength {w} is busy")
        self._free[lane] &= ~(1 << w)

    def release(self, lane: int, w: int) -> None:
        if not 0 <= w < self.total_channels:
            raise TopologyError(f"wavelength {w} out of range for link {self.id}")
        if self._free[lane] >> w & 1:
            raise ChannelFreeError(f"link {self.id} lane {lane} wavelength {w} is already free")
        self._free[lane] |= 1 << w


class Hops(tuple):
    """A resolved route's arc indices, ``2 * link_id + lane`` each, its node tuple ``route``,
    its ``link_ids`` and its ``delay``, the left-to-right sum of its ``links``' delays."""

    def __new__(cls, arcs, route: tuple[int, ...], links: list[Link]):
        hops = super().__new__(cls, arcs)
        hops.route = route
        hops.link_ids = frozenset(arc >> 1 for arc in hops)
        hops.delay = reduce(operator.add, (links[arc >> 1].delay for arc in hops), 0)
        return hops


class Topology:
    """Validated network graph with deterministic adjacency ordering."""

    def __init__(self, num_nodes: int, links: list[Link]):
        self.num_nodes = num_nodes
        self.links = list(links)
        # the structure alone: what a hop-count route search reads
        self.graph = (num_nodes, tuple((link.a, link.b) for link in self.links))
        # (u, v) -> arc index, and arc index -> (link, lane), for both travel directions
        self._arc_ids: dict[tuple[int, int], int] = {}
        self.arcs = [(link, lane) for link in self.links for lane in (FORWARD, REVERSE)]
        # incident links in id order, since ids are checked to run in list order
        self.adjacency: list[list[Link]] = [[] for _ in range(num_nodes)]
        for i, link in enumerate(self.links):
            # failure schedules, the engine and the arc table look a link up by its id
            if link.id != i:
                raise TopologyError(f"link {link.id} is at position {i}; ids must be 0..n-1 in order")
            for end in (link.a, link.b):
                if not 0 <= end < num_nodes:
                    raise TopologyError(
                        f"dangling node reference: link {link.id} names node {end}", link.id)
            if (link.a, link.b) in self._arc_ids:
                lo, hi = sorted((link.a, link.b))
                raise TopologyError(f"duplicate link between {lo} and {hi}", link.id)
            self._arc_ids[link.a, link.b] = 2 * i + FORWARD
            self._arc_ids[link.b, link.a] = 2 * i + REVERSE
            self.adjacency[link.a].append(link)
            self.adjacency[link.b].append(link)
        self._neighbors: list[list[tuple[int, Link, int]]] = [[] for _ in range(num_nodes)]
        for (u, v), arc in sorted(self._arc_ids.items()):
            self._neighbors[u].append((v, *self.arcs[arc]))
        global _tables  # the graph's tables of records, shared by all its topologies
        key = (self.graph, tuple(link.delay for link in self.links))
        built, tables = _tables
        if built != key:
            _tables = (key, tables := ({}, {}))
        self._hops, self.routes = tables  # Hops by route; Yen's, resolved by routing, by query

    def neighbors(self, u: int) -> list[tuple[int, Link, int]]:
        """(neighbor, link, lane) of each arc out of u, in ascending neighbor order."""
        return self._neighbors[u]

    def hops(self, route: list[int] | tuple[int, ...]) -> Hops:
        """Resolve a node sequence into the arc index of each of its arcs.

        A resolved route is memoised for the graph; one with a missing link
        raises ``TopologyError`` on every call.
        """
        key = tuple(route)
        hops = self._hops.get(key)
        if hops is None:
            try:
                arcs = [self._arc_ids[arc] for arc in zip(key, key[1:])]
            except KeyError as err:
                u, v = map(operator.index, err.args[0])  # a non-integer node: TypeError
                raise TopologyError(f"no link between {u} and {v}") from None
            hops = self._hops[key] = Hops(arcs, key, self.links)
        return hops

    def occupancy_snapshot(self) -> tuple[tuple[int, int], ...]:
        """Every link's (forward, reverse) free masks, in link order, down links included."""
        return tuple(tuple(link._free) for link in self.links)


def parse_topology(text: str) -> Topology:
    """Parse a topology document.

    Grammar (line oriented, ``#`` starts a comment)::

        nodes <count>
        link <a> <b> <delay_ms> <channels>    # one line per link

    Node ids are 0-based; delays are milliseconds in the file and seconds
    in memory.
    """
    num_nodes = None
    links, link_lines = [], []  # each link, and the line that declared it
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "nodes":
            if num_nodes is not None:
                raise TopologyParseError("duplicate nodes header", line_no)
            if len(fields) != 2:
                raise TopologyParseError("expected: nodes <count>", line_no)
            try:
                num_nodes = int(fields[1])
            except ValueError:
                raise TopologyParseError(f"bad node count {fields[1]!r}", line_no) from None
            if num_nodes < 1:
                raise TopologyParseError("node count must be >= 1", line_no)
        elif fields[0] == "link":
            if num_nodes is None:
                raise TopologyParseError("link before nodes header", line_no)
            if len(fields) != 5:
                raise TopologyParseError("expected: link <a> <b> <delay_ms> <channels>", line_no)
            try:
                a, b, channels = int(fields[1]), int(fields[2]), int(fields[4])
                link = Link(len(links), a, b, float(fields[3]) / 1000.0, channels)
            except ValueError:
                raise TopologyParseError(f"bad link fields {fields[1:]!r}", line_no) from None
            except TopologyError as err:
                raise TopologyParseError(str(err), line_no) from None
            links.append(link)
            link_lines.append(line_no)
        else:
            raise TopologyParseError(f"unknown directive {fields[0]!r}", line_no)
    if num_nodes is None:
        raise TopologyParseError("missing nodes header", 1)
    try:
        return Topology(num_nodes, links)
    except TopologyError as err:  # a dangling or duplicate link: report its line
        raise TopologyParseError(str(err), link_lines[err.link_id]) from None


# Stand-in 8-node mesh: a bidirectional ring plus three chords.  Average
# degree 2.75; any topology file can replace it.
DEFAULT_RING_CHORDS = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (1, 5), (2, 6)]


def default_topology(channels: int = 8, delay_ms: float = 10.0) -> Topology:
    """The default mesh, built directly so ``delay_ms`` keeps its full precision."""
    links = [
        Link(i, a, b, delay_ms / 1000.0, channels) for i, (a, b) in enumerate(DEFAULT_RING_CHORDS)
    ]
    return Topology(8, links)
