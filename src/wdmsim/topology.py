"""Network model: nodes, bidirectional links, per-direction wavelength channels.

Links are declared once per unordered node pair but carry two independent
channel lanes, one per travel direction; a lightpath occupies the lane that
matches its direction of travel.  A lane's only channel state is its
free-wavelength bitmask, so free counts and first-fit are integer
operations; occupy refuses a busy channel, or any channel of a down link,
and release a free one.  Which lightpath holds a channel is recorded on the
lightpath (route plus wavelengths), not on the link.

A down link offers no free wavelength (``free_mask`` reads 0), so readers of
channel state need no up check; the raw masks are kept, so a repaired link
gets its held channels back and ``occupancy_snapshot`` shows real occupancy.

The graph never changes after construction, so each node's sorted adjacency
is built once and each route is resolved once, into ``Hops`` that also carry
its link ids and delay.  ``Topology.graph`` is the structure alone (node
count and link endpoints), on which ``routing`` memoises hop-count routes.
"""

from __future__ import annotations

import math
from collections import deque

from .errors import (
    ChannelBusyError,
    ChannelFreeError,
    LinkDownError,
    TopologyError,
    TopologyParseError,
)

FORWARD = 0  # travel a -> b
REVERSE = 1  # travel b -> a


class Link:
    """One fiber link; ``a``/``b`` are its endpoints as declared."""

    def __init__(self, link_id: int, a: int, b: int, delay: float, total_channels: int):
        if a == b:
            raise TopologyError(f"self-loop link at node {a}")
        if not (math.isfinite(delay) and delay > 0):
            raise TopologyError(f"link {link_id}: delay must be finite and positive")
        if total_channels < 1:
            raise TopologyError(f"link {link_id}: total_channels must be >= 1")
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

    def lane(self, u: int, v: int) -> int:
        """Lane index for travelling u -> v over this link."""
        if (u, v) == (self.a, self.b):
            return FORWARD
        if (u, v) == (self.b, self.a):
            return REVERSE
        raise TopologyError(f"link {self.id} does not join {u} and {v}")

    def other_end(self, u: int) -> int:
        if u == self.a:
            return self.b
        if u == self.b:
            return self.a
        raise TopologyError(f"node {u} is not an endpoint of link {self.id}")

    def free_mask(self, lane: int) -> int:
        """Bitmask of the lane's free wavelengths (bit w set while w is free); 0 while down."""
        return self._free[lane] if self.up else 0

    def free_count(self, lane: int) -> int:
        return self.free_mask(lane).bit_count()

    def load_index(self, lane: int) -> float:
        """Fraction of usable channels in the lane; a down link reports 0."""
        return self.free_count(lane) / self.total_channels

    def occupy(self, lane: int, w: int) -> None:
        self._check_wavelength(w)
        if not self.up:
            raise LinkDownError(f"link {self.id} is down")
        if not self._free[lane] >> w & 1:
            raise ChannelBusyError(f"link {self.id} lane {lane} wavelength {w} is busy")
        self._free[lane] &= ~(1 << w)

    def release(self, lane: int, w: int) -> None:
        self._check_wavelength(w)
        if self._free[lane] >> w & 1:
            raise ChannelFreeError(f"link {self.id} lane {lane} wavelength {w} is already free")
        self._free[lane] |= 1 << w

    def _check_wavelength(self, w: int) -> None:
        if not 0 <= w < self.total_channels:
            raise TopologyError(f"wavelength {w} out of range for link {self.id}")


class Hops(tuple):
    """A resolved route's (link, lane) pairs, its ``link_ids`` and its ``delay``,
    the left-to-right sum of its link delays."""

    def __new__(cls, pairs):
        hops = super().__new__(cls, pairs)
        hops.link_ids = frozenset(link.id for link, _ in hops)
        hops.delay = sum(link.delay for link, _ in hops)
        return hops


class Topology:
    """Validated network graph with deterministic adjacency ordering."""

    def __init__(self, num_nodes: int, links: list[Link]):
        if num_nodes < 1:
            raise TopologyError("topology needs at least one node")
        self.num_nodes = num_nodes
        self.links = list(links)
        # the structure alone: what a hop-count route search reads
        self.graph = (num_nodes, tuple((link.a, link.b) for link in self.links))
        self._by_pair: dict[tuple[int, int], Link] = {}
        self.adjacency: list[list[Link]] = [[] for _ in range(num_nodes)]
        for i, link in enumerate(self.links):
            # failure schedules and the engine look a link up by its id
            if link.id != i:
                raise TopologyError(f"link {link.id} is at position {i}; ids must be 0..n-1 in order")
            for end in (link.a, link.b):
                if not 0 <= end < num_nodes:
                    raise TopologyError(f"dangling node reference: link {link.id} names node {end}")
            pair = (min(link.a, link.b), max(link.a, link.b))
            if pair in self._by_pair:
                raise TopologyError(f"duplicate link between {pair[0]} and {pair[1]}")
            self._by_pair[pair] = link
            self.adjacency[link.a].append(link)
            self.adjacency[link.b].append(link)
        for incident in self.adjacency:
            incident.sort(key=lambda l: l.id)
        self._neighbors = [
            tuple(sorted(((link.other_end(u), link) for link in incident), key=lambda p: p[0]))
            for u, incident in enumerate(self.adjacency)
        ]
        self._hops: dict[tuple[int, ...], Hops] = {}

    def link_between(self, u: int, v: int) -> Link | None:
        return self._by_pair.get((min(u, v), max(u, v)))

    def neighbors(self, u: int) -> tuple[tuple[int, Link], ...]:
        """(neighbor, link) pairs in ascending neighbor order."""
        return self._neighbors[u]

    def hops(self, route: list[int] | tuple[int, ...]) -> Hops:
        """Resolve a node sequence into (link, lane) hops.

        A resolved route is memoised; one with a missing link raises
        ``TopologyError`` on every call.
        """
        key = tuple(route)
        hops = self._hops.get(key)
        if hops is None:
            resolved = []
            for u, v in zip(key, key[1:]):
                link = self.link_between(u, v)
                if link is None:
                    raise TopologyError(f"no link between {u} and {v}")
                resolved.append((link, link.lane(u, v)))
            hops = self._hops[key] = Hops(resolved)
        return hops

    def occupancy_snapshot(self) -> tuple[tuple[int, int], ...]:
        """Every link's (forward, reverse) free masks, in link order, down links included."""
        return tuple(tuple(link._free) for link in self.links)

    def is_connected(self) -> bool:
        if self.num_nodes == 1:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v, link in self.neighbors(u):
                if link.up and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.num_nodes


def parse_topology(text: str) -> Topology:
    """Parse a topology document.

    Grammar (line oriented, ``#`` starts a comment)::

        nodes <count>
        link <a> <b> <delay_ms> <channels>    # one line per link

    Node ids are 0-based; delays are milliseconds in the file and seconds
    in memory.
    """
    num_nodes = None
    raw_links: list[tuple[int, int, int, float, int]] = []
    seen_pairs: set[tuple[int, int]] = set()
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
                a, b = int(fields[1]), int(fields[2])
                delay_ms = float(fields[3])
                channels = int(fields[4])
            except ValueError:
                raise TopologyParseError(f"bad link fields {fields[1:]!r}", line_no) from None
            for end in (a, b):
                if not 0 <= end < num_nodes:
                    raise TopologyParseError(f"dangling node reference {end}", line_no)
            pair = (min(a, b), max(a, b))
            if pair in seen_pairs:
                raise TopologyParseError(f"duplicate link between {pair[0]} and {pair[1]}", line_no)
            seen_pairs.add(pair)
            raw_links.append((line_no, a, b, delay_ms, channels))
        else:
            raise TopologyParseError(f"unknown directive {fields[0]!r}", line_no)
    if num_nodes is None:
        raise TopologyParseError("missing nodes header", 1)
    links = []
    for i, (line_no, a, b, delay_ms, channels) in enumerate(raw_links):
        try:
            links.append(Link(i, a, b, delay_ms / 1000.0, channels))
        except TopologyError as err:
            raise TopologyParseError(str(err), line_no) from None
    return Topology(num_nodes, links)


def read_topology(path) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())


# Stand-in 8-node mesh: a bidirectional ring plus three chords.  Average
# degree 2.75; any topology file can replace it.
DEFAULT_RING_CHORDS = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (1, 5), (2, 6)]


def default_topology(channels: int = 8, delay_ms: float = 10.0) -> Topology:
    """The default mesh, built directly so ``delay_ms`` keeps its full precision."""
    links = [
        Link(i, a, b, delay_ms / 1000.0, channels) for i, (a, b) in enumerate(DEFAULT_RING_CHORDS)
    ]
    return Topology(8, links)
