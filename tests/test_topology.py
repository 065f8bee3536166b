import ast
import math
import pickle
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import wdmsim
from wdmsim.config import Scenario, validate_scenario
from wdmsim.errors import (
    ChannelBusyError,
    ChannelFreeError,
    LinkDownError,
    SimError,
    TopologyError,
    TopologyParseError,
)
from oracles import priced_arc
from wdmsim.routing import link_cost
from wdmsim.topology import (
    FORWARD,
    MAX_CHANNELS,
    REVERSE,
    Link,
    Topology,
    default_topology,
    parse_topology,
)

LT = 0.3


# -- parsing ------------------------------------------------------------------

def test_parse_roundtrip_counts(square):
    assert square.num_nodes == 4
    assert len(square.links) == 4
    assert square.links[0].delay == pytest.approx(0.010)
    assert square.links[0].total_channels == 8


def test_parse_ignores_comments_and_blank_lines():
    topo = parse_topology("# header\n\nnodes 2\n  # indented\nlink 0 1 5 3\n")
    assert topo.num_nodes == 2
    assert topo.links[0].delay == pytest.approx(0.005)
    assert topo.links[0].total_channels == 3


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("link 0 1 10 8\n", "nodes"),
        ("nodes 2\nlink 0 5 10 8\n", "dangling"),
        ("nodes 2\nlink 0 1 10 8\nlink 1 0 10 8\n", "duplicate"),
        ("nodes 2\nlink 0 0 10 8\n", "self"),
        ("nodes 0\n", "node count"),
        ("nodes 2\nlink 0 1 10\n", "link"),
        ("nodes 2\nfrob 1 2\n", "frob"),
        ("nodes 2\nlink 0 1 10 0\n", "channel"),
        ("nodes 3\nlink 0 1 10 2\nlink 1 2 nan 2\n", "line 3: link 1: delay must be finite"),
        ("nodes 3\nlink 0 1 inf 2\nlink 1 2 10 2\n", "line 2: link 0: delay must be finite"),
    ],
)
def test_parse_rejects_malformed(text, fragment):
    with pytest.raises((TopologyParseError, TopologyError)) as err:
        parse_topology(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(TopologyParseError) as err:
        parse_topology("nodes 2\n# fine\nlink 0 9 10 8\n")
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("text, line_no, message", [
    ("nodes 2\n# again\nnodes 3\n", 3, "duplicate nodes header"),
    ("# size\nnodes 2 3\n", 2, "expected: nodes <count>"),
    ("nodes two\n", 1, "bad node count 'two'"),
    ("nodes 2\nlink 0 1 ten 8\n", 2, "bad link fields ['0', '1', 'ten', '8']"),
    ("# no header\n\n", 1, "missing nodes header"),
], ids=["duplicate-header", "header-fields", "non-integer-count", "non-numeric-link",
        "missing-header"])
def test_parse_refusal_names_its_line(text, line_no, message):
    with pytest.raises(TopologyParseError) as err:
        parse_topology(text)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


EXPORTED_ERRORS = [error for error in map(vars(wdmsim).get, wdmsim.__all__)
                   if isinstance(error, type) and issubclass(error, SimError)]
ERROR_ARGS = {TopologyError: ("refused", 2), TopologyParseError: ("refused", 3)}


@pytest.mark.parametrize("cls", EXPORTED_ERRORS, ids=lambda cls: cls.__name__)
def test_every_exported_error_survives_pickling(cls):
    # a process pool hands a refusal back to its parent pickled
    err = cls(*ERROR_ARGS.get(cls, ("refused",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls and str(back) == str(err)
    for attr in ("line_no", "link_id"):
        assert getattr(back, attr, None) == getattr(err, attr, None)


@cache
def raised_names() -> frozenset[str]:
    """The name of every class a ``raise`` statement in the package's modules raises."""
    names = set()
    for path in Path(wdmsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return frozenset(names)


@pytest.mark.parametrize("cls", EXPORTED_ERRORS, ids=lambda cls: cls.__name__)
def test_every_exported_error_has_a_raiser(cls):
    # an exported error nothing raises is API no run can meet
    assert cls.__name__ in raised_names()


@pytest.mark.parametrize("bad_link, message", [
    ("link 5 1 10 8", "dangling node reference: link 1 names node 5"),
    ("link 1 5 10 8", "dangling node reference: link 1 names node 5"),
    ("link 0 1 10 8", "duplicate link between 0 and 1"),
    ("link 1 0 10 8", "duplicate link between 0 and 1"),
], ids=["dangling-a", "dangling-b", "duplicate", "reversed-duplicate"])
def test_structural_fault_names_the_declaring_line(bad_link, message):
    """Topology refuses the link; the parser reports the line that declared it."""
    text = ("# three nodes\nnodes 3\n\nlink 0 1 10 8\n  # next: the bad link\n\n"
            f"{bad_link}\nlink 1 2 10 8\n")
    with pytest.raises(TopologyParseError) as err:
        parse_topology(text)
    assert str(err.value) == f"line 7: {message}"
    assert err.value.line_no == 7


def test_link_fault_is_reported_before_a_structural_one():
    # links are built as their lines are read; Topology checks the structure after
    with pytest.raises(TopologyParseError, match="^line 4: self-loop link at node 2$"):
        parse_topology("nodes 3\nlink 0 1 10 8\nlink 1 0 10 8\nlink 2 2 10 8\n")


@pytest.mark.parametrize("ends, message", [
    ((0, 3), "dangling node reference: link 1 names node 3"),
    ((1, 0), "duplicate link between 0 and 1"),
], ids=["dangling", "duplicate"])
def test_topology_names_the_refused_link(ends, message):
    links = [Link(0, 0, 1, 0.01, 8), Link(1, *ends, 0.01, 8), Link(2, 1, 2, 0.01, 8)]
    with pytest.raises(TopologyError, match=f"^{message}$") as err:
        Topology(3, links)
    assert err.value.link_id == 1
    assert not isinstance(err.value, TopologyParseError)


def test_link_refuses_more_channels_than_the_cap():
    assert Link(0, 0, 1, 0.01, MAX_CHANNELS).total_channels == MAX_CHANNELS == 2**20
    with pytest.raises(TopologyError) as err:
        Link(3, 0, 1, 0.01, MAX_CHANNELS + 1)
    assert str(err.value) == f"link 3: total_channels must be in 1..{MAX_CHANNELS}"
    with pytest.raises(TopologyParseError, match="^line 2: link 0: total_channels must be in 1.."):
        parse_topology(f"nodes 2\nlink 0 1 10 {MAX_CHANNELS + 1}\n")


def test_default_topology_is_ring_with_chords():
    topo = default_topology()
    assert topo.num_nodes == 8
    assert len(topo.links) == 11
    assert validate_scenario(Scenario()) == []  # connected: no warning
    assert all(l.total_channels == 8 for l in topo.links)
    assert all(l.delay == pytest.approx(0.010) for l in topo.links)


def test_default_topology_keeps_link_delay_precision():
    topo = default_topology(delay_ms=12.3456789)
    assert all(l.delay == 12.3456789 / 1000.0 for l in topo.links)


# -- lanes and occupancy ------------------------------------------------------

def test_lane_orientation(square):
    link = square.links[0]  # 0 -- 1
    assert square.hops((0, 1)) == (2 * link.id + FORWARD,)
    assert square.hops((1, 0)) == (2 * link.id + REVERSE,)
    assert [square.arcs[arc] for arc in square.hops((0, 1, 0))] == [(link, FORWARD),
                                                                    (link, REVERSE)]
    assert (1, link, FORWARD) in square.neighbors(0)
    assert (0, link, REVERSE) in square.neighbors(1)
    with pytest.raises(TopologyError, match="^no link between 1 and 3$"):
        square.hops((0, 1, 3))


def test_lanes_are_independent(square):
    link = square.links[0]
    link.occupy(FORWARD, 0)
    assert link.free_mask(FORWARD).bit_count() == 7
    assert link.free_mask(REVERSE).bit_count() == 8
    link.occupy(FORWARD, 1)
    link.occupy(REVERSE, 0)
    assert link.free_mask(FORWARD) == 0b11111100
    assert link.free_mask(REVERSE) == 0b11111110


def test_occupy_conflict_and_release_guards(square):
    link = square.links[0]
    link.occupy(FORWARD, 3)
    with pytest.raises(ChannelBusyError):
        link.occupy(FORWARD, 3)
    with pytest.raises(ChannelFreeError):
        link.release(FORWARD, 4)
    with pytest.raises(TopologyError):
        link.occupy(FORWARD, 8)  # out of range
    with pytest.raises(TopologyError, match="^wavelength 8 out of range for link 0$"):
        link.release(FORWARD, 8)
    link.release(FORWARD, 3)
    with pytest.raises(ChannelFreeError):
        link.release(FORWARD, 3)
    assert link.free_mask(FORWARD).bit_count() == 8


def test_occupy_down_link_refused(square):
    link = square.links[0]
    link.up = False
    with pytest.raises(LinkDownError):
        link.occupy(FORWARD, 0)
    link.up = True
    link.occupy(FORWARD, 0)


def test_load_index_free_fraction(square):
    # LI is a lane's free count over its channel total; its cost is the formula's at LI
    link = square.links[0]

    def cost(link, lane):
        return priced_arc(square, link, lane, LT)

    assert link.free_mask(FORWARD).bit_count() / link.total_channels == 1.0
    assert cost(link, FORWARD) == link_cost(1.0, LT) == 0.0
    for w in range(4):
        link.occupy(FORWARD, w)
    assert link.free_mask(FORWARD).bit_count() / link.total_channels == 0.5
    assert link.free_mask(REVERSE).bit_count() / link.total_channels == 1.0
    assert cost(link, FORWARD) == link_cost(0.5, LT) == 0.5
    assert cost(link, REVERSE) == 0.0
    link.up = False
    assert link.free_mask(FORWARD).bit_count() == link.free_mask(REVERSE).bit_count() == 0
    assert cost(link, FORWARD) == cost(link, REVERSE) == link_cost(0.0, LT) == math.inf


def test_down_link_remembers_occupancy(square):
    link = square.links[0]
    link.occupy(FORWARD, 2)
    snapshot = square.occupancy_snapshot()
    link.up = False
    # a down link offers no free wavelength in either lane, but the raw
    # masks, which the audit reads, still show what is held
    assert link.free_mask(FORWARD) == link.free_mask(REVERSE) == 0
    assert link.free_mask(FORWARD).bit_count() == link.free_mask(REVERSE).bit_count() == 0
    assert square.occupancy_snapshot() == snapshot
    link.up = True
    assert link.free_mask(FORWARD) == 0b11111011
    assert link.free_mask(REVERSE) == 0b11111111
    with pytest.raises(ChannelBusyError):
        link.occupy(FORWARD, 2)


# -- topology queries ---------------------------------------------------------

def test_neighbors_sorted_and_complete(mesh8):
    nbrs = mesh8.neighbors(0)
    assert [v for v, _, _ in nbrs] == sorted(v for v, _, _ in nbrs)
    assert {v for v, _, _ in nbrs} == {1, 4, 7}


def test_link_between(square):
    """One link joins a node pair from either end; resolving a pair no link joins raises."""
    assert [(v, link) for v, link, _ in square.neighbors(0)] == [
        (1, square.links[0]), (3, square.links[3])]
    assert square.arcs[square.hops((1, 0))[0]][0] is square.links[0]
    for route in ((0, 2), (2, 0)):
        with pytest.raises(TopologyError, match=f"^no link between {route[0]} and {route[1]}$"):
            square.hops(route)


def test_hops_maps_route_to_lanes(square):
    hops = square.hops((0, 1, 2))
    assert [(l.id, lane) for l, lane in map(square.arcs.__getitem__, hops)] == [
        (0, FORWARD), (1, FORWARD)]
    hops_rev = square.hops((2, 1, 0))
    assert [(l.id, lane) for l, lane in map(square.arcs.__getitem__, hops_rev)] == [
        (1, REVERSE), (0, REVERSE)]
    # candidates are resolved here, once: a bad route fails at build, not at a probe
    with pytest.raises(TopologyError):
        square.hops((0, 2))
    with pytest.raises(TypeError):  # a defect is not a blocked route
        square.hops((0, "x"))


def test_hops_repeat_equal_and_missing_link_raises_every_time(square):
    expected = {
        (0, 1): [(0, FORWARD)],
        (0, 1, 2): [(0, FORWARD), (1, FORWARD)],
        (2, 1, 0): [(1, REVERSE), (0, REVERSE)],
        (1, 0, 3): [(0, REVERSE), (3, REVERSE)],
    }
    for _ in range(2):
        for route, lanes in expected.items():
            hops = square.hops(list(route))
            assert isinstance(hops, tuple)
            assert [(l.id, lane) for l, lane in map(square.arcs.__getitem__, hops)] == lanes
            assert square.hops(route) == hops
        with pytest.raises(TopologyError):
            square.hops((0, 2))
        with pytest.raises(TopologyError):
            square.hops((0, 1, 3))


def test_snapshot_reflects_mutation(square):
    before = square.occupancy_snapshot()
    square.links[2].occupy(REVERSE, 5)
    assert square.occupancy_snapshot() != before
    square.links[2].release(REVERSE, 5)
    assert square.occupancy_snapshot() == before


def test_duplicate_link_ids_rejected():
    links = [Link(0, 0, 1, 0.01, 8), Link(0, 1, 2, 0.01, 8)]
    with pytest.raises(TopologyError):
        Topology(3, links)


@pytest.mark.parametrize("ids", [(1, 0), (5, 7)])
def test_link_ids_must_be_list_positions(ids):
    # a failure of link i takes down links[i], so any other numbering is refused
    links = [Link(ids[0], 0, 1, 0.01, 8), Link(ids[1], 1, 2, 0.01, 8)]
    with pytest.raises(TopologyError, match="ids must be 0..n-1"):
        Topology(3, links)


# -- properties ---------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 7)), max_size=40))
def test_occupancy_conserved_under_random_churn(ops):
    """Each lane's free count is 8 minus the channels held in it, whatever the sequence."""
    link = Link(0, 0, 1, 0.01, 8)
    held = set()
    for lane, w in ops:
        if (lane, w) in held:
            link.release(lane, w)
            held.remove((lane, w))
        else:
            link.occupy(lane, w)
            held.add((lane, w))
        for probe_lane in (0, 1):
            in_lane = sum(1 for lane_held, _ in held if lane_held == probe_lane)
            assert link.free_mask(probe_lane).bit_count() == 8 - in_lane
    for lane, w in held:
        link.release(lane, w)
    assert link.free_mask(0).bit_count() == link.free_mask(1).bit_count() == 8


@given(st.integers(0, 8), st.integers(0, 8), st.sampled_from([LT, 0.5]))
def test_load_index_matches_free_fraction(k_fwd, k_rev, lt):
    link = Link(0, 0, 1, 0.01, 8)
    for w in range(k_fwd):
        link.occupy(FORWARD, w)
    for w in range(k_rev):
        link.occupy(REVERSE, w)
    assert link.free_mask(FORWARD).bit_count() == 8 - k_fwd
    assert link.free_mask(REVERSE).bit_count() == 8 - k_rev
    topo = Topology(2, [link])
    assert priced_arc(topo, link, FORWARD, lt) == link_cost((8 - k_fwd) / 8, lt)
    assert priced_arc(topo, link, REVERSE, lt) == link_cost((8 - k_rev) / 8, lt)
