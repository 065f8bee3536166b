import itertools
import math
import random
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    cold_start,
    first_fit,
    free_wavelengths,
    held_channels,
    loaded_edge_cost,
    min_cost_route,
    path_cost,
    priced_arc,
    random_topology,
    simple_paths,
    unit_edge_cost,
)
from wdmsim import routing
from wdmsim.engine import SimConfig
from wdmsim.metrics import sample_utilization
from wdmsim.probing import NACK, PACK, probe_outcome
from wdmsim.routing import (
    CONVERSION_MODES,
    FULL_CONVERSION,
    NO_CONVERSION,
    assign_wavelength,
    establish_baseline,
    establish_lightpath,
    establish_primary,
    least_cost_path,
    link_cost,
    min_hop_path,
    release_lightpath,
)
from wdmsim.topology import FORWARD, REVERSE, Link, Topology, default_topology, parse_topology

LT = SimConfig().load_threshold


def occupy_forward(link, count):
    for w in range(count):
        link.occupy(FORWARD, w)


# -- threshold cost -----------------------------------------------------------

def test_link_cost_branches():
    p = 0.3
    assert link_cost(1.0, p) == 0.0
    assert link_cost(0.5, p) == 0.5
    assert link_cost(0.31, p) == pytest.approx(0.69)
    assert link_cost(0.3, p) == 1.3  # boundary belongs to the loaded branch
    assert link_cost(0.1, p) == 1.1
    assert link_cost(0.0, p) == math.inf


def test_link_cost_discontinuity_at_threshold():
    p = 0.5
    just_above = link_cost(0.5 + 1e-9, p)
    at = link_cost(0.5, p)
    assert just_above < 0.5 < at  # lightly-loaded side is always cheaper


@given(st.floats(0.0, 1.0, allow_nan=False), st.floats(0.01, 0.99))
def test_link_cost_total_and_bounded(li, lt):
    c = link_cost(li, lt)
    if li == 0.0:
        assert c == math.inf
    elif li <= lt:
        assert c == 1.0 + li
    else:
        assert c == 1.0 - li


@given(st.integers(1, 16), st.floats(0.01, 0.99))
@example(8, LT)
def test_priced_arc_is_link_cost(w, drawn_lt):
    # every free fraction of w is an LT too, where the formula jumps (0.5 of 8 free)
    lts = [drawn_lt] + [f / w for f in range(1, w)]
    link = Link(0, 0, 1, 0.01, w)
    topo = Topology(2, [link])
    for free in range(w, -1, -1):
        costs = [priced_arc(topo, link, FORWARD, lt) for lt in lts]
        assert costs == [link_cost(free / w, lt) for lt in lts]
        if free:
            link.occupy(FORWARD, free - 1)
    assert costs == [math.inf] * len(lts)
    link.up = False  # a down lane offers no channel, though nothing holds its REVERSE lane
    assert [priced_arc(topo, link, REVERSE, lt) for lt in lts] == [math.inf] * len(lts)


def test_loaded_cost_uses_travel_lane(square):
    link = square.links[0]
    occupy_forward(link, 8)  # saturate 0 -> 1 only
    assert priced_arc(square, link, FORWARD, LT) == math.inf
    assert priced_arc(square, link, REVERSE, LT) == 0.0  # reverse lane untouched, LI = 1
    assert least_cost_path(square, 0, 1, LT) == ((0, 3, 2, 1), 0.0)
    assert least_cost_path(square, 1, 0, LT) == ((1, 0), 0.0)


def test_unit_cost_only_cares_about_state(square):
    link = square.links[0]
    occupy_forward(link, 8)
    assert unit_edge_cost(link, FORWARD) == 1.0
    link.up = False
    assert unit_edge_cost(link, FORWARD) == math.inf


# -- shortest path ------------------------------------------------------------

def test_lexicographic_tie_break(square):
    # [0,3,2] has as many hops and, idle, costs the same; smaller sequence wins
    assert min_hop_path(square, 0, 2) == (0, 1, 2)
    assert least_cost_path(square, 0, 2, LT) == ((0, 1, 2), 0.0)


def occupy_towards(topo, u, v, count):
    """Occupy ``count`` channels on the u->v travel lane."""
    [(link, lane)] = map(topo.arcs.__getitem__, topo.hops((u, v)))
    for w in range(count):
        link.occupy(lane, w)


def test_fewer_hops_wins_on_cost_tie():
    # direct 0-1 at LI=0.25 costs 1.25; detour 0-2-1 at LI=0.375/hop costs
    # 0.625 + 0.625 = 1.25 exactly (dyadic), so hop count must decide
    topo = parse_topology("nodes 3\nlink 0 1 10 8\nlink 0 2 10 8\nlink 1 2 10 8\n")
    occupy_towards(topo, 0, 1, 6)
    occupy_towards(topo, 0, 2, 5)
    occupy_towards(topo, 2, 1, 5)
    route, cost = least_cost_path(topo, 0, 1, LT)
    assert route == (0, 1)
    assert cost == 1.25


def test_congestion_forces_detour(square):
    occupy_forward(square.links[0], 8)  # 0->1 saturated
    route, _ = least_cost_path(square, 0, 2, LT)
    assert route == (0, 3, 2)


def test_banned_links_and_nodes(square):
    # Yen's spur searches are the bans' only callers
    route = min_hop_path
    assert route(square, 0, 2, banned_links=frozenset({0})) == (0, 3, 2)
    assert route(square, 0, 2, banned_nodes=frozenset({1})) == (0, 3, 2)
    assert route(square, 0, 2, banned_nodes=frozenset({1, 3})) is None
    # the source is never entered again, so banning it bans nothing
    assert route(square, 0, 2, banned_nodes=frozenset({0})) == (0, 1, 2)
    assert route(square, 0, 2, banned_nodes=frozenset({2})) is None


def test_no_route_when_all_down(square):
    for link in square.links:
        link.up = False
    assert least_cost_path(square, 0, 2, LT) is None
    assert min_hop_path(square, 0, 2) == (0, 1, 2)  # reads no link state


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_least_cost_matches_exhaustive_search(seed):
    rng = random.Random(seed)
    topo = random_topology(rng)
    src = rng.randrange(topo.num_nodes)
    dst = (src + 1 + rng.randrange(topo.num_nodes - 1)) % topo.num_nodes
    for lt in (LT, rng.uniform(0.01, 0.99)):
        got = least_cost_path(topo, src, dst, lt)
        want = min_cost_route(topo, src, dst, loaded_edge_cost(lt))
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[1] == want[1]  # identical accumulation order: exact
            assert got[0] == want[0]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.6))
def test_in_place_mask_readers_match_free_mask_oracles(seed, p_down):
    # first_fit, probe_outcome, least_cost_path and sample_utilization read each lane's mask
    # in place behind one up test; the oracles read lanes only through Link.free_mask
    rng = random.Random(seed)
    topo = random_topology(rng)
    for link in topo.links:
        link.up = rng.random() >= p_down
    held = held_channels(topo)
    src = rng.randrange(topo.num_nodes)
    dst = (src + 1 + rng.randrange(topo.num_nodes - 1)) % topo.num_nodes
    for route in itertools.islice(simple_paths(topo, src, dst), 8):
        hops = topo.hops(route)
        for mode in CONVERSION_MODES:
            want = first_fit(topo, route, mode, held)
            assert routing.first_fit(topo, hops, mode) == want
            assert probe_outcome(topo, hops, mode) == (NACK if want is None else PACK)
    for lt in (LT, rng.uniform(0.01, 0.99)):
        assert least_cost_path(topo, src, dst, lt) == min_cost_route(
            topo, src, dst, loaded_edge_cost(lt))
    channels = 2 * sum(link.total_channels for link in topo.links if link.up)
    busy = sum(topo.links[link_id].up for link_id, _, _ in held)
    assert sample_utilization(topo) == (busy / channels if channels else 0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_min_hop_path_matches_exhaustive_search(seed):
    # random bans leave some pairs unreachable; the up flags random_topology
    # sets must not matter
    rng = random.Random(seed)
    topo = random_topology(rng)
    for _ in range(6):
        src = rng.randrange(topo.num_nodes)
        dst = (src + 1 + rng.randrange(topo.num_nodes - 1)) % topo.num_nodes
        banned_links = frozenset(link.id for link in topo.links if rng.random() < 0.25)
        banned_nodes = frozenset(n for n in range(topo.num_nodes) if rng.random() < 0.2)
        want = min_cost_route(topo, src, dst, lambda link, lane: 1.0, banned_links, banned_nodes)
        assert min_hop_path(topo, src, dst, banned_links, banned_nodes) == (want and want[0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_returned_route_is_simple_and_priced_correctly(seed):
    rng = random.Random(seed)
    topo = random_topology(rng)
    src, dst = 0, topo.num_nodes - 1
    found = least_cost_path(topo, src, dst, LT)
    if found is None:
        return
    route, cost = found
    assert len(set(route)) == len(route)
    assert route[0] == src and route[-1] == dst
    assert cost == path_cost(topo, route, loaded_edge_cost(LT))


# -- wavelength assignment ----------------------------------------------------

def test_continuity_picks_least_common_index(square):
    # hop 0-1 free {2,5}, hop 1-2 free {1,5}: only 5 is common
    for w in (0, 1, 3, 4, 6, 7):
        square.links[0].occupy(FORWARD, w)
    for w in (0, 2, 3, 4, 6, 7):
        square.links[1].occupy(FORWARD, w)
    assert assign_wavelength(square, [0, 1, 2], NO_CONVERSION) == [5, 5]


def test_disjoint_free_sets_need_conversion():
    topo = parse_topology("nodes 3\nlink 0 1 10 2\nlink 1 2 10 2\n")
    topo.links[0].occupy(FORWARD, 0)  # 0-1 free {1}
    topo.links[1].occupy(FORWARD, 1)  # 1-2 free {0}
    assert assign_wavelength(topo, [0, 1, 2], NO_CONVERSION) is None
    assert assign_wavelength(topo, [0, 1, 2], FULL_CONVERSION) == [1, 0]


def test_full_conversion_first_fit_per_hop(square):
    square.links[0].occupy(FORWARD, 0)
    assert assign_wavelength(square, [0, 1, 2], FULL_CONVERSION) == [1, 0]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 63), st.integers(0, 1), st.integers(0, 3)), max_size=60),
)
def test_free_mask_tracks_held_set_and_first_fit_oracle(seed, ops):
    """After any occupy/release sequence the mask-based reads equal a held-set model's."""
    topo = random_topology(random.Random(seed))
    for link in topo.links:
        link.up = True
    held = held_channels(topo)  # the random starting occupancy
    for i, lane, w in ops:
        link = topo.links[i % len(topo.links)]
        w %= link.total_channels
        channel = (link.id, lane, w)
        if channel in held:
            link.release(lane, w)
            held.remove(channel)
        else:
            link.occupy(lane, w)
            held.add(channel)
        free = free_wavelengths(link, lane, held)
        assert link.free_mask(lane) == sum(1 << w for w in free)
        assert link.free_mask(lane).bit_count() == len(free)
        li = len(free) / link.total_channels
        assert priced_arc(topo, link, lane, LT) == link_cost(li, LT)
    for src in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            if src == dst:
                continue
            for route in itertools.islice(simple_paths(topo, src, dst), 4):
                for mode in (NO_CONVERSION, FULL_CONVERSION):
                    assert assign_wavelength(topo, route, mode) == first_fit(topo, route, mode, held)


def test_assignment_rejects_down_link(square):
    # a down link offers no free wavelength, so nothing fits in either mode
    square.links[0].up = False
    for mode in (NO_CONVERSION, FULL_CONVERSION):
        assert assign_wavelength(square, [0, 1, 2], mode) is None


# -- establish / release ------------------------------------------------------

def test_establish_occupies_and_release_frees(square):
    before = square.occupancy_snapshot()
    lp = establish_lightpath(square, square.hops((0, 1, 2)), NO_CONVERSION, 0.024)
    assert lp.wavelengths == [0, 0]
    assert lp.hops.link_ids == frozenset({0, 1})
    assert lp.path_delay == pytest.approx(0.020)
    assert [square.links[i].free_mask(FORWARD) for i in (0, 1)] == [0b11111110] * 2
    assert square.links[0].free_mask(REVERSE).bit_count() == 8
    assert square.occupancy_snapshot() != before
    release_lightpath(lp)
    assert square.occupancy_snapshot() == before


def test_second_release_is_a_no_op(square):
    lp = establish_lightpath(square, square.hops((0, 1, 2)), NO_CONVERSION, 0.024)
    release_lightpath(lp)
    # reuses wavelength 0
    other = establish_lightpath(square, square.hops((0, 1)), NO_CONVERSION, 0.024)
    held = square.occupancy_snapshot()
    release_lightpath(lp)  # must neither raise nor free the other's channel
    assert square.occupancy_snapshot() == held
    assert square.links[0].free_mask(FORWARD) == 0b11111110
    release_lightpath(other)
    assert square.links[0].free_mask(FORWARD).bit_count() == 8


def test_establish_returns_none_leaving_state_clean():
    topo = parse_topology("nodes 3\nlink 0 1 10 1\nlink 1 2 10 1\n")
    topo.links[0].occupy(FORWARD, 0)
    before = topo.occupancy_snapshot()
    assert establish_lightpath(topo, topo.hops((0, 1, 2)), NO_CONVERSION, 0.024) is None
    assert topo.occupancy_snapshot() == before


@pytest.mark.parametrize("mode", [NO_CONVERSION, FULL_CONVERSION])
def test_establish_over_down_hop_returns_none_leaving_state_clean(square, mode):
    square.links[2].occupy(REVERSE, 3)  # held channels of the down link stay held
    square.links[1].up = False
    before = square.occupancy_snapshot()
    assert establish_lightpath(square, square.hops((0, 1, 2, 3)), mode, 0.024) is None
    assert square.occupancy_snapshot() == before


def test_setup_delay_charges_conversions():
    topo = parse_topology("nodes 3\nlink 0 1 10 2\nlink 1 2 10 2\n")
    topo.links[0].occupy(FORWARD, 0)
    topo.links[1].occupy(FORWARD, 1)
    lp = establish_lightpath(topo, topo.hops((0, 1, 2)), FULL_CONVERSION, 0.024)
    assert lp.wavelengths == [1, 0]
    assert lp.wavelength_changes() == 1
    assert lp.path_delay == pytest.approx(0.010 + 0.010 + 0.024)


@pytest.mark.parametrize("mode", [NO_CONVERSION, FULL_CONVERSION])
def test_a_lightpath_resolves_its_route_once(monkeypatch, mode):
    # delays that do not sum exactly, and a busy wavelength 0 on the first
    # hop, so full conversion charges one change
    topo = parse_topology("nodes 4\nlink 0 1 1.1 2\nlink 1 2 2.2 2\nlink 2 3 3.3 2\n")
    topo.links[0].occupy(FORWARD, 0)
    resolve = Topology.hops
    calls = []
    monkeypatch.setattr(Topology, "hops",
                        lambda self, route: calls.append(tuple(route)) or resolve(self, route))
    lp = establish_lightpath(topo, topo.hops([0, 1, 2, 3]), mode, 0.024)
    assert lp.wavelength_changes() == (1 if mode == FULL_CONVERSION else 0)
    # propagation is the left-to-right sum of the link delays, as an exact float
    assert lp.path_delay == sum(link.delay for link in topo.links) + 0.024 * lp.wavelength_changes()
    release_lightpath(lp)
    assert calls == [(0, 1, 2, 3)]


@pytest.mark.parametrize("router", [establish_baseline, partial(establish_primary, lt=LT)],
                         ids=["baseline", "primary"])
def test_a_router_resolves_its_route_once_per_setup(monkeypatch, router):
    # the router hands the record it resolved to the setup, which resolves nothing
    topo = default_topology()
    resolve = Topology.hops
    calls = []
    monkeypatch.setattr(Topology, "hops",
                        lambda self, route: calls.append(tuple(route)) or resolve(self, route))
    pairs = [(s, d) for s in range(8) for d in range(8) if s != d]
    for src, dst in pairs:
        lp = router(topo, src, dst).lightpath
        assert (lp.hops.route[0], lp.hops.route[-1]) == (src, dst)
        release_lightpath(lp)
    assert len(calls) == len(pairs)


def test_establish_primary_end_to_end(square):
    _, cost = least_cost_path(square, 0, 2, LT)
    result = establish_primary(square, 0, 2, LT)
    assert not result.blocked
    assert result.lightpath.hops.route == (0, 1, 2)
    assert cost == 0.0  # both hops idle: LI = 1, cost 0
    assert result.lightpath.path_delay == pytest.approx(0.020)


def test_establish_primary_blocks_when_saturated():
    topo = parse_topology("nodes 2\nlink 0 1 10 1\n")
    topo.links[0].occupy(FORWARD, 0)
    before = topo.occupancy_snapshot()
    result = establish_primary(topo, 0, 1, LT)
    assert result.blocked
    assert topo.occupancy_snapshot() == before


def test_baseline_prefers_hops_over_load(square):
    # 0->1 nearly saturated: threshold router detours, baseline stays direct
    occupy_forward(square.links[0], 7)
    direct = establish_baseline(square, 0, 1)
    assert direct.lightpath.hops.route == (0, 1)
    release_lightpath(direct.lightpath)
    loaded = establish_primary(square, 0, 1, LT)
    assert loaded.lightpath.hops.route == (0, 3, 2, 1)


def test_baseline_routes_around_down_link(square):
    square.links[0].up = False
    result = establish_baseline(square, 0, 1)
    assert result.lightpath.hops.route == (0, 3, 2, 1)


# -- the baseline's memoised least-hop routes -----------------------------------

def idle(topology):
    """Free every channel, down links' too, so a route found is a route established."""
    for link, masks in zip(topology.links, topology.occupancy_snapshot()):
        for lane, free in enumerate(masks):
            for w in range(link.total_channels):
                if not free >> w & 1:
                    link.release(lane, w)
    return topology


def baseline_route_of(topology, src, dst):
    result = establish_baseline(topology, src, dst)
    if result.blocked:
        return None
    release_lightpath(result.lightpath)
    return result.lightpath.hops.route


def unit_cost_route(topology, src, dst):
    found = min_cost_route(topology, src, dst, unit_edge_cost)
    return None if found is None else found[0]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_baseline_route_is_unit_cost_dijkstras_as_links_fail_and_heal(seed):
    # up flags flip between calls on one topology, so a memoised route served
    # with a down hop, or one kept after a link it avoided came back up,
    # shows as a wrong answer
    rng = random.Random(seed)
    topo = idle(random_topology(rng))
    for _ in range(12):
        for link in topo.links:
            if rng.random() < 0.3:
                link.up = not link.up
        for _ in range(4):
            src = rng.randrange(topo.num_nodes)
            dst = (src + 1 + rng.randrange(topo.num_nodes - 1)) % topo.num_nodes
            assert baseline_route_of(topo, src, dst) == unit_cost_route(topo, src, dst)


def test_topologies_of_one_graph_get_their_own_down_links_routes():
    stock, other = default_topology(), default_topology(channels=2)
    assert stock.graph == other.graph
    stock.links[8].up = False  # 0-4
    other.links[0].up = other.links[1].up = False  # 0-1, 1-2
    pairs = [(s, d) for s in range(8) for d in range(8) if s != d]
    for src, dst in pairs + pairs:
        for topo in (stock, other):
            assert baseline_route_of(topo, src, dst) == unit_cost_route(topo, src, dst)
    assert baseline_route_of(stock, 0, 2) != baseline_route_of(other, 0, 2)


def test_a_repeated_baseline_demand_runs_no_route_search(monkeypatch):
    cold_start(monkeypatch)
    square = parse_topology("nodes 4\nlink 0 1 10 8\nlink 1 2 10 8\nlink 2 3 10 8\nlink 3 0 10 8\n")
    calls = []
    search = routing.min_hop_path
    monkeypatch.setattr(routing, "min_hop_path",
                        lambda *args, **kwargs: calls.append(args) or search(*args, **kwargs))
    square.links[0].up = False
    assert baseline_route_of(square, 0, 1) == (0, 3, 2, 1)
    assert len(calls) == 2  # the direct route, then the route avoiding its down link
    assert baseline_route_of(square, 0, 1) == (0, 3, 2, 1)
    square.links[0].up = True
    assert baseline_route_of(square, 0, 1) == (0, 1)
    assert len(calls) == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_establish_release_is_idempotent_on_occupancy(seed):
    rng = random.Random(seed)
    topo = random_topology(rng)
    before = topo.occupancy_snapshot()
    established = []
    for _ in range(5):
        src = rng.randrange(topo.num_nodes)
        dst = (src + 1 + rng.randrange(topo.num_nodes - 1)) % topo.num_nodes
        result = establish_primary(topo, src, dst, LT)
        if not result.blocked:
            established.append(result.lightpath)
    for lp in reversed(established):
        release_lightpath(lp)
    assert topo.occupancy_snapshot() == before
