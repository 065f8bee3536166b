import math
import operator
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    arc,
    cold_start,
    hops_of,
    k_best_disjoint,
    min_cost_route,
    random_topology,
    rank_by_feedback,
    unit_edge_cost,
    window_probes,
)
import wdmsim.engine
from wdmsim import routing
from wdmsim.engine import SimConfig, Simulation
from wdmsim.probing import (
    NACK,
    PACK,
    ConnectionProber,
    candidate_paths,
    k_shortest_hop_paths,
    probe_count,
    probe_outcome,
    reroute,
)
from wdmsim.routing import (
    CONVERSION_MODES,
    FULL_CONVERSION,
    Lightpath,
    assign_wavelength,
    baseline_route,
    establish_baseline,
    establish_lightpath,
    establish_primary,
    release_lightpath,
)
from wdmsim.topology import FORWARD, REVERSE, default_topology, parse_topology

LT = SimConfig().load_threshold

RING8 = "nodes 8\n" + "\n".join(
    f"link {i} {(i + 1) % 8} 10 8" for i in range(8)
) + "\n"


# -- candidate enumeration ----------------------------------------------------

def test_ring_complement_is_only_disjoint_candidate():
    topo = parse_topology(RING8)
    primary = establish_primary(topo, 0, 1, LT).lightpath
    assert primary.hops.route == (0, 1)
    cands = candidate_paths(topo, 0, 1, primary, k=2)
    assert [hops.route for hops in cands] == [(0, 7, 6, 5, 4, 3, 2, 1)]


def test_single_disjoint_route(two_route):
    primary = establish_primary(two_route, 0, 1, LT).lightpath
    assert primary.hops.route == (0, 2, 1)
    cands = candidate_paths(two_route, 0, 1, primary, k=3)
    assert [hops.route for hops in cands] == [(0, 3, 1)]


def test_k_shortest_ordering(mesh8):
    paths = k_shortest_hop_paths(mesh8, 0, 2, k=4)
    keys = [(len(p), p) for p in paths]
    assert keys == sorted(keys)
    assert paths[0] == (0, 1, 2)
    for p in paths:
        assert len(set(p)) == len(p)


def test_k_shortest_respects_bans(square):
    assert k_shortest_hop_paths(square, 0, 2, k=3) == [(0, 1, 2), (0, 3, 2)]
    assert k_shortest_hop_paths(square, 0, 2, k=3, banned_links=frozenset({0})) == [(0, 3, 2)]
    assert k_shortest_hop_paths(square, 0, 2, k=3,
                                banned_links=frozenset({0, 3})) == []


def test_candidates_ignore_link_state(square):
    # availability is the prober's business: a down link still enumerates
    square.links[3].up = False
    assert k_shortest_hop_paths(square, 0, 2, k=3) == [(0, 1, 2), (0, 3, 2)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_k_shortest_matches_exhaustive_k_best(seed, k):
    rng = random.Random(seed)
    topo = random_topology(rng)
    src = rng.randrange(topo.num_nodes)
    dst = (src + 1 + rng.randrange(topo.num_nodes - 1)) % topo.num_nodes
    banned = frozenset(
        link.id for link in topo.links if rng.random() < 0.25
    )
    got = k_shortest_hop_paths(topo, src, dst, k, banned)
    want = k_best_disjoint(topo, src, dst, banned, k)
    assert got == want


# -- the per-graph route memo ---------------------------------------------------

@pytest.fixture
def yen_calls(monkeypatch):
    """An empty route memo and route tables, and the arguments of every uncached Yen search."""
    calls = []
    search = routing._yen
    cold_start(monkeypatch)
    monkeypatch.setattr(routing, "_yen", lambda *args: calls.append(args) or search(*args))
    return calls


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_memoised_routes_equal_uncached_yen(seed):
    # several queries per graph, so a key missing k, the endpoints or the
    # bans shows as a wrong hit; successive examples change the graph
    rng = random.Random(seed)
    topo = random_topology(rng)
    for _ in range(6):
        src = rng.randrange(topo.num_nodes)
        dst = (src + 1 + rng.randrange(topo.num_nodes - 1)) % topo.num_nodes
        k = rng.randint(1, 4)
        banned = frozenset(link.id for link in topo.links if rng.random() < 0.25)
        for bans in (frozenset(), banned):
            assert k_shortest_hop_paths(topo, src, dst, k, bans) == \
                routing._yen(topo, src, dst, k, bans)


def test_topologies_with_one_graph_share_routes(yen_calls):
    stock = default_topology()
    other = default_topology(channels=2, delay_ms=3.0)
    other.links[4].up = False
    other.links[0].occupy(FORWARD, 1)
    assert other.graph == stock.graph
    queries = [(0, 2, 3, frozenset()), (0, 2, 3, frozenset({0, 1})), (5, 3, 2, frozenset())]
    first = [k_shortest_hop_paths(stock, *q) for q in queries]
    assert len(yen_calls) == len(queries)
    assert [k_shortest_hop_paths(other, *q) for q in queries] == first
    assert len(yen_calls) == len(queries)  # every answer came from the memo


# the 4-node ring of the ``square`` fixture with its link 3-0 moved to 1-3
MOVED = "nodes 4\nlink 0 1 10 8\nlink 1 2 10 8\nlink 2 3 10 8\nlink 1 3 10 8\n"


def test_a_baseline_route_is_yens_first_route_from_the_same_memo(yen_calls):
    mesh8 = default_topology()  # built on the emptied tables
    pairs = [(s, d) for s in range(8) for d in range(8) if s != d]
    routes = [baseline_route(mesh8, s, d) for s, d in pairs]
    assert len(yen_calls) == len(pairs)
    assert [k_shortest_hop_paths(mesh8, s, d, 1) for s, d in pairs] == [[r.route] for r in routes]
    assert all(r is mesh8.hops(r.route) for r in routes)  # the resolved record, memoised
    assert len(yen_calls) == len(pairs)  # every answer came from the baseline's searches


def test_a_moved_link_never_gets_the_other_graphs_routes(square, yen_calls):
    moved = parse_topology(MOVED)
    assert moved.num_nodes == square.num_nodes and moved.graph != square.graph
    assert k_shortest_hop_paths(square, 0, 2, 3) == [(0, 1, 2), (0, 3, 2)]
    assert k_shortest_hop_paths(moved, 0, 2, 3) == [(0, 1, 2), (0, 1, 3, 2)]
    assert k_shortest_hop_paths(square, 0, 2, 3) == [(0, 1, 2), (0, 3, 2)]
    assert len(yen_calls) == 3  # each change of graph replaces the memo


def test_threads_switching_graphs_get_their_own_graphs_routes(square):
    # every call on the other graph replaces the memo under the other threads
    queries = [(topo, src, dst, k) for topo in (square, parse_topology(MOVED))
               for src in range(4) for dst in range(4) if src != dst for k in (1, 3)]
    want = [routing._yen(*query, frozenset()) for query in queries]
    wrong = []

    def ask(offset):
        for i in range(400):
            j = (7 * i + offset) % len(queries)
            if k_shortest_hop_paths(*queries[j]) != want[j]:
                wrong.append(queries[j])

    threads = [threading.Thread(target=ask, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_threads_mixing_baseline_and_yen_lookups_get_uncached_answers():
    # the baseline reads Yen's first route from the same memo; two topologies
    # of one graph differ in their down links, and the other graph keeps
    # replacing the memo
    stock, same_graph, moved = default_topology(), default_topology(), parse_topology(MOVED)
    stock.links[8].up = False
    same_graph.links[0].up = same_graph.links[1].up = False
    moved.links[3].up = False
    queries = []
    for topo in (stock, same_graph, moved):
        pairs = [(s, d) for s in range(topo.num_nodes) for d in range(topo.num_nodes) if s != d]
        for src, dst in pairs:
            if topo is not same_graph:
                for k in (1, 3):
                    want = routing._yen(topo, src, dst, k, frozenset())
                    queries.append((k_shortest_hop_paths, (topo, src, dst, k), want))
            found = min_cost_route(topo, src, dst, unit_edge_cost)
            queries.append((baseline_route, (topo, src, dst), found and topo.hops(found[0])))
    random.Random(0).shuffle(queries)  # so each thread keeps switching graphs
    wrong = []

    def ask(offset):
        for i in range(600):
            ask_for, args, want = queries[(7 * i + offset) % len(queries)]
            if ask_for(*args) != want:
                wrong.append(args)

    threads = [threading.Thread(target=ask, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@pytest.mark.parametrize("k", [0, -1])
def test_no_route_is_asked_for_below_one(mesh8, k):
    assert k_shortest_hop_paths(mesh8, 0, 2, k) == []


# -- each topology's table of resolved routes -----------------------------------

def served_hops(topology, src, dst):
    """The baseline's route and the candidates avoiding it, as ``topology`` serves them."""
    route = baseline_route(topology, src, dst)
    return [route, *candidate_paths(topology, src, dst, Lightpath(topology.arcs, route, []), 3)]


def test_a_repeated_lookup_returns_the_identical_hops(mesh8):
    pairs = [(s, d) for s in range(8) for d in range(8) if s != d]
    first = [served_hops(mesh8, s, d) for s, d in pairs]
    again = [served_hops(mesh8, s, d) for s, d in pairs]
    assert all(len(hops) > 1 for hops in first)
    assert all(a is b for served, repeat in zip(first, again)
               for a, b in zip(served, repeat, strict=True))


def test_topologies_of_one_graph_share_records_never_channels(monkeypatch):
    cold_start(monkeypatch)
    stock, other = default_topology(), default_topology(channels=2)
    assert stock.graph == other.graph
    for src, dst in [(s, d) for s in range(8) for d in range(8) if s != d]:
        served = [served_hops(topo, src, dst) for topo in (stock, other)]
        assert all(a is b for a, b in zip(*served, strict=True))  # one record for both
        assert all(type(arc) is int for hops in served[0] for arc in hops)  # naming no Link
    hops = stock.hops((0, 1, 2))
    assert hops is other.hops((0, 1, 2))
    other.links[0].occupy(FORWARD, 0)
    assert routing.first_fit(other, hops, "none") == [1, 1]
    other.links[0].occupy(FORWARD, 1)
    assert (probe_outcome(other, hops), routing.first_fit(other, hops, "none")) == (NACK, None)
    assert (probe_outcome(stock, hops), routing.first_fit(stock, hops, "none")) == (PACK, [0, 0])
    # a setup and a release on one topology leave the other's masks as they were
    for topo, bystander in ((stock, other), (other, stock)):
        before = bystander.occupancy_snapshot()
        held = topo.occupancy_snapshot()
        lp = establish_lightpath(topo, stock.hops((2, 1, 0)), "none", 0.024)
        assert topo.occupancy_snapshot() != held
        assert bystander.occupancy_snapshot() == before
        release_lightpath(lp)
        assert (topo.occupancy_snapshot(), bystander.occupancy_snapshot()) == (held, before)


def test_topologies_of_one_structure_and_other_delays_keep_their_own_records(monkeypatch):
    cold_start(monkeypatch)
    # built in turn, then asked in turn, so one table for the structure alone would
    # hand the later topology the earlier one's delays
    fast, slow = default_topology(delay_ms=10.0), default_topology(delay_ms=30.0)
    assert fast.graph == slow.graph
    trips = {}
    for topo in (fast, slow, fast, slow):
        primary = establish_baseline(topo, 0, 4).lightpath
        cands = candidate_paths(topo, 0, 4, primary, 3)
        release_lightpath(primary)
        prober = ConnectionProber(cands, 1, 0.5, math.inf)
        for j in range(len(cands)):
            prober.sent(j, PACK, 0.0)
        trips[topo] = [land for land, _ in prober.landings]
        assert trips[topo] == pytest.approx([2.0 * len(hops) * topo.links[0].delay
                                             for hops in cands])
    assert trips[slow] == pytest.approx([3.0 * trip for trip in trips[fast]])


def test_slot_offsets_are_worked_out_once_per_count_and_interval(two_route):
    primary = establish_baseline(two_route, 0, 1).lightpath
    cands = candidate_paths(two_route, 0, 1, primary, 2)
    probers = [ConnectionProber(cands, count, interval, end)
               for count, interval, end in ((3, 0.5, 9.0), (3, 0.5, 4.0), (4, 0.5, 9.0))]
    assert probers[0]._offsets is probers[1]._offsets
    assert probers[0]._offsets == (0.125, 0.25, 0.375) and probers[2]._offsets[0] == 0.1


def test_a_returned_route_list_is_the_callers_own(square):
    routes = k_shortest_hop_paths(square, 0, 2, 3)
    routes.reverse()
    routes.append((0, 2))
    assert k_shortest_hop_paths(square, 0, 2, 3) == [(0, 1, 2), (0, 3, 2)]


def test_candidate_rtts_are_twice_the_hop_delays():
    topo = parse_topology(
        "nodes 5\nlink 0 1 10 8\nlink 1 4 20 8\nlink 0 2 5 8\nlink 2 4 40 8\n"
        "link 0 3 7 8\nlink 3 4 3 8\nlink 2 3 1 8\n"
    )
    primary = establish_baseline(topo, 0, 4).lightpath
    cands = candidate_paths(topo, 0, 4, primary, k=3)
    routes = k_shortest_hop_paths(topo, 0, 4, 3, primary.hops.link_ids)
    assert len(cands) == len(routes) == 3
    delays = [sum(arc(topo, u, v)[0].delay for u, v in zip(r, r[1:])) for r in routes]
    for j, route in enumerate(routes):
        assert cands[j] is topo.hops(route)  # the memoised record, not a copy
        assert (cands[j].route, cands[j].delay) == (route, delays[j])
    assert len(set(delays)) == 3  # a misaligned round trip would show
    prober = ConnectionProber(cands, 1, 0.5, math.inf)
    for j in range(3):
        prober.sent(j, PACK, 0.0)
    assert [land for land, _ in prober.landings] == [2.0 * delay for delay in delays]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_candidates_share_no_link_with_primary(seed):
    rng = random.Random(seed)
    topo = random_topology(rng)
    src = rng.randrange(topo.num_nodes)
    dst = (src + 1 + rng.randrange(topo.num_nodes - 1)) % topo.num_nodes
    result = establish_primary(topo, src, dst, LT)
    if result.blocked:
        return
    primary = result.lightpath
    cands = candidate_paths(topo, src, dst, primary, k=3)
    for hops in cands:
        used = {topo.arcs[arc][0].id for arc in hops}
        assert not (used & primary.hops.link_ids)


# -- probe count and windows -------------------------------------------------

def make_prober(paths=((0, 1, 9), (0, 2, 9)), probes=4, interval=0.5, delays=None):
    """A prober over ``paths``, whose answers take twice each path's delay (0 by default)."""
    delays = (0.0,) * len(paths) if delays is None else delays
    cands = tuple(hops_of(path, delay) for path, delay in zip(paths, delays))
    return ConnectionProber(cands, probes, interval, math.inf)


def ranked_routes(prober):
    """Close the open window; the ranked candidates' routes, each checked to be the
    candidate's own record."""
    ranked = prober.close_and_rank()
    assert sorted(map(id, ranked)) == sorted(map(id, prober.candidates))
    return [hops.route for hops in ranked]


def send_window(prober, now, outcome_of):
    """Open a window and send each of its probes; ``outcome_of(path_index, slot)`` answers."""
    for t, j, slot in window_probes(prober, now):
        prober.sent(j, outcome_of(j, slot), t)


def test_effective_count_adapts_to_load():
    assert probe_count(10, 1.0, 0.0) == 10
    assert probe_count(10, 1.0, 1.0) == 5
    assert probe_count(10, 1.0, 9.0) == 1
    assert probe_count(10, 1.0, 1e9) == 1  # floor at one probe
    assert probe_count(10, 0.0, 1e9) == 10


def test_simulation_derives_probe_count_from_aggregate_rate():
    config = SimConfig(probes_per_interval=10, adaptive_scale=0.5, arrival_rate=0.5,
                       session_traffics=4)
    assert Simulation(config).probe_count == 5  # floor(10 / (1 + 0.5 * 2))


def test_a_window_spaces_its_sends_evenly_and_tallies_each_answer_once():
    prober = make_prober(paths=[(0, 1, 9)], probes=4)
    t, sends = prober.open_windows(2.0), []
    for slot in range(prober.count):  # each send names the time of the next one
        sends.append((t, 0, slot))
        t = prober.sent(0, NACK if slot else PACK, t)
    assert [t for t, _, _ in sends] == pytest.approx([2.1, 2.2, 2.3, 2.4])
    assert sends == [(pytest.approx(t), j, slot) for t, j, slot in window_probes(
        make_prober(paths=[(0, 1, 9)], probes=4), 2.0)]
    # the last slot names the next window's first send: its close at 2.5 plus one spacing
    assert t == pytest.approx(2.6)
    # every sent probe's answer is tallied once, in the window it was sent in
    assert prober.landed(2.5) == (1, 3)
    assert prober.estimates() == [3 / 4]


@pytest.mark.parametrize("interval", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("count", range(1, 13))
def test_sends_follow_the_slot_chain_over_many_windows(count, interval):
    # slot s of the window opened at o goes out at o + offsets[s]; the next window opens
    # at o + interval, so with count 1 every send wraps into the next window
    delays = (0.03, 0.11)
    prober = make_prober(probes=count, interval=interval, delays=delays)
    offsets = [(s + 1) * interval / (count + 1) for s in range(count)]
    opened, t = 0.0, prober.open_windows(0.0)
    for w in range(40):
        close, tallies = opened + interval, [[0, 0], [0, 0]]  # (PACKs, NACKs) per candidate
        for s in range(count):
            assert t == opened + offsets[s]
            outcomes = [NACK if (w + s + j) % 3 == 0 else PACK for j in (0, 1)]
            sends = [prober.sent(j, outcome, t) for j, outcome in enumerate(outcomes)]
            for j, outcome in enumerate(outcomes):
                if t + 2.0 * delays[j] < close:
                    tallies[j][outcome == NACK] += 1
            assert sends[0] == sends[1]
            t = sends[0]
        # the window stays open until the next one's first send, so its tallies are whole
        assert [list(pair) for pair in zip(prober._acks, prober._nacks)] == tallies
        opened = close
    assert t == opened + offsets[0]


def test_answers_land_one_round_trip_after_the_send():
    prober = make_prober(probes=1, delays=(0.125, 0.25))
    assert prober.open_windows(0.0) == 0.25  # every candidate's first send
    # one slot a window: the next send is the next window's, 0.25 s after its 0.5 s open
    assert prober.sent(0, PACK, 0.25) == 0.75
    assert prober.sent(1, NACK, 0.25) == 0.75
    assert prober.landed(0.5) == (0, 0)  # landing at 0.5 is not before 0.5
    assert prober.landed(0.75) == (1, 0)
    assert prober.landed(0.76) == (1, 1)
    assert prober.landed(10.0) == (1, 1)  # reading the landings consumes none
    # both land at or after the window's close at 0.5, so neither moves its estimate
    assert prober.estimates() == [1.0, 1.0]


def test_feedback_tallies_the_open_window():
    prober = make_prober(probes=3)
    prober.open_windows(0.0)
    prober.feedback(0, PACK)
    prober.feedback(0, NACK)
    prober.feedback(1, NACK)
    assert prober.estimates() == [0.5, 1.0]
    prober.close_and_rank()
    prober.open_windows(0.5)
    assert prober.estimates() == [1.0, 1.0]  # the next window starts from no evidence


def test_estimate_is_the_nacked_fraction_and_one_without_answers():
    prober = make_prober(paths=[(0, 1, 9)], probes=10)
    send_window(prober, 0.0, lambda j, slot: PACK if slot < 7 else NACK)
    assert prober.estimates() == [3 / 10]
    assert make_prober(paths=[(0, 1, 9)]).estimates() == [1.0]


# -- probe outcome ------------------------------------------------------------

def test_probe_outcome_reports_admissibility(square):
    assert probe_outcome(square, square.hops((0, 1, 2))) == PACK
    square.links[0].up = False
    assert probe_outcome(square, square.hops((0, 1, 2))) == NACK


def test_probe_outcome_sees_wavelength_exhaustion():
    topo = parse_topology("nodes 3\nlink 0 1 10 1\nlink 1 2 10 1\n")
    assert probe_outcome(topo, topo.hops((0, 1, 2))) == PACK
    topo.links[0].occupy(FORWARD, 0)
    assert probe_outcome(topo, topo.hops((0, 1, 2))) == NACK


def test_probe_outcome_nacks_only_route_faults(square):
    # a missing link or a non-node fails in topology.hops, when candidates are built
    hops = square.hops((0, 1, 2))
    square.links[1].up = False
    assert probe_outcome(square, hops) == NACK
    assert probe_outcome(square, hops, FULL_CONVERSION) == NACK


def test_probe_outcome_never_mutates(square):
    before = square.occupancy_snapshot()
    probe_outcome(square, square.hops((0, 1, 2)))
    square.links[1].up = False
    probe_outcome(square, square.hops((0, 1, 2)))
    square.links[1].up = True
    assert square.occupancy_snapshot() == before


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_probe_outcome_matches_wavelength_assignment(seed, channels):
    # PACK exactly when first-fit assignment finds a wavelength; a down hop
    # offers none, so both answer no there
    rng = random.Random(seed)
    topo = default_topology(channels=channels)
    for link in topo.links:
        for lane in (FORWARD, REVERSE):
            for w in range(channels):
                if rng.random() < 0.4:
                    link.occupy(lane, w)
        link.up = rng.random() > 0.15
    src = rng.randrange(topo.num_nodes)
    dst = (src + 1 + rng.randrange(topo.num_nodes - 1)) % topo.num_nodes
    for route in k_shortest_hop_paths(topo, src, dst, k=4):
        hops = topo.hops(route)
        for mode in CONVERSION_MODES:
            admits = assign_wavelength(topo, route, mode) is not None
            assert probe_outcome(topo, hops, mode) == (PACK if admits else NACK)


# -- ranking and prober lifecycle --------------------------------------------

def answer(prober, now, nacks_by_path):
    """Open a window; path j NACKs its first nacks_by_path[j] probes, PACKs the rest."""
    send_window(prober, now, lambda j, slot: NACK if slot < nacks_by_path[j] else PACK)


def test_rank_orders_by_estimate():
    paths = ([0, 1, 9], [0, 2, 9], [0, 3, 9])
    prober = make_prober(paths, probes=10)
    answer(prober, 0.0, [6, 1, 3])
    assert prober.estimates() == [0.6, 0.1, 0.3]
    assert ranked_routes(prober) == [(0, 2, 9), (0, 3, 9), (0, 1, 9)]


def test_rank_breaks_ties_by_hops_then_route():
    prober = make_prober(([0, 4, 2, 9], [0, 3, 9], [0, 1, 9]), probes=4)
    answer(prober, 0.0, [2, 2, 2])
    assert prober.estimates() == [0.5, 0.5, 0.5]
    assert ranked_routes(prober) == [(0, 1, 9), (0, 3, 9), (0, 4, 2, 9)]


def test_rank_sentinel_never_beats_measured_success():
    # path 0's answers all land after the close at 0.5: no evidence, sentinel 1.0
    prober = make_prober(([0, 1, 9], [0, 2, 9]), probes=10, delays=(0.25, 0.0))
    send_window(prober, 0.0, lambda j, slot: PACK if j == 0 or slot == 9 else NACK)
    assert prober.estimates() == [1.0, 0.9]
    assert ranked_routes(prober) == [(0, 2, 9), (0, 1, 9)]


def test_prober_initial_backups_follow_candidate_order(monkeypatch):
    # before the first window closes, a failure restores onto the first m candidates
    sim = Simulation(SimConfig(candidates_k=3, backups_m=2))
    sim._on_arrival((0, 2, 1.0))  # (src, dst, holding)
    conn = sim.connections[0]
    routes = [(0, 4, 3, 2), (0, 7, 6, 2), (0, 4, 5, 6, 2)]
    assert conn.prober.candidates == tuple(sim.topology.hops(route) for route in routes)
    assert conn.prober.ranking(sim.now) is conn.prober.candidates  # nothing ranked yet
    tried, lookups = [], []
    reroute, lookup = wdmsim.engine.reroute, wdmsim.engine.candidate_paths
    monkeypatch.setattr(wdmsim.engine, "reroute",
                        lambda topology, backups, *args, **kwargs: tried.append(backups)
                        or reroute(topology, backups, *args, **kwargs))
    monkeypatch.setattr(wdmsim.engine, "candidate_paths",
                        lambda *args: lookups.append(args) or lookup(*args))
    [arc] = sim.topology.hops((0, 1))
    sim._on_link_failure(sim.topology.arcs[arc][0].id)  # the primary is (0, 1, 2)
    [backups] = tried
    assert [hops.route for hops in backups] == routes[:2]
    assert all(map(operator.is_, backups, conn.prober.candidates))  # the candidates' own records
    assert lookups == []  # the prober holds them: no lookup at the failure
    assert conn.current.hops is conn.prober.candidates[0]


def test_prober_reranks_on_measured_blocking():
    prober = make_prober()
    sends = window_probes(prober, 0.0)
    assert len(sends) == 8  # 4 probes x 2 candidates
    for t, j, slot in sends:
        prober.sent(j, NACK if j == 0 else PACK, t)
    assert ranked_routes(prober) == [(0, 2, 9), (0, 1, 9)]


def test_prober_sequences_continue_across_windows(monkeypatch):
    # one chain of sends, each naming the next, runs through the close at 0.6,
    # which the next window's first send makes; the first window's probes PACK
    # and the second's NACK
    estimates = []
    close = ConnectionProber.close_window
    monkeypatch.setattr(ConnectionProber, "close_window",
                        lambda prober: estimates.append(prober.estimates()) or close(prober))
    prober = make_prober(paths=[(0, 1, 9)], probes=2, interval=0.6)
    t, sends = prober.open_windows(0.0), []
    for _ in range(4):
        sends.append(t)
        t = prober.sent(0, PACK if t < 0.6 else NACK, t)
    assert sends == pytest.approx([0.2, 0.4, 0.8, 1.0])  # slots 0, 1, then 0, 1 again
    assert prober.close_at == pytest.approx(1.2)  # the send at 0.8 opened the next window
    estimates.append(prober.estimates())
    assert estimates == [[0.0], [1.0]]  # each window tallies only its own answers


def test_prober_accepts_feedback_after_rollover():
    # answers take 0.15 s on path 0 and 0.35 s on path 1; of the sends at
    # 0.1 .. 0.4, path 0's first three and path 1's first land before the
    # close at 0.5 and PACK, and every later one NACKs
    prober = make_prober(delays=(0.075, 0.175))
    on_time = {0: 3, 1: 1}
    send_window(prober, 0.0, lambda j, slot: PACK if slot < on_time[j] else NACK)
    assert prober.estimates() == [0.0, 0.0]  # late answers move no estimate
    prober.close_and_rank()
    prober.open_windows(0.5)
    assert prober.estimates() == [1.0, 1.0]  # ... not even the next window's
    assert prober.landed(0.5) == (4, 0)  # but they still land, for the totals
    assert prober.landed(0.76) == (4, 4)


def test_prober_keeps_probing_suboptimal_candidates():
    # the candidates share their send instants, and each keeps its own slot
    prober = make_prober(probes=2, interval=0.6)
    t = prober.open_windows(0.0)
    for next_t in (0.4, 0.8):  # the window's second slot, then the next window's first
        sends = [prober.sent(j, NACK if j == 0 else PACK, t) for j in (0, 1)]
        assert sends == pytest.approx([next_t, next_t])
        t = next_t
    assert prober.ranking(t)[0].route == (0, 2, 9)  # the one a failure tries first
    # both candidates keep their sends in the next window, not just the chosen one
    assert [prober.sent(j, PACK, t) for j in (0, 1)] == pytest.approx([1.0, 1.0])


def test_prober_all_sentinel_rank_keeps_candidate_order():
    prober = make_prober()
    prober.open_windows(0.0)
    # no feedback resolved: all sentinels
    assert ranked_routes(prober) == [(0, 1, 9), (0, 2, 9)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_prober_ranking_matches_on_time_oracle(data):
    # route j is 0 -> (hops_j intermediate nodes) -> 9; equal hop counts tie-break by route
    hop_counts = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4), label="hops")
    paths = [(0, *(10 * (j + 1) + h for h in range(n)), 9) for j, n in enumerate(hop_counts)]
    delays = data.draw(st.lists(st.floats(0.0, 0.5), min_size=len(paths), max_size=len(paths)),
                       label="delays")
    rtts = [2.0 * delay for delay in delays]
    count = data.draw(st.integers(1, 4), label="count")
    prober = make_prober(paths, probes=count, delays=delays)
    answers = []  # (landing time, outcome) of every probe sent
    for w in range(data.draw(st.integers(1, 4), label="windows")):
        now = 0.5 * w
        close_at = now + prober.interval
        on_time = []  # (path_index, outcome) of the answers landing before the close
        for t, j, slot in window_probes(prober, now):
            outcome = data.draw(st.sampled_from([PACK, NACK]))
            prober.sent(j, outcome, t)
            answers.append((t + rtts[j], outcome))
            if t + rtts[j] < close_at:
                on_time.append((j, outcome))
        assert ranked_routes(prober) == rank_by_feedback(paths, on_time)
    assert prober.estimates() == [1.0] * len(paths)
    end = data.draw(st.one_of(st.sampled_from([land for land, _ in answers]),
                              st.floats(0.0, 3.0)), label="end")
    landed = [outcome for land, outcome in answers if land < end]
    assert prober.landed(end) == (landed.count(PACK), landed.count(NACK))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_failure_reads_the_last_closed_windows_ranking(data):
    # the sends run as the engine runs them, each naming the next, so a window closes
    # at the first send after it; a failure between two slots reads the ranking, which
    # sorts the last window closed before the failure, once, and matches the oracle
    hop_counts = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4), label="hops")
    paths = [(0, *(10 * (j + 1) + h for h in range(n)), 9) for j, n in enumerate(hop_counts)]
    delays = data.draw(st.lists(st.floats(0.0, 0.5), min_size=len(paths), max_size=len(paths)),
                       label="delays")
    prober = make_prober(paths, probes=data.draw(st.integers(1, 4), label="count"), delays=delays)
    sorts, close_and_rank = [], prober.close_and_rank
    prober.close_and_rank = lambda: sorts.append(None) or close_and_rank()
    on_time = {}  # window -> (path_index, outcome) of its answers landing before its close
    t, last_send, last_read = prober.open_windows(0.0), 0.0, None
    for _ in range(data.draw(st.integers(1, 12), label="slots")):
        if data.draw(st.booleans(), label="failure"):
            now = data.draw(st.floats(last_send, t), label="now")
            closed = max((w for w in range(int(now // 0.5) + 1) if 0.5 * (w + 1) < now),
                         default=None)
            before = len(sorts)
            routes = [hops.route for hops in prober.ranking(now)]
            if closed is None:
                assert routes == paths  # candidate order until the first close
            else:
                assert routes == rank_by_feedback(paths, on_time.get(closed, []))
            assert len(sorts) - before == (closed is not None and closed != last_read)
            last_read = closed
        window = int(t // 0.5)
        for j, delay in enumerate(delays):
            outcome = data.draw(st.sampled_from([PACK, NACK]))
            next_t = prober.sent(j, outcome, t)
            if t + 2.0 * delay < 0.5 * (window + 1):
                on_time.setdefault(window, []).append((j, outcome))
        last_send, t = t, next_t


# -- reroute ------------------------------------------------------------------

def test_reroute_takes_first_viable_backup(square):
    backups = [square.hops((0, 1, 2)), square.hops((0, 3, 2))]
    lp = reroute(square, backups, "none", 0.024)
    assert lp is not None
    assert lp.hops is backups[0]


def test_reroute_skips_down_and_saturated(square):
    square.links[0].up = False  # kills (0,1,2)
    backups = [square.hops((0, 1, 2)), square.hops((0, 3, 2))]
    lp = reroute(square, backups, "none", 0.024)
    assert lp.hops is backups[1]


def test_reroute_falls_back_to_fresh_search(square):
    square.links[0].up = False
    calls = []

    def fallback(*args):
        calls.append(args)
        return establish_baseline(square, 0, 2)

    lp = reroute(square, [square.hops((0, 1, 2))], "none", 0.024, fallback_establish=fallback)
    assert calls == [("backup",)]  # exactly one positional argument
    assert lp.hops.route == (0, 3, 2)


def test_reroute_returns_none_when_nothing_fits():
    topo = parse_topology("nodes 3\nlink 0 1 10 1\nlink 1 2 10 1\n")
    topo.links[0].occupy(FORWARD, 0)

    def fallback(_):
        return establish_baseline(topo, 0, 2)

    assert reroute(topo, [topo.hops((0, 1, 2))], "none", 0.024,
                   fallback_establish=fallback) is None
