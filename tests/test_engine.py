import dis
import gc
import inspect
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from collections import Counter
from dataclasses import astuple, replace
from decimal import Decimal
from heapq import heappush
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import wdmsim
from oracles import cold_start, erlang_b, erlang_fixed_point, random_failure_schedule
from wdmsim.engine import (
    ARRIVAL,
    DEPARTURE,
    LINK_FAILURE,
    LINK_REPAIR,
    PROBE_SEND,
    ROUTER_BASELINE,
    ROUTER_RFTR,
    SAMPLE_TICK,
    SimConfig,
    Simulation,
    build_topology,
    generate_arrivals,
    run,
)
from wdmsim.errors import ConfigError, InvariantError, SimError, TopologyError
from wdmsim.probing import ConnectionProber
from wdmsim.routing import FULL_CONVERSION, NO_CONVERSION, release_lightpath
from wdmsim.topology import FORWARD, REVERSE, Topology, parse_topology

SQUARE = "nodes 4\n" + "\n".join(
    f"link {a} {b} 10 8" for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]
) + "\n"
CHAIN = "nodes 3\nlink 0 1 10 8\nlink 1 2 10 8\n"


def square_topology(channels=8):
    text = SQUARE if channels == 8 else SQUARE.replace(" 10 8", f" 10 {channels}")
    return parse_topology(text)


# -- configuration ------------------------------------------------------------

def test_config_defaults_validate():
    SimConfig().validate()


@pytest.mark.parametrize(
    "overrides",
    [
        {"max_requests": 0},
        {"sample_interval": 0.0},
        {"load_threshold": 1.0},
        {"conversion_mode": "sparse"},
        {"router": "ospf"},
        {"arrival_rate": 0.0},
        {"holding_time": -1.0},
        {"session_traffics": 0},
        {"packet_size": 0},
        {"candidates_k": 0},
        {"probes_per_interval": 0},
        {"data_rate_mbps": 0.0},
        {"load_threshold": 0.0},
        {"probe_interval": 0.0},
        {"adaptive_scale": -1.0},
    ],
)
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ConfigError):
        SimConfig(**overrides).validate()


@pytest.mark.parametrize("overrides, message", [
    ({"wavelengths": 0}, "link 0: total_channels must be in 1..1048576"),
    ({"link_delay_ms": 0.0}, "link 0: delay must be finite and positive"),
])
def test_the_mesh_links_own_the_channel_count_and_delay(overrides, message):
    config = SimConfig(**overrides)
    config.validate()  # not a rule of validate's: the mesh's first Link refuses it
    for build in (build_topology, Simulation):
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            build(config)


def test_aggregate_rate_is_the_per_source_rate_times_the_sources():
    assert SimConfig(arrival_rate=0.5, session_traffics=4).aggregate_rate == 2.0
    assert SimConfig(arrival_rate=0.5, session_traffics=3).aggregate_rate == 1.5


def test_build_topology_prefers_file(tmp_path):
    path = tmp_path / "topo.txt"
    path.write_text(CHAIN)
    topo = build_topology(SimConfig(topology_file=str(path)))
    assert topo.num_nodes == 3
    default = build_topology(SimConfig(wavelengths=4))
    assert default.num_nodes == 8
    assert default.links[0].total_channels == 4


@pytest.mark.parametrize("kind", ["missing", "directory", "latin-1"])
def test_an_unreadable_topology_file_is_a_topology_error(tmp_path, kind):
    path = tmp_path / "x.topo"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes(b"# caf\xe9\n" + CHAIN.encode())
    with pytest.raises(TopologyError) as err:
        Simulation(SimConfig(topology_file=str(path)))
    assert str(path) in str(err.value)


# -- workload generation ------------------------------------------------------

def test_arrivals_shape_and_bounds():
    config = SimConfig(arrival_rate=2.0, holding_time=0.3, session_traffics=4, max_requests=200)
    arrivals = generate_arrivals(config, random.Random(1), num_nodes=8)
    assert len(arrivals) == 200
    times = [t for t, _, _, _ in arrivals]
    assert times == sorted(times)
    for _, src, dst, holding in arrivals:
        assert 0 <= src < 8 and 0 <= dst < 8 and src != dst
        assert holding > 0


def test_arrival_stream_is_deterministic():
    config = SimConfig(max_requests=100)
    a = generate_arrivals(config, random.Random(7), 8)
    b = generate_arrivals(config, random.Random(7), 8)
    assert a == b


def test_interarrival_and_holding_are_exponential():
    # mean and variance both within 5% of the exponential's 1/r and s at n=1e4
    n = 10_000
    config = SimConfig(arrival_rate=2.0, holding_time=0.3, session_traffics=2, max_requests=n)
    arrivals = generate_arrivals(config, random.Random(0), 8)
    times = [t for t, _, _, _ in arrivals]
    gaps = [b - a for a, b in zip([0.0] + times[:-1], times)]
    holdings = [h for _, _, _, h in arrivals]
    rate = config.aggregate_rate
    assert statistics.mean(gaps) == pytest.approx(1 / rate, rel=0.05)
    assert statistics.variance(gaps) == pytest.approx(1 / rate**2, rel=0.05)
    assert statistics.mean(holdings) == pytest.approx(0.3, rel=0.05)
    assert statistics.variance(holdings) == pytest.approx(0.09, rel=0.05)


def test_failure_schedule_is_seeded_and_bounded(mesh8):
    a = random_failure_schedule(mesh8, seed=5, tmax=10.0, count=3)
    b = random_failure_schedule(mesh8, seed=5, tmax=10.0, count=3)
    assert a == b and len(a) == 3
    assert a == sorted(a)
    for t, link_id in a:
        assert 0.0 <= t <= 10.0
        assert 0 <= link_id < len(mesh8.links)
    assert random_failure_schedule(mesh8, 6, 10.0) != a[:1]


# -- whole runs ---------------------------------------------------------------

def test_run_conserves_demands():
    report = run(SimConfig(seed=11), audit=True)
    assert report.offered == 50
    assert report.accepted + report.blocked == 50
    assert report.completed + report.dropped == report.accepted


def test_replay_is_bit_identical():
    cfg = SimConfig(wavelengths=2, arrival_rate=6.0, holding_time=0.5,
                    max_requests=120, seed=9)
    assert run(cfg) == run(cfg)


def test_simulation_runs_once():
    sim = Simulation(SimConfig(seed=4))
    report = sim.run()
    before = replace(report, series=list(report.series))
    with pytest.raises(SimError, match="runs once"):
        sim.run()
    assert report == before  # the refused second run leaves the report as returned


def test_different_seeds_differ():
    a = run(SimConfig(seed=0))
    b = run(SimConfig(seed=1))
    assert a.series != b.series


def test_audit_catches_no_leak_across_seeds():
    for seed in range(5):
        run(SimConfig(seed=seed, arrival_rate=4.0, holding_time=0.5,
                      wavelengths=2, max_requests=60), audit=True)


def test_baseline_never_probes():
    report = run(SimConfig(router=ROUTER_BASELINE, seed=2), audit=True)
    assert report.probes_sent == 0
    assert report.probe_packs == report.probe_nacks == 0


def test_rftr_probes_when_candidates_exist():
    report = run(SimConfig(router=ROUTER_RFTR, seed=2), audit=True)
    assert report.probes_sent > 0


def test_chain_topology_offers_no_candidates(tmp_path):
    # single route between any pair: no disjoint candidates, hence no probes
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN)
    report = run(SimConfig(topology_file=str(path), router=ROUTER_RFTR, seed=4),
                 audit=True)
    assert report.probes_sent == 0


def test_routers_agree_on_single_path_topology(tmp_path):
    # with one route per pair the two routers differ in nothing but their
    # cost function's tie-breaking, so every observable metric must match
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN)
    reports = {
        router: run(SimConfig(topology_file=str(path), router=router, seed=8,
                              arrival_rate=4.0, holding_time=0.5, wavelengths=2,
                              max_requests=80), audit=True)
        for router in (ROUTER_RFTR, ROUTER_BASELINE)
    }
    a, b = reports[ROUTER_RFTR], reports[ROUTER_BASELINE]
    a.router = b.router = "x"
    assert a == b


def test_sampling_covers_the_run():
    report = run(SimConfig(seed=3))
    times = [t for t, _, _, _ in report.series]
    assert times[0] == pytest.approx(0.5)
    steps = [round(b - a, 9) for a, b in zip(times, times[1:])]
    assert all(s == pytest.approx(0.5) for s in steps)
    assert len(times) >= 10


def test_routers_share_the_sampling_horizon():
    # enough channels that neither router blocks: both see the same demands
    # and departures, so only rftr's probe events could stretch its series
    cfg = SimConfig(wavelengths=16, arrival_rate=2.0, holding_time=0.5, max_requests=200, seed=4)
    rftr = run(replace(cfg, router=ROUTER_RFTR))
    baseline = run(replace(cfg, router=ROUTER_BASELINE))
    assert rftr.blocked == baseline.blocked == 0
    assert rftr.probes_sent > 0
    assert [row[0] for row in rftr.series] == [row[0] for row in baseline.series]


def test_full_conversion_mode_runs_clean():
    report = run(SimConfig(conversion_mode="full", seed=6, arrival_rate=4.0,
                           wavelengths=2, holding_time=0.5), audit=True)
    assert report.accepted + report.blocked == 50


# -- scripted failure scenarios ----------------------------------------------

def scripted_square(seed, saturate=False, router=ROUTER_RFTR, fail_at=1.0):
    """One pinned 0->2 demand on the 4-cycle, primary [0,1,2], failure on link 0."""
    topo = square_topology()
    if saturate:
        for link_id in (2, 3):  # the [0,3,2] detour, both lanes
            link = topo.links[link_id]
            for lane in (0, 1):
                for w in range(link.total_channels):
                    link.occupy(lane, w)
    cfg = SimConfig(arrival_rate=50.0, max_requests=1, seed=seed,
                    failures=[(fail_at, 0)], router=router)
    pinned = [(t, 0, 2, 50.0) for (t, _, _, _) in Simulation(cfg, topology=topo).arrivals]
    return Simulation(cfg, topology=topo, audit=True, arrivals=pinned).run()


def test_failure_restores_via_measured_backup():
    report = scripted_square(seed=0)
    assert report.restored == 1
    assert report.dropped == 0
    assert report.completed == 1
    assert report.probe_nacks == 0
    assert report.probe_packs > 0  # the detour measured clean before failing over


def test_failure_drops_when_candidates_saturated():
    report = scripted_square(seed=0, saturate=True)
    assert report.dropped == 1
    assert report.restored == 0
    assert report.completed == 0
    assert report.probe_nacks > 0  # probing saw the saturation


def test_dropped_connection_keeps_pre_failure_packets():
    report = scripted_square(seed=0, saturate=True, fail_at=1.0)
    # 2 Mb/s for ~1 s in 1600-bit packets: about 1250, never more
    assert 0 < report.packets_received <= 1250


def test_stale_departure_after_drop_is_ignored():
    # the departure for the dropped session fires long after the failure
    report = scripted_square(seed=1, saturate=True)
    assert report.completed == 0
    assert report.offered == 1


def test_failure_on_idle_link_changes_nothing():
    topo = square_topology()
    cfg = SimConfig(arrival_rate=50.0, max_requests=1, seed=0,
                    failures=[(1.0, 2)], router=ROUTER_RFTR)
    pinned = [(t, 0, 1, 3.0) for (t, _, _, _) in Simulation(cfg, topology=topo).arrivals]
    report = Simulation(cfg, topology=topo, audit=True, arrivals=pinned).run()
    assert report.restored == 0 and report.dropped == 0
    assert report.completed == 1


def test_repair_restores_usability():
    # link 0 fails at 0.5 and is repaired at 1.0; a demand arriving after the
    # repair uses the direct route again
    topo = square_topology()
    cfg = SimConfig(arrival_rate=50.0, max_requests=2, seed=0,
                    failures=[(0.5, 0)], repairs=[(1.0, 0)], router=ROUTER_BASELINE)
    sim = Simulation(cfg, topology=topo, audit=True, arrivals=[(1.5, 0, 1, 0.2), (1.6, 0, 1, 0.2)])
    report = sim.run()
    assert report.blocked == 0
    assert report.completed == 2
    assert report.mean_delay == pytest.approx(0.010)  # one hop: the 3-hop detour reads 0.030


@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
def test_a_repaired_link_carries_what_only_it_can(router):
    # on the chain 0-1-2, link 0 is the one route from 0 to 1: a demand during its
    # outage blocks in either router, and one after its repair is carried on it
    cfg = SimConfig(max_requests=2, failures=[(0.5, 0)], repairs=[(1.0, 0)], router=router)
    sim = Simulation(cfg, topology=parse_topology(CHAIN), audit=True,
                     arrivals=[(0.7, 0, 1, 0.2), (1.5, 0, 1, 0.2)])
    report = sim.run()
    assert (report.blocked, report.completed, report.dropped) == (1, 1, 0)
    assert report.mean_delay == pytest.approx(0.010)


def test_unknown_failure_link_rejected():
    cfg = SimConfig(failures=[(1.0, 99)])
    with pytest.raises(ConfigError):
        run(cfg)


@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
@pytest.mark.parametrize("pinned", [
    (1.0, 3, 3, 0.5),
    (1.0, 0, 9, 0.5),  # the default mesh has nodes 0..7
    (1.0, -1, 2, 0.5),
    (1.0, 0, 1.5, 0.5),
    (1.0, 0, 2, -1.0),
    (1.0, 0, 2, 0.0),
    (1.0, 0, 2, math.nan),
    (1.0, 0, 2, math.inf),
    (math.nan, 0, 2, 0.5),
    (-1.0, 0, 2, 0.5),
    (math.inf, 0, 2, 0.5),
    (1.0, 1.0, 2, 0.5),  # 1.0 is "in" range(8) but indexes no list
    (1.0, 0, 2.0, 0.5),
    (None, 0, 2, 0.5),
    (1.0, 0, 2, "0.5"),
    (1.0, 0, 2),
    (Decimal("1.0"), 0, 2, 0.5),  # the clock adds floats, which a Decimal refuses
    (1.0, 0, 2, Decimal("0.5")),
], ids=["same-node", "no-such-node", "negative-node", "fractional-node", "negative-holding",
        "zero-holding", "nan-holding", "inf-holding", "nan-time", "negative-time", "inf-time",
        "float-src", "float-dst", "none-time", "str-holding", "three-fields",
        "decimal-time", "decimal-holding"])
def test_malformed_pinned_arrival_refused_before_anything_runs(router, pinned):
    cfg = SimConfig(router=router, max_requests=3, seed=1)
    drawn = Simulation(cfg).arrivals
    with pytest.raises(ConfigError, match=rf"^arrival 1: .* = {re.escape(str(pinned))} needs"):
        Simulation(cfg, arrivals=[drawn[0], pinned, drawn[2]])
    assert Simulation(cfg, arrivals=list(drawn)).run().offered == 3  # the mended workload runs


@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
def test_drawn_arrivals_are_not_rechecked(router, monkeypatch):
    """Only a pinned workload is checked: the engine draws no arrival it cannot run."""
    def refuse(self, arrivals):
        raise AssertionError("a drawn workload was checked")

    monkeypatch.setattr(Simulation, "_check_arrivals", refuse)
    cfg = SimConfig(router=router, max_requests=20, seed=1)
    drawn = Simulation(cfg)
    assert drawn.run().offered == 20
    with pytest.raises(AssertionError, match="drawn workload was checked"):
        Simulation(cfg, arrivals=list(drawn.arrivals))


def test_arrivals_are_pinned_only_at_construction():
    sim = Simulation(SimConfig(max_requests=3, seed=1))
    drawn = sim.arrivals
    with pytest.raises(AttributeError):
        sim.arrivals = [(0.5, 0, 1, 1.0)]  # would otherwise run unchecked
    assert sim.arrivals is drawn and sim.run().offered == 3


@pytest.mark.parametrize("schedule, entry, message", [
    pytest.param(schedule, entry, message, id=f"{schedule}{case}")
    for schedule in ("failures", "repairs")
    for case, entry, message in (
        ("", (2.0, 99), "unknown link 99$"),
        # malformed entries, checked by type before value: a float id would pass the range
        # test and crash the run, a str time or a third field would crash the constructor
        ("-float-link", (1.0, 1.0), r"\(time, link\) = \(1.0, 1.0\) needs"),
        ("-str-time", ("1", 1), r"\(time, link\) = \('1', 1\) needs"),
        ("-three-fields", (1.0, 1, 2), r"\(time, link\) = \(1.0, 1, 2\) needs"),
    )
])
def test_unknown_schedule_link_refused_at_construction(schedule, entry, message):
    # refused before a run queues anything, naming the schedule that holds it
    with pytest.raises(ConfigError, match=f"^{schedule}: {message}"):
        Simulation(SimConfig(max_requests=5, **{schedule: [(1.0, 0), entry]}))


def test_restoration_is_reflected_in_mean_delay():
    # primary [0,1,2] is 20 ms; detour [0,3,2] is also 20 ms, so the mean
    # stays 20 ms even after restoration — but setup delay is counted once
    report = scripted_square(seed=0)
    assert report.mean_delay == pytest.approx(0.020, abs=1e-9)
    assert report.mean_setup_delay == pytest.approx(0.020, abs=1e-9)


def test_baseline_restores_too():
    report = scripted_square(seed=0, router=ROUTER_BASELINE)
    assert report.restored == 1
    assert report.dropped == 0
    assert report.probes_sent == 0


def count_yen_calls(monkeypatch) -> list:
    """Record every k-shortest route lookup candidate building makes, for probing or backups."""
    calls = []
    lookup = wdmsim.probing.resolved_routes
    monkeypatch.setattr(wdmsim.probing, "resolved_routes",
                        lambda *args: calls.append(args) or lookup(*args))
    return calls


def test_a_failure_free_baseline_run_looks_up_no_backups(monkeypatch):
    calls = count_yen_calls(monkeypatch)
    report = run(SimConfig(router=ROUTER_BASELINE, seed=2, max_requests=200), audit=True)
    assert report.accepted > 0
    assert calls == []


def test_connections_hold_only_live_sessions():
    # blocks, drops and departures all leave the live-connection map empty
    cfg = SimConfig(wavelengths=2, arrival_rate=6.0, holding_time=0.5, max_requests=300,
                    seed=3, failures=[(2.0, 0), (4.0, 9), (6.0, 5)], repairs=[(3.0, 0)])
    sim = Simulation(cfg, audit=True)
    report = sim.run()
    assert report.blocked > 0 and report.dropped > 0 and report.restored > 0
    assert sim.connections == {}


# a triangle on nodes 0-2 and, apart from it, one link 3-4: no route joins the two
SPLIT = "nodes 5\n" + "".join(f"link {a} {b} 10 2\n" for a, b in [(0, 1), (1, 2), (2, 0), (3, 4)])


def crosses(src: int, dst: int) -> bool:
    """Whether a demand joins SPLIT's two components."""
    return (src >= 3) != (dst >= 3)


@pytest.mark.parametrize("mode", [NO_CONVERSION, FULL_CONVERSION])
@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
def test_every_demand_between_components_blocks(router, mode):
    # a failure of link 1-2 and its repair, so restores and drops meet the split graph too
    config = SimConfig(router=router, conversion_mode=mode, seed=1, max_requests=400,
                       arrival_rate=4.0, holding_time=2.0, failures=[(5.0, 1)], repairs=[(8.0, 1)])
    sim = Simulation(config, topology=parse_topology(SPLIT), audit=True)
    cross = [demand for demand in sim.arrivals if crosses(*demand[1:3])]
    establish, setups = sim._establish, []

    def recorded(src, dst):
        result = establish(src, dst)
        setups.append((crosses(src, dst), result.blocked))
        return result

    sim._establish = recorded
    report = sim.run()
    assert 0 < len(cross) < report.offered == 400
    assert [blocked for crossing, blocked in setups if crossing] == [True] * len(cross)
    assert report.offered == report.accepted + report.blocked
    assert report.completed + report.dropped == report.accepted
    assert report.restored > 0 and report.dropped > 0
    # the demands between components block and take nothing, so the others alone run as before
    within = Simulation(config, topology=parse_topology(SPLIT), audit=True,
                        arrivals=[demand for demand in sim.arrivals if demand not in cross]).run()
    assert within.blocked == report.blocked - len(cross)
    for name in ("accepted", "completed", "restored", "dropped", "probes_sent", "probe_packs",
                 "probe_nacks"):
        assert getattr(within, name) == getattr(report, name), name


def random_tree(rng: random.Random) -> str:
    """A topology file of a random tree: 3-8 nodes, each node v > 0 linked to an earlier node,
    either way round, with random delays and 1, 2 or 4 channels on every link."""
    n, channels = rng.randint(3, 8), rng.choice([1, 2, 4])
    ends = [(rng.randrange(v), v) for v in range(1, n)]
    return f"nodes {n}\n" + "".join(
        f"link {a} {b} {rng.choice([5, 10, 20])} {channels}\n"
        for a, b in (end if rng.random() < 0.5 else end[::-1] for end in ends))


@pytest.mark.parametrize("mode", [NO_CONVERSION, FULL_CONVERSION])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_on_a_tree_rftr_reports_what_the_baseline_reports(mode, seed):
    # one route joins each pair, so both routers take it, no candidate is disjoint from it
    # and nothing is probed, and a failure drops every connection across it in either router
    rng = random.Random(seed)
    text = random_tree(rng)
    link = rng.randrange(len(parse_topology(text).links))
    fail_at = rng.uniform(1.0, 20.0)
    config = SimConfig(conversion_mode=mode, seed=rng.randrange(1000), max_requests=300,
                       arrival_rate=2.0, holding_time=0.5, failures=[(fail_at, link)],
                       repairs=[(fail_at + rng.uniform(0.5, 5.0), link)])
    rftr, baseline = (run(replace(config, router=router), topology=parse_topology(text), audit=True)
                      for router in (ROUTER_RFTR, ROUTER_BASELINE))
    assert replace(rftr, router=ROUTER_BASELINE) == baseline


# -- relations between two whole runs ----------------------------------------------

def random_mesh(rng: random.Random) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Node count and links ``(a, b, delay ms, channels)`` of a random connected graph: 3-7
    nodes, a random spanning tree plus random chords, each link its own delay and channels."""
    n = rng.randint(3, 7)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    chords = [(a, b) for b in range(n) for a in range(b) if (a, b) not in pairs]
    pairs.update(rng.sample(chords, rng.randint(0, len(chords))))
    return n, [(a, b, rng.choice([1, 5, 25, 125]), rng.randint(1, 4)) for a, b in sorted(pairs)]


def mesh_text(n: int, links, delay_scale: int = 1) -> str:
    return f"nodes {n}\n" + "".join(f"link {a} {b} {delay * delay_scale} {channels}\n"
                                    for a, b, delay, channels in links)


def random_run(rng: random.Random, num_links: int) -> SimConfig:
    """Either router and conversion mode, 150 requests at a random load, and one to three
    link failures in the first 15 s, most of them repaired."""
    failures = sorted((rng.uniform(0.0, 15.0), rng.randrange(num_links))
                      for _ in range(rng.randint(1, 3)))
    return SimConfig(
        router=rng.choice([ROUTER_RFTR, ROUTER_BASELINE]),
        conversion_mode=rng.choice([NO_CONVERSION, FULL_CONVERSION]),
        conversion_time=rng.choice([0.0, 0.003, 0.024]), seed=rng.randrange(1000),
        max_requests=150, arrival_rate=rng.uniform(1.0, 3.0), holding_time=rng.uniform(0.3, 1.5),
        candidates_k=rng.randint(1, 3), backups_m=rng.choice([None, 1, 2]), failures=failures,
        repairs=[(t + rng.uniform(0.5, 5.0), link) for t, link in failures if rng.random() < 0.7])


@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_demand_ends_one_way_and_each_restored_connection_counts_once(router, seed):
    # offered = accepted + blocked and accepted = completed + dropped at the end of a run
    # with failures and repairs, and ``restored`` counts the connections the engine
    # reported restored, each once however often it restored
    rng = random.Random(seed)
    n, links = random_mesh(rng)
    config = replace(random_run(rng, len(links)), router=router)
    sim = Simulation(config, topology=parse_topology(mesh_text(n, links)), audit=True)
    restorations = []  # the connection id of each on_restored call
    on_restored = sim.collector.on_restored

    def counted(conn, path_delay, now):
        restorations.append(conn.id)
        on_restored(conn, path_delay, now)

    sim.collector.on_restored = counted
    report = sim.run()
    assert report.offered == report.accepted + report.blocked == config.max_requests
    assert report.accepted == report.completed + report.dropped
    assert report.restored <= len(restorations)
    assert report.restored == len(set(restorations))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_doubling_every_delay_doubles_the_mean_delays_and_nothing_else(seed):
    # delays and the conversion time only add up along a path; no route search reads them.
    # A ranking tallies an answer only if it lands before its window closes, and a doubled
    # round trip can land after, so rftr keeps one candidate here, which no tally reorders
    rng = random.Random(seed)
    n, links = random_mesh(rng)
    config = random_run(rng, len(links))
    if config.router == ROUTER_RFTR:
        config = replace(config, candidates_k=1)
    report = run(config, topology=parse_topology(mesh_text(n, links)), audit=True)
    doubled = run(replace(config, conversion_time=2 * config.conversion_time),
                  topology=parse_topology(mesh_text(n, links, delay_scale=2)), audit=True)
    for name in ("blocked", "dropped", "restored", "packets_received", "probes_sent"):
        assert getattr(doubled, name) == getattr(report, name), name
    assert doubled.mean_delay == 2 * report.mean_delay
    assert doubled.mean_setup_delay == 2 * report.mean_setup_delay


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_doubling_data_rate_and_packet_size_changes_only_the_rate(seed):
    rng = random.Random(seed)
    n, links = random_mesh(rng)
    config = random_run(rng, len(links))
    report = run(config, topology=parse_topology(mesh_text(n, links)), audit=True)
    doubled = run(replace(config, data_rate_mbps=2 * config.data_rate_mbps,
                          packet_size=2 * config.packet_size),
                  topology=parse_topology(mesh_text(n, links)), audit=True)
    assert doubled.rate_mbps == 2 * report.rate_mbps
    assert replace(doubled, rate_mbps=report.rate_mbps) == report  # packets and series too


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_links_declared_in_another_order_and_turned_round_change_nothing(seed):
    # routes are nodes, ties break by route and a lane is a travel direction, so neither a
    # link's id nor which end it names first may reach the report
    rng = random.Random(seed)
    n, links = random_mesh(rng)
    config = random_run(rng, len(links))
    order = rng.sample(range(len(links)), len(links))  # new id -> old id
    new_id = {old: new for new, old in enumerate(order)}
    turned = [(b, a, delay, channels) for a, b, delay, channels in map(links.__getitem__, order)]
    report = run(config, topology=parse_topology(mesh_text(n, links)), audit=True)
    renamed = run(replace(config, **{name: [(t, new_id[link]) for t, link in getattr(config, name)]
                                     for name in ("failures", "repairs")}),
                  topology=parse_topology(mesh_text(n, turned)), audit=True)
    assert renamed == report


# -- route tables shared by every topology of a graph ----------------------------

# failures on the default mesh that either router restores or drops connections at
UNIT_FAILURES = [(2.0, 3), (4.0, 8), (6.0, 0), (9.0, 5)]
UNIT_REPAIRS = [(5.0, 3), (8.0, 8), (11.0, 0)]


def write_unit(router: str, seed: int, out_dir, audit: bool = True) -> wdmsim.metrics.MetricsReport:
    """One run with failures on a fresh default mesh, its CSVs written to ``out_dir``."""
    config = SimConfig(router=router, seed=seed, wavelengths=8 if router == ROUTER_RFTR else 2,
                       arrival_rate=4.0, holding_time=0.5, session_traffics=4, max_requests=300,
                       failures=UNIT_FAILURES, repairs=UNIT_REPAIRS)
    report = run(config, topology=build_topology(config), audit=audit)
    Path(out_dir).mkdir(parents=True)
    wdmsim.metrics.export_csv(report, Path(out_dir) / "summary.csv")
    wdmsim.metrics.write_timeseries_csv(report, Path(out_dir) / "timeseries.csv")
    return report


@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
def test_a_run_on_a_fresh_topology_of_a_resolved_graph_resolves_nothing(
        monkeypatch, tmp_path, router):
    cold_start(monkeypatch)
    built, searched = [], []
    hops, yen = wdmsim.topology.Hops, wdmsim.routing.k_shortest_hop_paths
    monkeypatch.setattr(wdmsim.topology, "Hops", lambda *args: built.append(args) or hops(*args))
    monkeypatch.setattr(wdmsim.routing, "k_shortest_hop_paths",
                        lambda *args: searched.append(args) or yen(*args))
    first = write_unit(router, 3, tmp_path / "first")
    assert built and searched and first.restored > 0
    built.clear()
    searched.clear()
    assert write_unit(router, 3, tmp_path / "again") == first
    assert built == searched == []


COLD_UNIT = textwrap.dedent("""
    import dataclasses, sys
    sys.path[:0] = sys.argv[1:3]
    from test_engine import write_unit
    print(repr(dataclasses.astuple(write_unit(sys.argv[3], int(sys.argv[4]), sys.argv[5]))))
""")


@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
def test_warm_route_tables_give_what_cold_ones_give(tmp_path, router):
    # another seed's run, on another topology of the graph, fills the tables the next reads
    write_unit(router, 1, tmp_path / "first")
    tables = wdmsim.topology._tables[1]
    assert all(tables)
    warm = write_unit(router, 2, tmp_path / "warm")
    assert wdmsim.topology._tables[1] is tables
    assert warm.restored + warm.dropped > 0
    # the same run alone in a fresh interpreter, whose tables start empty
    paths = [str(Path(__file__).resolve().parent), str(Path(wdmsim.__file__).resolve().parents[1])]
    done = subprocess.run([sys.executable, "-c", COLD_UNIT, *paths, router, "2",
                           str(tmp_path / "cold")], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == repr(astuple(warm)) + "\n"
    for name in ("summary.csv", "timeseries.csv"):
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()


@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
def test_the_audit_only_observes(tmp_path, router):
    # the audit runs after each of the four failures and at the end, and changes nothing
    audited = write_unit(router, 4, tmp_path / "audited")
    assert audited.restored > 0 and audited.series
    assert write_unit(router, 4, tmp_path / "plain", audit=False) == audited
    for name in ("summary.csv", "timeseries.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "audited" / name).read_bytes()


# -- event model: only events that carry a decision ----------------------------

def counted_kinds(monkeypatch) -> Counter:
    """Count every event scheduled from now on, by kind."""
    kinds = Counter()
    schedule = Simulation.schedule

    def counting(self, time, kind, *args):
        kinds[kind] += 1
        schedule(self, time, kind, *args)

    monkeypatch.setattr(Simulation, "schedule", counting)
    return kinds


def test_reference_run_schedules_only_decision_events(monkeypatch):
    # the reference rftr scenario: default mesh, 4 sources at 4 calls/s, 5000 demands
    kinds = counted_kinds(monkeypatch)
    cfg = SimConfig(wavelengths=8, arrival_rate=4.0, holding_time=0.5, session_traffics=4,
                    max_requests=5000, seed=1)
    report = Simulation(cfg).run()
    # the scripted arrivals wait beside the heap; only what the run decides is scheduled
    assert set(kinds) == {DEPARTURE, PROBE_SEND, SAMPLE_TICK}
    assert "feedback_arrive" not in kinds  # answers are tallied at send, not scheduled
    assert report.probes_sent == 141_030
    # no drops here, so every scheduled send goes out: none falls past its departure
    assert kinds[PROBE_SEND] == report.probes_sent
    assert sum(kinds.values()) <= 147_000


def as_args(payload) -> tuple:
    """An event's payload as the arguments it stands for: a tuple as is, None as none."""
    return payload if isinstance(payload, tuple) else () if payload is None else (payload,)


def recorded_dispatches(monkeypatch, kinds) -> list:
    """Record (kind, time, args) of every dispatched event of the given kinds, in order."""
    seen = []
    for kind in kinds:
        handler = Simulation._HANDLERS[kind]
        monkeypatch.setitem(Simulation._HANDLERS, kind, lambda self, payload, k=kind, h=handler:
                            seen.append((k, self.now, as_args(payload))) or h(self, payload))
    return seen


def scripted_run(router, arrivals, failures, repairs):
    cfg = SimConfig(router=router, wavelengths=2, arrival_rate=6.0, holding_time=0.5,
                    max_requests=len(arrivals), seed=4, failures=failures, repairs=repairs)
    return Simulation(cfg, audit=True, arrivals=arrivals).run()


@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
def test_out_of_order_scripts_run_as_stably_sorted(monkeypatch, router):
    # two pinned arrivals, two failures and a sample tick share the instant 2.0;
    # each list is out of time order, the two failures in reverse id order
    drawn = Simulation(SimConfig(arrival_rate=6.0, max_requests=120, seed=4)).arrivals
    arrivals = [*reversed(drawn), (2.0, 3, 6, 0.9), (2.0, 6, 3, 0.7)]
    failures = [(6.0, 5), (2.0, 9), (2.0, 0), (4.0, 3)]
    repairs = [(5.0, 0), (3.0, 9), (7.0, 3)]
    by_time = lambda entry: entry[0]  # noqa: E731
    expected = scripted_run(router, sorted(arrivals, key=by_time),
                            sorted(failures, key=by_time), sorted(repairs, key=by_time))
    seen = recorded_dispatches(monkeypatch, (ARRIVAL, LINK_FAILURE, LINK_REPAIR, SAMPLE_TICK))
    assert scripted_run(router, arrivals, failures, repairs) == expected
    assert expected.restored + expected.dropped > 0 and expected.blocked > 0
    # the oracle: (time, list position), arrivals before failures before repairs
    script = [(t, (ARRIVAL, t, (src, dst, holding))) for t, src, dst, holding in arrivals]
    script += [(t, (kind, t, (link_id,))) for kind, events in
               ((LINK_FAILURE, failures), (LINK_REPAIR, repairs)) for t, link_id in events]
    assert [e for e in seen if e[0] != SAMPLE_TICK] == [e for _, e in sorted(script, key=by_time)]
    # every scripted event at the tick instant dispatches before the tick
    at_two = [e for e in seen if e[1] == 2.0]
    assert at_two == [(ARRIVAL, 2.0, (3, 6, 0.9)), (ARRIVAL, 2.0, (6, 3, 0.7)),
                      (LINK_FAILURE, 2.0, (9,)), (LINK_FAILURE, 2.0, (0,)), (SAMPLE_TICK, 2.0, ())]


@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
def test_sample_ticks_wait_for_the_script(router):
    # every demand has departed long before the repair, which is the last event queued
    cfg = SimConfig(router=router, max_requests=20, seed=2, failures=[(1.0, 0)],
                    repairs=[(100.2, 0)])
    report = Simulation(cfg, audit=True).run()
    assert report.completed + report.dropped == report.accepted > 0
    times = [row[0] for row in report.series]
    assert times[-1] == pytest.approx(100.5) and times[-2] < 100.2
    assert times == pytest.approx([0.5 * (i + 1) for i in range(len(times))])
    assert report.series[-1][3] == 0.0  # the repaired mesh carries nothing


@pytest.mark.parametrize("mode", [NO_CONVERSION, FULL_CONVERSION])
def test_every_probe_sent_is_counted_once(monkeypatch, mode):
    # a drop ends a connection mid-probe: its sends are counted there, as at a departure
    kinds = counted_kinds(monkeypatch)
    outcomes = []
    probe_outcome = wdmsim.engine.probe_outcome
    monkeypatch.setattr(wdmsim.engine, "probe_outcome",
                        lambda *args: outcomes.append(None) or probe_outcome(*args))
    cfg = SimConfig(wavelengths=2, arrival_rate=6.0, holding_time=0.5, max_requests=300,
                    seed=3, conversion_mode=mode,
                    failures=[(2.0, 0), (4.0, 9), (6.0, 5)], repairs=[(3.0, 0)])
    report = Simulation(cfg, audit=True).run()
    assert report.dropped > 0
    assert report.probes_sent == len(outcomes) <= kinds[PROBE_SEND]


class EagerQueue(Simulation):
    """The same run with every ``schedule`` call in its own heap entry: nothing joins."""

    def schedule(self, time, kind, payload=None):
        super().schedule(time, kind, payload)
        self._tail = wdmsim.engine._NO_TAIL


def ordered_run(monkeypatch, sim):
    """Run ``sim``, numbering every ``schedule`` call and recording every dispatch.

    Returns (report, dispatch keys, the kinds of each heap entry's calls, the
    stale sends).  A dispatch's key sorts as the eager queue would: time, then
    the scripted events (arrivals, failures, repairs, each in list order), then
    the scheduled ones in call order.
    """
    calls, keys, entries, stale = {}, [], [], []
    script = {(ARRIVAL, t, (src, dst, h)): i for i, (t, src, dst, h) in enumerate(sim.arrivals)}
    for kind, events in ((LINK_FAILURE, sim.config.failures), (LINK_REPAIR, sim.config.repairs)):
        script.update({(kind, t, (link_id,)): len(script) + i
                       for i, (t, link_id) in enumerate(events)})
    schedule, push = Simulation.schedule, wdmsim.engine.heappush

    def numbered(self, time, kind, payload=None):
        key = (kind, time, tuple(getattr(arg, "id", arg) for arg in as_args(payload)))
        assert key not in calls
        calls[key], pushes = len(calls), len(entries)
        schedule(self, time, kind, payload)
        if len(entries) == pushes:  # no entry of its own: it joined the last one pushed
            entries[-1].append(kind)

    def recorded(self, payload, kind, handler):
        key = (kind, self.now, tuple(getattr(arg, "id", arg) for arg in as_args(payload)))
        keys.append((self.now, 0, script[key]) if key in script else (self.now, 1, calls[key]))
        if kind == PROBE_SEND and payload[0].current is None:
            stale.append(key)
        handler(self, payload)

    monkeypatch.setattr(Simulation, "schedule", numbered)
    monkeypatch.setattr(wdmsim.engine, "heappush",
                        lambda heap, entry: entries.append([entry[2]]) or push(heap, entry))
    for kind, handler in list(Simulation._HANDLERS.items()):
        monkeypatch.setitem(Simulation._HANDLERS, kind,
                            lambda self, payload, k=kind, h=handler: recorded(self, payload, k, h))
    report = sim.run()
    # every call is dispatched once: none lost in a shared entry, none run twice
    assert sorted(n for _, scheduled, n in keys if scheduled) == list(range(len(calls)))
    assert sum(not scheduled for _, scheduled, _ in keys) == len(script)
    return report, keys, entries, stale


@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
def test_dispatch_runs_in_time_then_script_then_call_order(monkeypatch, router):
    # drops leave sends queued for ended connections, which pop stale
    cfg = SimConfig(router=router, wavelengths=2, arrival_rate=6.0, holding_time=0.5,
                    max_requests=300, seed=3, failures=[(2.0, 0), (4.0, 9), (6.0, 5)],
                    repairs=[(3.0, 0), (5.0, 9)])
    eager = EagerQueue(cfg, audit=True).run()
    report, keys, entries, stale = ordered_run(monkeypatch, Simulation(cfg, audit=True))
    assert keys == sorted(keys)
    assert report == eager
    assert report.dropped > 0 and report.restored > 0
    if router == ROUTER_RFTR:  # one slot's sends share an entry, stale ones too
        assert stale and len(entries) < sum(scheduled for _, scheduled, _ in keys) / 2


def test_a_call_never_joins_an_entry_already_dispatched(monkeypatch):
    # both baseline departures fall at 0.1 + 0.2 == 0.2 + 0.1 and share the last call's
    # entry; each then makes a call for its own instant, which must get an entry of its
    # own, not join the spent one
    ran, departure = [], Simulation._HANDLERS[DEPARTURE]

    def departing(self, payload):
        if isinstance(payload, tuple):  # (conn, "echo")
            ran.append((payload[0].id, self.now))
        else:
            departure(self, payload)
            self.schedule(self.now, DEPARTURE, (payload, "echo"))

    monkeypatch.setitem(Simulation._HANDLERS, DEPARTURE, departing)
    Simulation(SimConfig(router=ROUTER_BASELINE, max_requests=2),
               arrivals=[(0.1, 0, 2, 0.2), (0.2, 1, 3, 0.1)]).run()
    assert ran == [(0, 0.1 + 0.2), (1, 0.1 + 0.2)]


# One demand arrives at 0.25 s; with one probe a 0.5 s window its sends go out
# every 0.5 s from 0.5 s, on the sample ticks' instants, and a 0.25 s holding
# puts its departure on one too.  The series ends at the first tick with nothing
# pending after it, which the eager queue decides by seq.
@pytest.mark.parametrize("sample_interval, holding, last_tick", [
    (0.5, 0.25, 1.0), (0.5, 0.5, 1.0), (0.5, 0.8, 1.5), (0.5, 1.3, 2.0),
    (0.25, 0.25, 0.5), (0.25, 0.5, 0.75), (0.25, 0.8, 1.25), (0.25, 1.3, 1.75)])
def test_a_shared_entry_ends_the_series_at_the_eager_tick(monkeypatch, sample_interval, holding,
                                                          last_tick):
    cfg = SimConfig(max_requests=1, probes_per_interval=1, probe_interval=0.5,
                    sample_interval=sample_interval)
    arrivals = [(0.25, 0, 2, holding)]
    eager = EagerQueue(cfg, arrivals=arrivals).run()
    report, keys, entries, _ = ordered_run(monkeypatch, Simulation(cfg, arrivals=arrivals))
    assert keys == sorted(keys)
    assert report == eager  # the series included
    assert report.series[-1][0] == last_tick
    # no call joins a tick's entry, so a tick is the last event of its entry: at
    # (0.5, 0.25) the departure at 0.5 s would otherwise join the first tick's
    shared = [kinds for kinds in entries if len(kinds) > 1]
    assert all(SAMPLE_TICK not in kinds[:-1] for kinds in shared)
    if sample_interval == 0.25:  # the tick 0.25 s after the arrival shares its instant's entry
        together = [DEPARTURE] if holding == 0.25 else [PROBE_SEND] * 3
        assert together + [SAMPLE_TICK] in shared


def test_per_event_calls_are_positional_with_a_fixed_arity():
    # a call through *args or **kwargs compiles to CALL_FUNCTION_EX, which the
    # specialising interpreter (PEP 659) never inlines; every event makes these calls
    handlers = list(Simulation._HANDLERS.values())
    routers = [Simulation(SimConfig(router=r))._establish for r in (ROUTER_RFTR, ROUTER_BASELINE)]
    for fn in [Simulation.run, Simulation.schedule, Simulation._end, *handlers, *routers]:
        assert inspect.isfunction(fn), fn  # not a partial, whose keywords take the slow path
        assert "CALL_FUNCTION_EX" not in {ins.opname for ins in dis.get_instructions(fn)}, fn
    variadic = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    for fn in [Simulation.schedule, *handlers]:
        assert not [p for p in inspect.signature(fn).parameters.values() if p.kind in variadic]
    for fn in handlers:  # exactly (self, payload)
        params = list(inspect.signature(fn).parameters.values())
        assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 2, fn
        assert params[0].name == "self" and params[1].default is inspect.Parameter.empty


@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
def test_a_simulation_holds_no_reference_cycle(router):
    # with the cyclic collector off, a run is freed only if nothing it holds refers back
    # to it: the handlers are unbound and the router closes over the topology, not self
    cfg = SimConfig(router=router, wavelengths=2, arrival_rate=6.0, holding_time=0.5,
                    max_requests=200, seed=3, failures=[(2.0, 0), (4.0, 9)], repairs=[(3.0, 0)])
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulation(cfg, audit=True)
        report, alive = sim.run(), weakref.ref(sim)
        del sim
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
    assert report.restored + report.dropped > 0


def test_a_million_channels_cost_no_memory_per_channel():
    # a lane is priced from its free count by the formula: nothing is kept per channel
    tracemalloc.start()
    try:
        report = Simulation(SimConfig(wavelengths=10**6, max_requests=3, seed=1)).run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.accepted == 3
    assert peak < 8 * 2**20


# A 0->1 demand at t = 0 on a triangle.  One busy channel on each detour link
# steers the primary onto the direct link 0-1, leaving the detour [0,2,1] as
# the only candidate.  One probe per 0.5 s window goes out at 0.25 s into the
# window, and its answer lands one detour round trip later: 62.5 ms links give
# exactly 0.25 s, landing on the window's close; 50 ms links land before it.
TRIANGLE = "nodes 3\nlink 0 1 10 8\nlink 0 2 {ms} 8\nlink 2 1 {ms} 8\n"


def landing_run(monkeypatch, detour_ms, holding, failures=()):
    """(report, estimate of each window at its close) for the triangle demand."""
    topo = parse_topology(TRIANGLE.format(ms=detour_ms))
    for link in topo.links[1:]:
        for lane in (0, 1):
            link.occupy(lane, 7)
    estimates = []
    close = ConnectionProber.close_window

    def recording(prober):  # every close, ranked or not
        estimates.append(prober.estimates())
        close(prober)

    monkeypatch.setattr(ConnectionProber, "close_window", recording)
    cfg = SimConfig(max_requests=1, probes_per_interval=1, probe_interval=0.5,
                    failures=list(failures))
    sim = Simulation(cfg, topology=topo, audit=True, arrivals=[(0.0, 0, 1, holding)])
    return sim.run(), estimates


@pytest.mark.parametrize("holding", [1.9, 2.0])
def test_feedback_landing_at_close_counts_only_in_totals(monkeypatch, holding):
    # sends at 0.25, 0.75, 1.25, 1.75 land at 0.5, 1.0, 1.5, 2.0: each lands on
    # its window's close, so no window sees it; the last lands at or after the
    # departure and counts nowhere
    report, estimates = landing_run(monkeypatch, 62.5, holding)
    assert estimates == [[1.0]] * 3
    assert report.probes_sent == 4
    assert (report.probe_packs, report.probe_nacks) == (3, 0)


def test_feedback_landing_before_close_moves_the_estimate(monkeypatch):
    report, estimates = landing_run(monkeypatch, 50, 2.0)  # lands 0.05 s before each close
    assert estimates == [[0.0]] * 3
    assert (report.probes_sent, report.probe_packs) == (4, 4)


def test_feedback_landing_at_drop_counts_nowhere(monkeypatch):
    # at 1.0 the detour fails, then the primary: the demand drops with the
    # answer sent at 0.75 landing at that instant
    report, estimates = landing_run(monkeypatch, 62.5, 2.0, failures=[(1.0, 2), (1.0, 0)])
    assert report.dropped == 1
    assert estimates == [[1.0]]
    assert (report.probes_sent, report.probe_packs, report.probe_nacks) == (2, 1, 0)


def test_windows_are_ranked_only_when_a_failure_reads_them(monkeypatch):
    calls = Counter()
    for name in ("close_window", "close_and_rank"):
        method = getattr(ConnectionProber, name)
        monkeypatch.setattr(ConnectionProber, name,
                            lambda prober, n=name, m=method: calls.update([n]) or m(prober))
    cfg = SimConfig(wavelengths=2, arrival_rate=6.0, holding_time=0.5, max_requests=300, seed=3)
    Simulation(cfg).run()
    assert calls["close_window"] > 100 and calls["close_and_rank"] == 0
    calls.clear()
    report = Simulation(replace(cfg, failures=[(2.0, 0), (4.0, 9), (6.0, 5)])).run()
    # each connection a failure hits reads its ranking once, and sorts at most once
    assert 0 < calls["close_and_rank"] <= report.restored + report.dropped


def test_send_queued_before_a_drop_is_ignored(monkeypatch):
    # the send at 0.75 queues the next for 1.25; the demand drops at 1.0, so
    # that send pops for a connection with no lightpath and probes nothing
    kinds = counted_kinds(monkeypatch)
    sends = []
    sent = ConnectionProber.sent

    def recording(prober, path_index, outcome, now):
        sends.append(now)
        return sent(prober, path_index, outcome, now)

    monkeypatch.setattr(ConnectionProber, "sent", recording)
    report, _ = landing_run(monkeypatch, 62.5, 2.0, failures=[(1.0, 2), (1.0, 0)])
    assert report.dropped == 1
    assert kinds[PROBE_SEND] == 3
    assert sends == [0.25, 0.75]
    assert report.probes_sent == 2


# A 0->1 demand at t = 0 on a diamond: the direct link 0-1 carries the primary
# and the detours [0,2,1] and [0,3,1] are the candidates, in that order.  Every
# channel of link 0-2 is busy, so the first window (one probe at 0.25 s,
# answers back at 0.29 s) ranks [0,3,1] first; the next window's first send
# is at 0.75 s.
DIAMOND = ("nodes 4\nlink 0 1 10 8\nlink 0 2 10 8\nlink 2 1 10 8\n"
           "link 0 3 10 8\nlink 3 1 10 8\n")


def busy_diamond():
    topo = parse_topology(DIAMOND)
    for w in range(8):
        topo.links[1].occupy(FORWARD, w)
    for link in topo.links[3:]:  # one busy channel steers the primary off [0,3,1]
        link.occupy(FORWARD, 7)
    return topo


def test_failure_between_close_and_next_send_reroutes_on_the_closed_window(monkeypatch):
    topo = busy_diamond()
    tried = []
    reroute = wdmsim.engine.reroute

    def recording(topology, backups, *args, **kwargs):
        tried.append([hops.route for hops in backups])
        return reroute(topology, backups, *args, **kwargs)

    monkeypatch.setattr(wdmsim.engine, "reroute", recording)
    cfg = SimConfig(max_requests=1, probes_per_interval=1, probe_interval=0.5,
                    failures=[(0.6, 0)])
    report = Simulation(cfg, topology=topo, audit=True, arrivals=[(0.0, 0, 1, 2.0)]).run()
    # the window closed at 0.5; no send of the next one went out before 0.6
    assert tried == [[(0, 3, 1), (0, 2, 1)]]
    assert report.restored == 1 and report.dropped == 0
    assert report.probe_packs >= 1 and report.probe_nacks >= 1


def test_a_restore_sets_up_on_the_probers_own_record(monkeypatch):
    # the failure at 0.6 restores onto [0,3,1], ranked first at the close at
    # 0.5, using the candidate's own record: nothing is resolved again
    resolve = Topology.hops
    failing, resolved = [], []
    monkeypatch.setattr(Topology, "hops", lambda self, route: (
        failing and resolved.append(tuple(route))) or resolve(self, route))
    on_failure = Simulation._HANDLERS[LINK_FAILURE]
    restores = []

    def failure(sim, link_id):
        failing.append(link_id)
        on_failure(sim, link_id)
        failing.clear()
        conn = sim.connections[0]
        restores.append((conn.current.hops, conn.prober.candidates))

    monkeypatch.setitem(Simulation._HANDLERS, LINK_FAILURE, failure)
    cfg = SimConfig(max_requests=1, probes_per_interval=1, probe_interval=0.5,
                    failures=[(0.6, 0)])
    sim = Simulation(cfg, topology=busy_diamond(), audit=True, arrivals=[(0.0, 0, 1, 2.0)])
    assert sim.run().restored == 1
    [(hops, candidates)] = restores
    assert [c.route for c in candidates] == [(0, 2, 1), (0, 3, 1)]
    assert hops is candidates[1]
    assert resolved == []


# A 0->1 demand on a diamond: either router's primary is the direct link 0-1,
# and the detours [0,2,1] and [0,3,1] are disjoint from it.  The first failure
# moves the connection onto [0,2,1] while 0-1 is down; the second, after 0-1
# is back, cuts [0,2,1].  Backups disjoint from [0,2,1] would start with the
# repaired [0,1]; those disjoint from the original primary go to [0,3,1].
# rftr's schedule ends inside its first probe window (closing at 0.5 s), so
# its backups are its prober's candidates in candidate order: both routers
# take them from one lookup.
DIAMOND_SCHEDULES = {  # router -> (failures, repairs)
    ROUTER_BASELINE: ([(1.0, 0), (2.0, 1)], [(1.5, 0)]),
    ROUTER_RFTR: ([(0.1, 0), (0.3, 1)], [(0.2, 0)]),
}


@pytest.mark.parametrize("router", [ROUTER_BASELINE, ROUTER_RFTR])
def test_unranked_backups_stay_disjoint_from_the_original_primary(monkeypatch, router):
    tried, restored_onto = [], []
    reroute = wdmsim.engine.reroute

    def recording(topology, backups, *args, **kwargs):
        tried.append([hops.route for hops in backups])
        lp = reroute(topology, backups, *args, **kwargs)
        restored_onto.append(lp.hops.route)
        return lp

    monkeypatch.setattr(wdmsim.engine, "reroute", recording)
    calls = count_yen_calls(monkeypatch)
    failures, repairs = DIAMOND_SCHEDULES[router]
    cfg = SimConfig(router=router, max_requests=1, failures=failures, repairs=repairs)
    sim = Simulation(cfg, topology=parse_topology(DIAMOND), audit=True,
                     arrivals=[(0.0, 0, 1, 5.0)])
    report = sim.run()
    assert tried == [[(0, 2, 1), (0, 3, 1)]] * 2
    assert restored_onto == [(0, 2, 1), (0, 3, 1)]
    assert report.restored == 1 and report.dropped == 0  # one connection, restored twice
    # the one lookup bans the original primary's link; the baseline's is at the
    # first failure, rftr's at setup, for the candidates its prober holds
    assert [call[4] for call in calls] == [frozenset({0})]


def test_an_rftr_connection_with_no_disjoint_candidate_looks_up_once(monkeypatch):
    # on a chain nothing is disjoint from the primary 0-1-2: the failure ranks
    # the prober's empty setup lookup, falls back to a fresh setup, and drops
    lookups = []
    lookup = wdmsim.engine.candidate_paths
    monkeypatch.setattr(wdmsim.engine, "candidate_paths",
                        lambda *args: lookups.append(args[1:3]) or lookup(*args))
    cfg = SimConfig(router=ROUTER_RFTR, max_requests=1, failures=[(1.0, 0)])
    sim = Simulation(cfg, topology=parse_topology(CHAIN), audit=True,
                     arrivals=[(0.0, 0, 2, 5.0)])
    report = sim.run()
    assert lookups == [(0, 2)]
    assert report.dropped == 1 and report.probes_sent == 0


@pytest.mark.parametrize("holding", [0.2, 0.25])
def test_session_ending_by_its_first_slot_sends_no_probe(monkeypatch, holding):
    # the first send would be at 0.25 s: at or after the departure, none is scheduled
    kinds = counted_kinds(monkeypatch)
    report, estimates = landing_run(monkeypatch, 50, holding)
    assert kinds[PROBE_SEND] == 0
    assert report.probes_sent == 0 and estimates == []


# -- invariants under python -O ------------------------------------------------

def test_leak_check_raises_under_optimised_python():
    # -O strips every bare assert; the end-of-run leak check must still raise, audit or not
    code = textwrap.dedent("""
        import wdmsim.engine as engine
        from wdmsim.errors import InvariantError
        assert False, "stripped under -O; reached only without it"
        engine.release_lightpath = lambda lp: None  # departures leak channels
        for audit in (True, False):
            try:
                engine.run(engine.SimConfig(seed=1, max_requests=20), audit=audit)
            except InvariantError as err:
                print(f"InvariantError: {err}")
    """)
    src = str(Path(wdmsim.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2 and all(line.startswith("InvariantError: channel leak") for line in lines)


def test_a_lightpath_that_changes_wavelength_without_conversion_is_refused(monkeypatch):
    # a router that ignores the run's mode: the engine's continuity check must catch it
    establish = wdmsim.engine.establish_primary
    monkeypatch.setattr(wdmsim.engine, "establish_primary",
                        lambda topology, src, dst, lt, mode, ct:
                        establish(topology, src, dst, lt, FULL_CONVERSION, ct))
    topology = parse_topology(CHAIN)
    topology.links[0].occupy(FORWARD, 0)  # so full conversion takes 1 on 0-1 and 0 on 1-2
    sim = Simulation(SimConfig(max_requests=1), topology=topology, arrivals=[(0.1, 0, 2, 1.0)])
    with pytest.raises(InvariantError, match="^wavelength continuity violated$"):
        sim.run()


def test_an_entry_earlier_than_the_clock_is_refused(monkeypatch):
    def push_into_the_past(sim, demand):
        heappush(sim._heap, (sim.now - 0.5, -1, LINK_REPAIR, 0))

    monkeypatch.setitem(Simulation._HANDLERS, ARRIVAL, push_into_the_past)
    sim = Simulation(SimConfig(max_requests=1), topology=parse_topology(CHAIN),
                     arrivals=[(1.0, 0, 2, 1.0)])
    with pytest.raises(InvariantError, match="^event clock went backwards$"):
        sim.run()


# -- steps the clock cannot take --------------------------------------------------

STEP_RUN = textwrap.dedent("""
    import json, sys
    from wdmsim.engine import SimConfig, Simulation
    from wdmsim.errors import ConfigError
    fields, arrivals = json.loads(sys.argv[1])
    try:
        sim = Simulation(SimConfig(**fields),
                         arrivals=None if arrivals is None else map(tuple, arrivals))
    except ConfigError as err:
        print(f"ConfigError at construction: {err}")
    else:
        print(f"ran: offered={sim.run().offered}")
""")


def run_in_child(fields: dict, arrivals=None) -> str:
    """One run in a child process, so that a run that never ends fails the test by its
    timeout instead of hanging it; floats pass through JSON exactly."""
    src = str(Path(wdmsim.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", STEP_RUN, json.dumps([fields, arrivals])],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=30)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("field", ["probe_interval", "sample_interval"])
def test_a_step_the_clock_cannot_take_is_refused(field):
    out = run_in_child({"max_requests": 3, "seed": 1, field: 1e-300})
    assert out.startswith(f"ConfigError at construction: {field}: ")


def test_a_baseline_run_is_refused_for_its_ticks_but_not_for_probes_it_never_sends():
    baseline = {"max_requests": 3, "seed": 1, "router": ROUTER_BASELINE}
    assert run_in_child({**baseline, "sample_interval": 1e-300}).startswith(
        "ConfigError at construction: sample_interval: ")
    for probe_interval in (1e-300, 1e-9):
        assert run_in_child({**baseline, "probe_interval": probe_interval}) == "ran: offered=3\n"


@pytest.mark.parametrize("field", ["probe_interval", "sample_interval"])
def test_a_step_too_small_for_the_run_to_end_is_refused(field):
    # 1e-9 s moves the clock, but a run lasting 1.35 s would take over 1e9 ticks or sends
    out = run_in_child({"max_requests": 3, "seed": 1, field: 1e-9})
    assert re.fullmatch(f"ConfigError at construction: {field}: .* events by 1.35312 s,"
                        " over the .*\n", out), out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_event_caps_bound_what_a_run_schedules(monkeypatch, seed):
    # a cap just under what a run took is refused: the bound the cap is compared with
    # is at least what the run schedules, failures and restorations included
    config = SimConfig(max_requests=60, seed=seed, arrival_rate=3.0, holding_time=0.5,
                       failures=[(2.0, 0), (4.0, 3)], repairs=[(6.0, 0)])
    report = Simulation(config).run()
    # a run of T ticks found an event pending at tick T - 1, so it lasts over T - 2 steps
    for name, cap, field in (("MAX_TICKS", len(report.series) - 2, "sample_interval"),
                             ("MAX_PROBE_SENDS", report.probes_sent - 1, "probe_interval")):
        with monkeypatch.context() as patch:
            patch.setattr(wdmsim.engine, name, cap)
            with pytest.raises(ConfigError, match=f"^{field}: .* events by "):
                Simulation(config)


@pytest.mark.parametrize("field, value, failure, last", [
    ("sample_interval", math.ulp(1.0) / 2, 0.75, "1"),
    ("probe_interval", math.ulp(1.0) / 2 * 11, 0.75, "1"),  # the step is probe_interval / 11
    ("sample_interval", math.ulp(1.0), 2.0, "2"),  # moves 1.0, but not 2.0
], ids=["tick", "probe", "tick-after-the-last-departure"])
def test_the_step_refusal_comes_before_the_first_event(field, value, failure, last):
    # one session departs at 1.0; a step of half the float spacing rounds back
    fields = {"max_requests": 1, "failures": [(failure, 0)], field: value}
    out = run_in_child(fields, arrivals=[(0.5, 0, 2, 0.5)])
    assert re.fullmatch(f"ConfigError at construction: {field}: .* at {last} s\n", out), out


def _free_held(sim):
    sim.topology.links[0].release(FORWARD, sim.connections[0].current.wavelengths[0])


def _occupy_stray(sim):
    sim.topology.links[3].occupy(REVERSE, 5)


def _record_twice(sim):
    sim.connections[1].current.wavelengths = list(sim.connections[0].current.wavelengths)


def _take_link_down(sim):
    sim.topology.links[0].up = False  # link 0 carries both sessions


def _release_live(sim):
    release_lightpath(sim.connections[0].current)  # its connection stays live


def _flip_last_reverse_lane(sim):
    # the last arc of the masks, which neither session uses: a comparison that drops a
    # lane or a link misses it
    sim.topology.links[-1]._free[REVERSE] ^= 1 << 7


def _swap_lanes(sim):
    # every mask value stays, on another arc: a comparison blind to arc order misses it
    first, last = sim.topology.links[0]._free, sim.topology.links[-1]._free
    first[FORWARD], last[REVERSE] = last[REVERSE], first[FORWARD]


@pytest.mark.parametrize("tamper, message", [
    (_free_held, "channel leak"),
    (_occupy_stray, "channel leak"),
    (_record_twice, "held twice"),
    (_take_link_down, "connection 0 rides a down link"),
    (_release_live, "connection 0 holds 0 wavelengths on 2 hops"),
    (_flip_last_reverse_lane, "channel leak"),
    (_swap_lanes, "channel leak"),
])
def test_audit_catches_occupancy_changed_behind_the_engine(tamper, message):
    # two pinned 0->2 sessions, both on [0,1,2] (wavelengths 0 and 1); just
    # before link 2 (off their route) fails, the masks or a lightpath's
    # record change without any lightpath setup or release
    def two_sessions():
        cfg = SimConfig(arrival_rate=50.0, max_requests=2, router=ROUTER_BASELINE,
                        failures=[(1.0, 2)])
        topo = square_topology()
        pinned = [(t, 0, 2, 50.0) for (t, _, _, _) in Simulation(cfg, topology=topo).arrivals]
        return Simulation(cfg, topology=topo, audit=True, arrivals=pinned)

    assert two_sessions().run().completed == 2  # untouched, the audit passes
    sim = two_sessions()
    fail = Simulation._HANDLERS[LINK_FAILURE]

    def tampering_failure(self, link_id):
        assert [c.current.wavelengths for c in self.connections.values()] == [[0, 0], [1, 1]]
        tamper(self)
        fail(self, link_id)

    sim._HANDLERS = {**Simulation._HANDLERS, LINK_FAILURE: tampering_failure}
    with pytest.raises(InvariantError, match=message):
        sim.run()


# -- analytic oracle -------------------------------------------------------------

@pytest.mark.parametrize("erlangs, wavelengths", [(1, 2), (2, 4), (6, 8)])
def test_single_link_blocking_matches_erlang_b(erlangs, wavelengths):
    # one link, two lanes: each lane gets half the demands, so it is an
    # M/M/W/W loss system offered `erlangs` and blocks with Erlang-B
    topology_text = f"nodes 2\nlink 0 1 10 {wavelengths}\n"
    cfg = SimConfig(router=ROUTER_BASELINE, session_traffics=1, holding_time=1.0,
                    arrival_rate=2.0 * erlangs, max_requests=5000)
    blocking = [
        run(replace(cfg, seed=seed), topology=parse_topology(topology_text)).blocking_probability
        for seed in range(10)
    ]
    stderr = statistics.stdev(blocking) / math.sqrt(len(blocking))
    assert abs(statistics.mean(blocking) - erlang_b(erlangs, wavelengths)) <= 3 * stderr


@pytest.mark.parametrize("total_rate", [6.0, 9.0, 12.0])
def test_line_blocking_matches_erlang_fixed_point(total_rate):
    # a 3-node line with full conversion is a loss network: each direction of
    # each link is a 4-circuit trunk group, every ordered pair offers
    # total_rate / 6 Erlangs on its one route, and the reduced-load
    # approximation is within a few per cent of the simulated blocking
    line = "nodes 3\nlink 0 1 10 4\nlink 1 2 10 4\n"
    cfg = SimConfig(router=ROUTER_BASELINE, conversion_mode="full", session_traffics=1,
                    arrival_rate=total_rate, holding_time=1.0, max_requests=2000,
                    sample_interval=1000.0)
    blocking = statistics.mean(
        run(replace(cfg, seed=seed), topology=parse_topology(line)).blocking_probability
        for seed in range(20)
    )
    routes = []
    for src in range(3):
        for dst in range(3):
            if src != dst:
                step = 1 if dst > src else -1
                nodes = range(src, dst + step, step)
                routes.append((total_rate / 6, tuple(zip(nodes, nodes[1:]))))
    want = erlang_fixed_point(routes, 4)
    assert abs(blocking - want) <= 0.1 * want
