import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import k_best_disjoint, random_topology
from wdmsim.engine import SimConfig
from wdmsim.errors import ConfigError, DuplicateFeedbackError, UnknownSequenceError
from wdmsim.probing import (
    NACK,
    PACK,
    BlockingEstimate,
    CandidateSet,
    ConnectionProber,
    ProbePolicy,
    ProbeWindow,
    blocking_probability,
    candidate_paths,
    emit_probes,
    k_shortest_hop_paths,
    probe_outcome,
    rank_and_select,
    record_feedback,
    reroute,
)
from wdmsim.routing import establish_primary, establish_baseline
from wdmsim.topology import FORWARD, parse_topology, set_link_state

LT = SimConfig().load_threshold

RING8 = "nodes 8\n" + "\n".join(
    f"link {i} {(i + 1) % 8} 10 8" for i in range(8)
) + "\n"


# -- candidate enumeration ----------------------------------------------------

def test_ring_complement_is_only_disjoint_candidate():
    topo = parse_topology(RING8)
    primary = establish_primary(topo, 0, 1, LT).lightpath
    assert primary.route == [0, 1]
    cands = candidate_paths(topo, 0, 1, primary, k=2)
    assert cands.paths == [(0, 7, 6, 5, 4, 3, 2, 1)]


def test_single_disjoint_route(two_route):
    primary = establish_primary(two_route, 0, 1, LT).lightpath
    assert primary.route == [0, 2, 1]
    cands = candidate_paths(two_route, 0, 1, primary, k=3)
    assert cands.paths == [(0, 3, 1)]


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
    set_link_state(square.links[3], up=False)
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


def test_candidate_rtts_are_twice_the_hop_delays():
    topo = parse_topology(
        "nodes 5\nlink 0 1 10 8\nlink 1 4 20 8\nlink 0 2 5 8\nlink 2 4 40 8\n"
        "link 0 3 7 8\nlink 3 4 3 8\nlink 2 3 1 8\n"
    )
    primary = establish_baseline(topo, 0, 4).lightpath
    cands = candidate_paths(topo, 0, 4, primary, k=3)
    assert len(cands.paths) == 3
    expected = tuple(
        2.0 * sum(topo.link_between(u, v).delay for u, v in zip(p, p[1:])) for p in cands.paths
    )
    assert cands.rtts == expected
    assert len(set(expected)) == 3  # a misaligned RTT would show


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
    primary_links = set(primary.link_ids)
    for route in cands.paths:
        used = {link.id for link, _ in topo.hops(route)}
        assert not (used & primary_links)


# -- probe policy and windows -------------------------------------------------

def test_effective_count_adapts_to_load():
    policy = ProbePolicy(probes_per_interval=10, adaptive_scale=1.0)
    assert policy.effective_count(0.0) == 10
    assert policy.effective_count(1.0) == 5
    assert policy.effective_count(9.0) == 1
    assert policy.effective_count(1e9) == 1  # floor at one probe
    flat = ProbePolicy(probes_per_interval=10, adaptive_scale=0.0)
    assert flat.effective_count(1e9) == 10


def test_policy_validation():
    with pytest.raises(ConfigError):
        SimConfig(probes_per_interval=0).validate()
    with pytest.raises(ConfigError):
        SimConfig(probe_interval=0.0).validate()
    with pytest.raises(ConfigError):
        SimConfig(adaptive_scale=-1.0).validate()


def test_emit_probes_spread_and_accounting():
    window = ProbeWindow(path_index=0, window_start=2.0)
    policy = ProbePolicy(probes_per_interval=4, update_interval=0.5)
    events = emit_probes(window, policy, arrival_rate=0.0, now=2.0)
    assert [seq for _, seq in events] == [0, 1, 2, 3]
    assert [t for t, _ in events] == pytest.approx([2.1, 2.2, 2.3, 2.4])
    assert window.sent == 4 and window.pending == {0, 1, 2, 3}
    window.closed = True
    with pytest.raises(ValueError):
        emit_probes(window, policy, 0.0, 2.5)


def test_feedback_tallies_and_guards():
    window = ProbeWindow(path_index=0, window_start=0.0)
    emit_probes(window, ProbePolicy(probes_per_interval=3), 0.0, 0.0)
    record_feedback(window, 0, PACK)
    record_feedback(window, 1, NACK)
    assert (window.acked, window.nacked) == (1, 1)
    with pytest.raises(DuplicateFeedbackError):
        record_feedback(window, 0, PACK)
    with pytest.raises(UnknownSequenceError):
        record_feedback(window, 99, PACK)
    with pytest.raises(ValueError):
        record_feedback(window, 2, "maybe")


def test_blocking_probability_fraction_and_sentinel():
    window = ProbeWindow(path_index=2, window_start=0.0)
    emit_probes(window, ProbePolicy(probes_per_interval=10), 0.0, 0.0)
    for seq in range(7):
        record_feedback(window, seq, PACK)
    for seq in range(7, 10):
        record_feedback(window, seq, NACK)
    est = blocking_probability(window)
    assert est == BlockingEstimate(2, 3 / 10, 10)

    empty = ProbeWindow(path_index=1, window_start=0.0)
    assert blocking_probability(empty) == BlockingEstimate(1, 1.0, 0)


# -- probe outcome ------------------------------------------------------------

def test_probe_outcome_reports_admissibility(square):
    assert probe_outcome(square, (0, 1, 2)) == PACK
    set_link_state(square.links[0], up=False)
    assert probe_outcome(square, (0, 1, 2)) == NACK


def test_probe_outcome_sees_wavelength_exhaustion():
    topo = parse_topology("nodes 3\nlink 0 1 10 1\nlink 1 2 10 1\n")
    assert probe_outcome(topo, (0, 1, 2)) == PACK
    topo.links[0].occupy(FORWARD, 0, owner=-1)
    assert probe_outcome(topo, (0, 1, 2)) == NACK


def test_probe_outcome_never_mutates(square):
    before = square.occupancy_snapshot()
    probe_outcome(square, (0, 1, 2))
    set_link_state(square.links[1], up=False)
    probe_outcome(square, (0, 1, 2))
    set_link_state(square.links[1], up=True)
    assert square.occupancy_snapshot() == before


# -- ranking ------------------------------------------------------------------

def C(*paths):
    return CandidateSet(src=0, dst=9, paths=[tuple(p) for p in paths], k=len(paths),
                        rtts=(0.0,) * len(paths))


def test_rank_orders_by_estimate():
    cands = C([0, 1, 9], [0, 2, 9], [0, 3, 9])
    estimates = [
        BlockingEstimate(0, 0.6, 10),
        BlockingEstimate(1, 0.1, 10),
        BlockingEstimate(2, 0.3, 10),
    ]
    assert rank_and_select(estimates, cands, m=3) == [(0, 2, 9), (0, 3, 9), (0, 1, 9)]
    assert rank_and_select(estimates, cands, m=1) == [(0, 2, 9)]


def test_rank_breaks_ties_by_hops_then_route():
    cands = C([0, 4, 2, 9], [0, 3, 9], [0, 1, 9])
    estimates = [BlockingEstimate(j, 0.5, 4) for j in range(3)]
    assert rank_and_select(estimates, cands, m=3) == [(0, 1, 9), (0, 3, 9), (0, 4, 2, 9)]


def test_rank_sentinel_never_beats_measured_success():
    cands = C([0, 1, 9], [0, 2, 9])
    estimates = [BlockingEstimate(0, 1.0, 0), BlockingEstimate(1, 0.9, 10)]
    assert rank_and_select(estimates, cands, m=2)[0] == (0, 2, 9)


def test_rank_requires_full_estimate_cover():
    cands = C([0, 1, 9], [0, 2, 9])
    with pytest.raises(ValueError):
        rank_and_select([BlockingEstimate(0, 0.0, 5)], cands, m=2)


# -- prober lifecycle ---------------------------------------------------------

def make_prober(paths=((0, 1, 9), (0, 2, 9)), probes=4, m=2):
    cands = CandidateSet(src=0, dst=9, paths=[tuple(p) for p in paths], k=len(paths),
                         rtts=(0.0,) * len(paths))
    policy = ProbePolicy(probes_per_interval=probes, update_interval=0.5)
    return ConnectionProber(cands, policy, m=m)


def test_prober_initial_backups_follow_candidate_order():
    prober = make_prober()
    assert prober.backups == [(0, 1, 9), (0, 2, 9)]


def test_prober_reranks_on_measured_blocking():
    prober = make_prober()
    sends = prober.open_windows(0.0, arrival_rate=0.0)
    assert len(sends) == 8  # 4 probes x 2 candidates
    for _, j, seq in sends:
        prober.feedback(j, seq, NACK if j == 0 else PACK)
    backups = prober.close_and_rank()
    assert backups == [(0, 2, 9), (0, 1, 9)]


def test_prober_sequences_continue_across_windows():
    prober = make_prober()
    first = prober.open_windows(0.0, 0.0)
    for _, j, seq in first:
        prober.feedback(j, seq, PACK)
    prober.close_and_rank()
    second = prober.open_windows(0.5, 0.0)
    first_seqs = {(j, s) for _, j, s in first}
    second_seqs = {(j, s) for _, j, s in second}
    assert not (first_seqs & second_seqs)


def test_prober_accepts_feedback_after_rollover():
    prober = make_prober()
    first = prober.open_windows(0.0, 0.0)
    prober.close_and_rank()  # closes with everything still in flight
    prober.open_windows(0.5, 0.0)
    for _, j, seq in first[:-1]:  # late PACK/NACK still lands
        prober.feedback(j, seq, PACK)
    # a replay on a still-retained window (one probe in flight) is a duplicate
    resolved_on_pending_path = next(s for s in first[:-1] if s[1] == first[-1][1])
    with pytest.raises(DuplicateFeedbackError):
        prober.feedback(resolved_on_pending_path[1], resolved_on_pending_path[2], PACK)
    prober.feedback(first[-1][1], first[-1][2], PACK)
    # fully-resolved windows are discarded; replays then look unknown
    with pytest.raises(UnknownSequenceError):
        prober.feedback(first[-1][1], first[-1][2], PACK)


def test_prober_keeps_probing_suboptimal_candidates():
    prober = make_prober(m=1)
    prober.open_windows(0.0, 0.0)
    prober.close_and_rank()
    assert len(prober.backups) == 1
    sends = prober.open_windows(0.5, 0.0)
    probed_paths = {j for _, j, _ in sends}
    assert probed_paths == {0, 1}  # both candidates, not just the chosen one


def test_prober_all_sentinel_rank_keeps_candidate_order():
    prober = make_prober()
    prober.open_windows(0.0, 0.0)
    backups = prober.close_and_rank()  # no feedback resolved: all sentinels
    assert backups == [(0, 1, 9), (0, 2, 9)]


# -- reroute ------------------------------------------------------------------

def test_reroute_takes_first_viable_backup(square):
    lp = reroute(square, None, [(0, 1, 2), (0, 3, 2)], "none", 0.024)
    assert lp is not None
    assert lp.route == [0, 1, 2]
    assert lp.role == "backup"


def test_reroute_skips_down_and_saturated(square):
    set_link_state(square.links[0], up=False)  # kills (0,1,2)
    lp = reroute(square, None, [(0, 1, 2), (0, 3, 2)], "none", 0.024)
    assert lp.route == [0, 3, 2]


def test_reroute_falls_back_to_fresh_search(square):
    set_link_state(square.links[0], up=False)
    calls = []

    def fallback(role):
        calls.append(role)
        return establish_baseline(square, 0, 2, role=role)

    lp = reroute(square, None, [(0, 1, 2)], "none", 0.024, fallback_establish=fallback)
    assert calls == ["backup"]
    assert lp.route == [0, 3, 2]


def test_reroute_returns_none_when_nothing_fits():
    topo = parse_topology("nodes 3\nlink 0 1 10 1\nlink 1 2 10 1\n")
    topo.links[0].occupy(FORWARD, 0, owner=-1)

    def fallback(role):
        return establish_baseline(topo, 0, 2, role=role)

    assert reroute(topo, None, [(0, 1, 2)], "none", 0.024,
                   fallback_establish=fallback) is None
