"""End-to-end acceptance battery.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(with its measured statistic and runtime) even under captured output, so a
full run leaves an auditable seven-line verdict.  Tolerances are pinned in
the constants below next to the criterion they belong to.
"""

import math
import random
import statistics
import time
from fractions import Fraction

from oracles import (
    hops_of,
    k_best_disjoint,
    loaded_edge_cost,
    min_cost_route,
    priced_arc,
    random_failure_schedule,
    random_topology,
    window_probes,
)
from wdmsim.cli import run_scenario
from wdmsim.config import parse_config
from wdmsim.engine import (
    ROUTER_BASELINE,
    ROUTER_RFTR,
    SimConfig,
    Simulation,
    run,
)
from wdmsim.errors import InvariantError
from wdmsim.probing import (
    NACK,
    PACK,
    ConnectionProber,
    candidate_paths,
    k_shortest_hop_paths,
)
from wdmsim.routing import establish_primary, least_cost_path, link_cost
from wdmsim.topology import Link, Topology, parse_topology


def announce(capsys, number, title, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{verdict}] criterion {number} ({title}): {detail} "
              f"[{elapsed:.2f}s / budget {budget:.0f}s]")


def one_route_prober(probes):
    """A prober over one candidate route with no delay, ``probes`` probes per window."""
    return ConnectionProber((hops_of((0, 1)),), probes, 0.5, math.inf)


# -- 1: cost formula fidelity -------------------------------------------------
# grid: LI in {0.00, 0.01, ..., 1.00} x LT in {0.1, ..., 0.9}; exact equality

def test_criterion_1_formula_fidelity(capsys):
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for j in range(1, 10):
        lt = j / 10
        for i in range(101):
            li = i / 100
            li_q, lt_q = Fraction(i, 100), Fraction(j, 10)
            if li_q == 0:
                expected = math.inf
            elif li_q > lt_q:
                expected = 1.0 - li
            else:
                expected = 1.0 + li
            checked += 1
            if link_cost(li, lt) != expected:
                mismatches += 1

    # free-channel fraction, exact dyadic and non-dyadic, as least_cost_path
    # prices an arc at every grid LT (0.5 is 4 of 8 free: the jump)
    lts = [j / 10 for j in range(1, 10)]
    link = Link(0, 0, 1, 0.01, 8)
    for occupied in range(9):
        for w in range(occupied):
            link.occupy(0, w)
        assert link.free_mask(0).bit_count() == 8 - occupied
        li = float(Fraction(8 - occupied, 8))
        topo = Topology(2, [link])
        assert all(priced_arc(topo, link, 0, lt) == link_cost(li, lt) for lt in lts)
        for w in range(occupied):
            link.release(0, w)
    three = Link(0, 0, 1, 0.01, 3)
    three.occupy(0, 0)
    assert three.free_mask(0).bit_count() == 2
    topo = Topology(2, [three])
    assert all(priced_arc(topo, three, 0, lt) == link_cost(float(Fraction(2, 3)), lt)
               for lt in lts)

    # NACK fraction over resolved probes, plus the no-evidence sentinel
    prober = one_route_prober(10)
    for t, j, slot in window_probes(prober, 0.0):
        prober.sent(j, NACK if slot < 3 else PACK, t)
    assert prober.estimates() == [float(Fraction(3, 10))]
    assert one_route_prober(10).estimates() == [1.0]

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 1.0
    announce(capsys, 1, "formula fidelity", ok,
             f"{checked} grid points, {mismatches} mismatches", elapsed, 1)
    assert ok


# -- 2: routing equals brute force -------------------------------------------
# 200 random topologies (<= 8 nodes, random occupancy and link state); the
# router's route cost must equal the exhaustive minimum, and the candidate
# enumeration must equal the exhaustive k-best link-disjoint list

def test_criterion_2_routing_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    lt = SimConfig().load_threshold
    cost_fn = loaded_edge_cost(lt)  # the oracle's, which counts free bits one at a time
    route_checks = candidate_checks = 0
    for case in range(200):
        rng = random.Random(9200 + case)
        topo = random_topology(rng)
        src = rng.randrange(topo.num_nodes)
        dst = (src + 1 + rng.randrange(topo.num_nodes - 1)) % topo.num_nodes

        want = min_cost_route(topo, src, dst, cost_fn)
        found = least_cost_path(topo, src, dst, lt)
        cost = math.inf if found is None else found[1]
        result = establish_primary(topo, src, dst, lt)
        if want is None:
            assert result.blocked and math.isinf(cost)
        else:
            assert cost == want[1]  # exact float equality
            if not result.blocked:
                assert result.lightpath.hops.route == want[0]
        route_checks += 1

        k = rng.randint(1, 4)
        if result.blocked or result.lightpath is None:
            banned = frozenset(l.id for l in topo.links if rng.random() < 0.3)
        else:
            cands = candidate_paths(topo, src, dst, result.lightpath, k)
            banned = result.lightpath.hops.link_ids
            assert [hops.route for hops in cands] == k_best_disjoint(topo, src, dst, banned, k)
        assert k_shortest_hop_paths(topo, src, dst, k, banned) == \
            k_best_disjoint(topo, src, dst, banned, k)
        candidate_checks += 1

    elapsed = time.perf_counter() - t0
    ok = route_checks == 200 and candidate_checks == 200 and elapsed < 30.0
    announce(capsys, 2, "routing oracle equivalence", ok,
             f"{route_checks} route + {candidate_checks} candidate comparisons",
             elapsed, 30)
    assert ok


# -- 3: estimator convergence -------------------------------------------------
# Bernoulli loss at p in {0.1, 0.5, 0.9}, N = 100 probes, 1000 windows per p;
# the estimate must fall within 3 sigma of p in >= 99% of windows

def test_criterion_3_estimator_convergence(capsys):
    t0 = time.perf_counter()
    N = 100
    windows_per_p = 1000
    results = {}
    for p in (0.1, 0.5, 0.9):
        rng = random.Random(int(p * 1000) ^ 0x5EED)
        sigma = math.sqrt(p * (1 - p) / N)
        hits = 0
        prober = one_route_prober(N)
        for w in range(windows_per_p):
            sends = window_probes(prober, 0.5 * w)
            assert len(sends) == N
            for t, j, slot in sends:
                prober.sent(j, NACK if rng.random() < p else PACK, t)
            [estimate] = prober.estimates()
            prober.close_and_rank()
            if abs(estimate - p) <= 3 * sigma:
                hits += 1
        results[p] = hits / windows_per_p

    elapsed = time.perf_counter() - t0
    ok = all(frac >= 0.99 for frac in results.values()) and elapsed < 10.0
    detail = ", ".join(f"p={p}: {frac:.1%} within 3 sigma" for p, frac in results.items())
    announce(capsys, 3, "estimator convergence", ok, detail, elapsed, 10)
    assert ok


# -- 4: safety invariants under fuzzing --------------------------------------
# 100 seeded stock runs, one random single-link failure each; the engine's
# audit mode asserts channel exclusivity, wavelength continuity, failure
# safety and leak freedom; conservation is checked here explicitly

def test_criterion_4_safety_invariants(capsys):
    t0 = time.perf_counter()
    violations = 0
    for seed in range(100):
        cfg = SimConfig(seed=seed)
        sim = Simulation(cfg, audit=True)
        horizon = max(t for t, _, _, _ in sim.arrivals)
        cfg.failures = random_failure_schedule(sim.topology, seed, horizon)
        sim = Simulation(cfg, audit=True)
        try:
            report = sim.run()
        except InvariantError:
            violations += 1
            continue
        if report.accepted + report.blocked != 50 or report.offered != 50:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    announce(capsys, 4, "safety invariants", ok,
             f"100 fuzzed runs, {violations} violations", elapsed, 60)
    assert ok


# -- 5: determinism -----------------------------------------------------------
# identical scenario, three repeat executions: every CSV artifact must be
# byte-identical

DETERMINISM_CFG = """\
name = det
router = both
sweep = rate 2,4
seeds = 3,4
wavelengths = 2
arrival_rate = 6.0
holding_time = 0.5
max_requests = 60
failures = 2.0:9
"""


def test_criterion_5_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    dirs = []
    for label in ("a", "b", "c"):
        scenario = parse_config(DETERMINISM_CFG)
        dirs.append(run_scenario(scenario, tmp_path / label).out_dir)
    names = sorted(p.name for p in dirs[0].iterdir())
    mismatched = []
    for name in names:
        blobs = {(d / name).read_bytes() for d in dirs}
        if len(blobs) != 1:
            mismatched.append(name)
    elapsed = time.perf_counter() - t0
    ok = not mismatched and len(names) >= 10
    announce(capsys, 5, "determinism", ok,
             f"{len(names)} artifacts x3 executions, {len(mismatched)} differ",
             elapsed, 60)
    assert ok


# -- 6: qualitative trends ----------------------------------------------------
# mean blocking over 20 seeds must be non-decreasing along the rate sweep
# {2,4,6,8} Mb/s and the sources sweep {1,2,3,4} for both routers; adjacent
# points may dip by at most one pooled standard error

SEEDS_6 = range(20)
LOADED = dict(wavelengths=2, arrival_rate=4.0, holding_time=0.5, max_requests=100)


def _mean_se(values):
    mean = statistics.mean(values)
    se = statistics.stdev(values) / math.sqrt(len(values)) if len(values) > 1 else 0.0
    return mean, se


def _sweep_blocking(router, param, sweep_values):
    points = []
    for value in sweep_values:
        overrides = dict(LOADED)
        if param == "rate":
            overrides["data_rate_mbps"] = float(value)
        else:
            overrides["session_traffics"] = int(value)
        bps = [
            run(SimConfig(router=router, seed=seed, **overrides)).blocking_probability
            for seed in SEEDS_6
        ]
        points.append(_mean_se(bps))
    return points


def test_criterion_6_qualitative_trends(capsys):
    t0 = time.perf_counter()
    inversions = []
    summaries = []
    for router in (ROUTER_RFTR, ROUTER_BASELINE):
        for param, sweep_values in (("rate", [2, 4, 6, 8]), ("sources", [1, 2, 3, 4])):
            points = _sweep_blocking(router, param, sweep_values)
            means = [m for m, _ in points]
            for (m_lo, se_lo), (m_hi, se_hi) in zip(points, points[1:]):
                pooled = math.sqrt(se_lo**2 + se_hi**2)
                if m_hi < m_lo - pooled:  # tolerance: one pooled standard error
                    inversions.append((router, param, m_lo, m_hi, pooled))
            summaries.append(f"{router}/{param}: " + "->".join(f"{m:.3f}" for m in means))
    elapsed = time.perf_counter() - t0
    ok = not inversions and elapsed < 300.0
    announce(capsys, 6, "qualitative trends", ok,
             "; ".join(summaries) + f"; {len(inversions)} inversions", elapsed, 300)
    assert ok


# -- 7: restoration efficacy --------------------------------------------------
# scripted 4-cycle, one pinned 0->2 demand, failure on the primary's first
# link; with the disjoint detour measured clean (bp = 0) all 50 seeded runs
# must restore; with every candidate pre-saturated all 50 must drop

def _scripted(seed, saturate):
    topo = parse_topology(
        "nodes 4\nlink 0 1 10 8\nlink 1 2 10 8\nlink 2 3 10 8\nlink 3 0 10 8\n"
    )
    if saturate:
        for link_id in (2, 3):
            link = topo.links[link_id]
            for lane in (0, 1):
                for w in range(link.total_channels):
                    link.occupy(lane, w)
    cfg = SimConfig(arrival_rate=50.0, max_requests=1, seed=seed,
                    failures=[(1.0, 0)], router=ROUTER_RFTR)
    pinned = [(t, 0, 2, 50.0) for (t, _, _, _) in Simulation(cfg, topology=topo).arrivals]
    return Simulation(cfg, topology=topo, audit=True, arrivals=pinned).run()


def test_criterion_7_restoration_efficacy(capsys):
    t0 = time.perf_counter()
    restored = dropped_when_free = 0
    for seed in range(50):
        report = _scripted(seed, saturate=False)
        restored += report.restored
        dropped_when_free += report.dropped
        assert report.probe_packs > 0 and report.probe_nacks == 0  # measured bp = 0

    dropped = restored_when_saturated = 0
    for seed in range(50):
        report = _scripted(seed, saturate=True)
        dropped += report.dropped
        restored_when_saturated += report.restored
        assert report.probe_nacks > 0  # probing saw the saturation

    elapsed = time.perf_counter() - t0
    ok = (restored == 50 and dropped_when_free == 0
          and dropped == 50 and restored_when_saturated == 0)
    announce(capsys, 7, "restoration efficacy", ok,
             f"free backup: {restored}/50 restored; "
             f"saturated: {dropped}/50 dropped", elapsed, 60)
    assert ok
