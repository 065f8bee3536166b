"""Simulated blocking against exact answers that import nothing from ``wdmsim``.

A line under full wavelength conversion is a loss network: each pair has one
route, each lane of each link is a group of ``W`` circuits, and a call is
carried when every lane on its route has a free circuit.  Its stationary
distribution has Kelly's product form ("Loss networks", Ann. Appl. Probab.
1991), ``pi(n) ~ prod_r a_r^n_r / n_r!`` over the states that fit, so route
blocking is exact by enumeration of those states.

Without conversion a call needs one wavelength free on every lane of its route, and first
fit takes the lowest such wavelength, so which calls share a wavelength matters and no
product form holds.  Each travel direction of a line is then a Markov chain of its own,
the other direction its mirror image, whose state is the set of calls each wavelength
carries; with 2 wavelengths it has 25 states on 3 nodes and 169 on 4, and its stationary
distribution is solved exactly by Gaussian elimination.  Random fit in place of first fit
moves blocking by only 0.0004 and 0.0010, under one standard error here, so the chain also
gives how busy each wavelength is: first fit loads the lowest most, random fit neither.
"""

import math
import statistics
from collections import defaultdict
from dataclasses import replace

import pytest

from wdmsim.engine import ROUTER_BASELINE, ROUTER_RFTR, Simulation, SimConfig
from wdmsim.topology import FORWARD, REVERSE, parse_topology

# fixed before any result was looked at: ten seeds of 4,000 requests, and a
# bound of 4 standard errors of the seed mean.  The empty-network start
# touches the first few of the 4,000 requests, far under 1 SE (about 0.004).
SEEDS = range(10)
REQUESTS = 4000
NODES, WAVELENGTHS = 4, 2
# 3 calls/s held 2 s on average: 0.5 Erlangs on each of the 12 ordered pairs,
# as 6 calls/s held 1 s, but a holding time drawn at rate = mean differs here
RATE, HOLDING = 3.0, 2.0
# lanes read every half mean holding; sampling adds no randomness, so blocking is unchanged
SAMPLE_INTERVAL = 1.0


def pair_erlangs(nodes: int) -> float:
    """The load each ordered pair of ``nodes`` offers: ``RATE`` calls/s spread evenly."""
    return RATE * HOLDING / (nodes * (nodes - 1))


def line_routes(nodes: int, erlangs: float) -> list[tuple[float, tuple]]:
    """Each ordered pair's offered load and the lanes, ``(link, direction)``, it crosses."""
    routes = []
    for src in range(nodes):
        for dst in range(nodes):
            if src != dst:
                lo, hi = min(src, dst), max(src, dst)
                routes.append((erlangs, tuple((link, src < dst) for link in range(lo, hi))))
    return routes


def product_form_blocking(routes, capacity: int) -> float:
    """Exact call blocking, weighted by offered load, by enumerating every state that fits."""
    weights = {}  # state (calls per route) -> unnormalised probability

    def fill(r, state, used, weight):
        if r == len(routes):
            weights[tuple(state)] = weight
            return
        a, lanes = routes[r]
        n = 0
        while all(used.get(lane, 0) + n <= capacity for lane in lanes):
            now_used = dict(used)
            for lane in lanes:
                now_used[lane] = used.get(lane, 0) + n
            fill(r + 1, state + [n], now_used, weight * a ** n / math.factorial(n))
            n += 1

    fill(0, [], {}, 1.0)
    total = sum(weights.values())
    lost = 0.0
    for r, (a, _) in enumerate(routes):
        # a call on route r is carried in the states where one more still fits
        carried = sum(w for state, w in weights.items()
                      if state[:r] + (state[r] + 1,) + state[r + 1:] in weights)
        lost += a * (1.0 - carried / total)
    return lost / sum(a for a, _ in routes)


def test_product_form_enumeration_matches_erlang_b_on_one_lane():
    a, w = 3.0, 4
    erlang_b = (a ** w / math.factorial(w)) / sum(a ** k / math.factorial(k) for k in range(w + 1))
    assert product_form_blocking([(a, ("lane",))], w) == pytest.approx(erlang_b, rel=1e-12)


def test_four_node_line_exact_value():
    exact = product_form_blocking(line_routes(NODES, pair_erlangs(NODES)), WAVELENGTHS)
    assert exact == pytest.approx(0.37281, abs=5e-6)


def solve(matrix, rhs) -> list[float]:
    """``x`` with ``matrix @ x == rhs``, by Gaussian elimination with partial pivoting."""
    n = len(rhs)
    rows = [row + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for row in rows[col + 1:]:
            factor = row[col] / top[col]
            if factor:
                for c in range(col, n + 1):
                    row[c] -= factor * top[c]
    x = [0.0] * n
    for r in reversed(range(n)):
        x[r] = (rows[r][n] - sum(rows[r][c] * x[c] for c in range(r + 1, n))) / rows[r][r]
    return x


def first_fit_chain(nodes: int, erlangs: float, wavelengths: int):
    """First fit without conversion on one direction of a line, solved exactly.

    Returns the number of states, the call blocking, and per wavelength the mean over the
    line's links of the chance that it is busy there.  A state is, per wavelength, the
    calls ``(a, b)`` (nodes ``a < b``) it carries.  Time is in mean holding times: each
    pair offers ``erlangs`` calls per unit, each call ends at rate 1.
    """
    routes = [(a, b) for a in range(nodes) for b in range(a + 1, nodes)]

    def first_free(state, route):
        return next((w for w, calls in enumerate(state)
                     if all(b <= route[0] or route[1] <= a for a, b in calls)), None)

    empty = (frozenset(),) * wavelengths
    index, states, rates = {empty: 0}, [empty], []  # rates: per state, next state -> rate
    for state in states:  # grows as new states are reached
        out = defaultdict(float)
        for route in routes:
            w = first_free(state, route)
            if w is not None:
                out[state[:w] + (state[w] | {route},) + state[w + 1:]] += erlangs
        for w, calls in enumerate(state):
            for call in calls:
                out[state[:w] + (calls - {call},) + state[w + 1:]] += 1.0
        for successor in out:
            if successor not in index:
                index[successor] = len(states)
                states.append(successor)
        rates.append(out)
    # global balance, flow in minus flow out of each state, with the last swapped for sum(pi) = 1
    n = len(states)
    balance = [[0.0] * n for _ in range(n)]
    for i, out in enumerate(rates):
        for successor, rate in out.items():
            balance[index[successor]][i] += rate
            balance[i][i] -= rate
    balance[-1] = [1.0] * n
    pi = solve(balance, [0.0] * (n - 1) + [1.0])
    lost = sum(p for state, p in zip(states, pi) for route in routes
               if first_free(state, route) is None)
    links = range(nodes - 1)
    busy = [sum(p * sum(any(a <= link < b for a, b in state[w]) for link in links)
                for state, p in zip(states, pi)) / len(links) for w in range(wavelengths)]
    return n, lost / len(routes), busy


@pytest.mark.parametrize("nodes, states, value, busy", [
    (3, 25, 0.41240, [0.60000, 0.49964]), (4, 169, 0.37662, [0.51938, 0.42785])])
def test_first_fit_chain_exact_values(nodes, states, value, busy):
    assert first_fit_chain(nodes, pair_erlangs(nodes), WAVELENGTHS) == \
        (states, pytest.approx(value, abs=5e-6), pytest.approx(busy, abs=5e-6))


def test_first_fit_chain_on_one_link_is_erlang_b():
    # a single lane: any assignment rule blocks exactly when both wavelengths are busy,
    # and the two together carry what is not blocked
    a = 1.5
    erlang_b = (a * a / 2) / (1 + a + a * a / 2)
    states, blocking, busy = first_fit_chain(2, a, 2)
    assert (states, blocking) == (4, pytest.approx(erlang_b, rel=1e-12))
    assert sum(busy) == pytest.approx(a * (1 - erlang_b), rel=1e-12) and busy[0] > busy[1]


def mean_and_stderr(values) -> tuple[float, float]:
    return statistics.mean(values), statistics.stdev(values) / math.sqrt(len(values))


def simulate_line(router: str, nodes: int, mode: str) -> list[tuple[float, list[float]]]:
    """Per seed of ``SEEDS`` on a line of ``nodes``: the blocking, and per wavelength the
    share of sample ticks and lanes in which it is busy, read every ``SAMPLE_INTERVAL``."""
    line = f"nodes {nodes}\n" + "".join(
        f"link {i} {i + 1} 10 {WAVELENGTHS}\n" for i in range(nodes - 1))
    cfg = SimConfig(router=router, conversion_mode=mode, session_traffics=1,
                    arrival_rate=RATE, holding_time=HOLDING, max_requests=REQUESTS,
                    sample_interval=SAMPLE_INTERVAL)
    results = []
    for seed in SEEDS:
        sim = Simulation(replace(cfg, seed=seed), topology=parse_topology(line))
        reads = []  # per sample tick and lane: 1 for each wavelength busy there, else 0

        def read_lanes(topology, now):
            reads.extend([1 - (link.free_mask(lane) >> w & 1) for w in range(WAVELENGTHS)]
                         for link in topology.links for lane in (FORWARD, REVERSE))

        sim.collector.on_sample = read_lanes
        blocking = sim.run().blocking_probability
        results.append((blocking, [sum(read[w] for read in reads) / len(reads)
                                   for w in range(WAVELENGTHS)]))
    return results


@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
def test_line_blocking_matches_product_form(router):
    mean, stderr = mean_and_stderr([b for b, _ in simulate_line(router, NODES, "full")])
    exact = product_form_blocking(line_routes(NODES, pair_erlangs(NODES)), WAVELENGTHS)
    assert abs(mean - exact) <= 4 * stderr


@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
@pytest.mark.parametrize("nodes", [3, 4])
def test_line_matches_first_fit_chain(router, nodes):
    # blocking barely tells first fit from random fit; how busy each wavelength is does,
    # since random fit leaves the two equally busy
    results = simulate_line(router, nodes, "none")
    _, blocking, busy = first_fit_chain(nodes, pair_erlangs(nodes), WAVELENGTHS)
    checks = [(blocking, [b for b, _ in results])]
    checks += [(busy[w], [shares[w] for _, shares in results]) for w in range(WAVELENGTHS)]
    for exact, simulated in checks:
        mean, stderr = mean_and_stderr(simulated)
        assert abs(mean - exact) <= 4 * stderr
