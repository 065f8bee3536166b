"""Simulated blocking against exact answers that import nothing from ``wdmsim``.

A line under full wavelength conversion is a loss network: each pair has one
route, each lane of each link is a group of ``W`` circuits, and a call is
carried when every lane on its route has a free circuit.  Its stationary
distribution has Kelly's product form ("Loss networks", Ann. Appl. Probab.
1991), ``pi(n) ~ prod_r a_r^n_r / n_r!`` over the states that fit, so route
blocking is exact by enumeration of those states.
"""

import math
import statistics
from dataclasses import replace

import pytest

from wdmsim.engine import ROUTER_BASELINE, ROUTER_RFTR, SimConfig, run
from wdmsim.topology import parse_topology

# fixed before any result was looked at: ten seeds of 4,000 requests, and a
# bound of 4 standard errors of the seed mean.  The empty-network start
# touches the first few of the 4,000 requests, far under 1 SE (about 0.004).
SEEDS = range(10)
REQUESTS = 4000
NODES, WAVELENGTHS = 4, 2
# 3 calls/s held 2 s on average: 0.5 Erlangs on each of the 12 ordered pairs,
# as 6 calls/s held 1 s, but a holding time drawn at rate = mean differs here
RATE, HOLDING = 3.0, 2.0
PAIR_ERLANGS = RATE * HOLDING / (NODES * (NODES - 1))


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
    exact = product_form_blocking(line_routes(NODES, PAIR_ERLANGS), WAVELENGTHS)
    assert exact == pytest.approx(0.37281, abs=5e-6)


@pytest.mark.parametrize("router", [ROUTER_RFTR, ROUTER_BASELINE])
def test_line_blocking_matches_product_form(router):
    line = f"nodes {NODES}\n" + "".join(
        f"link {i} {i + 1} 10 {WAVELENGTHS}\n" for i in range(NODES - 1))
    cfg = SimConfig(router=router, conversion_mode="full", session_traffics=1,
                    arrival_rate=RATE, holding_time=HOLDING, max_requests=REQUESTS,
                    sample_interval=1000.0)
    blocking = [run(replace(cfg, seed=seed), topology=parse_topology(line)).blocking_probability
                for seed in SEEDS]
    exact = product_form_blocking(line_routes(NODES, PAIR_ERLANGS), WAVELENGTHS)
    stderr = statistics.stdev(blocking) / math.sqrt(len(blocking))
    assert abs(statistics.mean(blocking) - exact) <= 4 * stderr
