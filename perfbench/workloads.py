"""The benchmark's workloads: inputs built from a seed, units, CSV digests, checks.

A workload is a batch of ``units`` distinct units.  A unit is one
``Simulation`` run, or for a sweep workload one ``cli.run_scenario`` call.
Unit ``j`` of workload seed ``s`` simulates with ``SimConfig.seed``
``s * units + j`` (a sweep unit with ``sweep_seeds`` consecutive seeds from
there), so the same seed always gives the same inputs.  Failure and repair
schedules are built here, never by the simulator.  Everything is driven
through the simulator's public API, looked up on the ``wdmsim`` modules at
call time so that the traced pass sees every call.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import wdmsim
import wdmsim.cli

MESH_RFTR = """\
router = rftr
wavelengths = 8
arrival_rate = 4.0
holding_time = 0.5
session_traffics = 4
"""

MESH_BASELINE = """\
router = baseline
wavelengths = 2
arrival_rate = 4.0
holding_time = 0.5
session_traffics = 4
"""

# the stock sweep of README and scripts/sources_sweep.py
SOURCES_SWEEP = """\
name = sources-sweep
router = both
sweep = sources 1,2,3,4
wavelengths = 2
arrival_rate = 4.0
holding_time = 0.5
max_requests = 100
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str
    units: int  # distinct units in one batch
    trace_units: int  # leading units the traced pass re-runs
    requests: int = 0  # single-run units: max_requests per simulation
    sweep_seeds: int = 0  # sweep units: seeds per cli.run_scenario call
    cut: str = "links"  # what fails together: "node" (all its links) or "links" (a pair)
    period: float = 1.0  # simulated seconds between failures
    outage: float = 0.5  # simulated seconds until the repair

    @property
    def threads(self) -> int:
        """Threads a unit runs in: a sweep runs its simulations in ``nproc`` threads."""
        return nproc() if self.sweep_seeds else 1

    @property
    def modules(self) -> tuple[str, ...]:
        """Modules a user of this workload imports; part of set-up time."""
        return ("wdmsim", "wdmsim.cli") if self.sweep_seeds else ("wdmsim",)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "probe-steady",
            "rftr on the lightly loaded reference mesh with rotating node outages: host time is "
            "probing (topology.hops, assign reads, heap, event loop) and restoration uses ranked backups",
            MESH_RFTR, units=32, trace_units=2, requests=500, cut="node", period=2.0, outage=0.4,
        ),
        Workload(
            "baseline-contended",
            "shortest-hop baseline, 2 wavelengths, no probing, rotating link-pair failures: host time "
            "is Yen candidate enumeration and channel writes, so probing optimisations must not move it",
            MESH_BASELINE, units=72, trace_units=2, requests=1000,
        ),
        # ROADMAP's measured shape of the stock sweep: 8 seeds per run_scenario call
        Workload(
            "sources-sweep",
            "the stock 8-seed sources sweep plus fixed link-pair failures, via cli.run_scenario with "
            "workers = nproc: many short runs, so orchestration, threads, per-run set-up and CSVs matter",
            SOURCES_SWEEP, units=4, trace_units=1, sweep_seeds=8, period=0.25, outage=0.2,
        ),
    )
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def outage_sets(topology, cut: str) -> list[tuple[int, ...]]:
    """The link sets that fail together.

    ``"node"``: all links of one node, which cuts the node off, so every
    connection ending there blocks or drops whatever the router does.
    ``"links"``: two links whose loss leaves every node reachable, so every
    block and drop is a routing or restoration decision.
    """
    if cut == "node":
        return [tuple(link.id for link in topology.adjacency[n]) for n in range(topology.num_nodes)]
    return [pair for pair in itertools.combinations(range(len(topology.links)), 2)
            if _connected_without(topology, pair)]


def _connected_without(topology, link_ids) -> bool:
    reached, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for link in topology.adjacency[u]:
            v = link.b if link.a == u else link.a
            if link.id not in link_ids and v not in reached:
                reached.add(v)
                frontier.append(v)
    return len(reached) == topology.num_nodes


def rotation_schedule(topology, seed, horizon: float, wl: Workload):
    """Failures in a seeded rotation: every ``wl.period`` simulated seconds the
    next link set of a shuffled ``outage_sets`` goes down, and comes back
    ``wl.outage`` later.
    """
    order = outage_sets(topology, wl.cut)
    random.Random(f"rotation-{seed}").shuffle(order)
    failures, repairs = [], []
    for k in range(1, int(horizon / wl.period) + 1):
        for link_id in order[k % len(order)]:
            failures.append((k * wl.period, link_id))
            repairs.append((k * wl.period + wl.outage, link_id))
    return failures, repairs


def _horizon(config) -> float:
    """Expected time of the last arrival."""
    return config.max_requests / (config.arrival_rate * config.session_traffics)


def simulation(wl: Workload, sim_seed: int):
    """One single-run unit, built as a user would: parse, topology, schedule, construct."""
    base = replace(wdmsim.parse_config(wl.config).base, seed=sim_seed, max_requests=wl.requests)
    topology = wdmsim.build_topology(base)
    failures, repairs = rotation_schedule(topology, sim_seed, _horizon(base), wl)
    config = replace(base, failures=failures, repairs=repairs)
    return wdmsim.Simulation(config, topology=topology, audit=True)


def sweep_scenario(wl: Workload, first_seed: int):
    """The stock sweep over ``sweep_seeds`` seeds with one fixed failure schedule."""
    scenario = wdmsim.parse_config(wl.config)
    scenario.seeds = list(range(first_seed, first_seed + wl.sweep_seeds))
    longest = scenario.config_for(scenario.routers()[0], min(scenario.sweep_values), 0)
    topology = wdmsim.build_topology(scenario.base)
    failures, repairs = rotation_schedule(topology, wl.name, _horizon(longest), wl)
    scenario.base = replace(scenario.base, failures=failures, repairs=repairs)
    return scenario


def unit_seed(wl: Workload, seed: int, index: int) -> int:
    first = seed * wl.units + index
    return first * wl.sweep_seeds if wl.sweep_seeds else first


def setup(wl: Workload, seed: int):
    """Everything before the first event is dispatched, for set-up timing."""
    if wl.sweep_seeds:
        scenario = sweep_scenario(wl, unit_seed(wl, seed, 0))
        first = scenario.config_for(scenario.routers()[0], scenario.sweep_values[0], scenario.seeds[0])
        return wdmsim.Simulation(first)
    return simulation(wl, unit_seed(wl, seed, 0))


@dataclass
class Unit:
    execute: Callable[[], list]  # the timed part; returns the runs' MetricsReports
    out_dir: Path
    runs: int  # simulations the unit performs
    requests: int  # requests each simulation offers


def prepare(wl: Workload, seed: int, index: int, out_root: Path) -> Unit:
    """Untimed construction of unit ``index``; CSVs go to their own directory."""
    out_dir = out_root / f"unit{index}"
    first = unit_seed(wl, seed, index)
    if wl.sweep_seeds:
        scenario = sweep_scenario(wl, first)

        def execute():
            result = wdmsim.cli.run_scenario(scenario, out_dir, workers=wl.threads)
            return [outcome.report for outcome in result.runs]

        runs = len(scenario.routers()) * len(scenario.sweep_values) * len(scenario.seeds)
        return Unit(execute, out_dir, runs, scenario.base.max_requests)
    sim = simulation(wl, first)
    return Unit(lambda: [sim.run()], out_dir, 1, wl.requests)


def write_csv(wl: Workload, unit: Unit, reports) -> None:
    """Single runs write what ``wdmsim run`` writes; a sweep wrote its own CSVs."""
    if wl.sweep_seeds:
        return
    unit.out_dir.mkdir(parents=True, exist_ok=True)
    wdmsim.metrics.export_csv(reports[0], unit.out_dir / "summary.csv")
    wdmsim.metrics.write_timeseries_csv(reports[0], unit.out_dir / "timeseries.csv")


def digest(directory: Path) -> str:
    """SHA-256 over the names and bytes of every file in ``directory``."""
    sha = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        sha.update(path.name.encode() + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


def check(unit: Unit, reports) -> list[str]:
    """Accounting identities every run must satisfy."""
    problems = []
    if len(reports) != unit.runs:
        problems.append(f"{len(reports)} runs reported, {unit.runs} expected")
    for r in reports:
        tag = r.scenario or f"seed {r.seed}"
        if r.offered != unit.requests:
            problems.append(f"{tag}: offered {r.offered} != max_requests {unit.requests}")
        if r.offered != r.accepted + r.blocked:
            problems.append(f"{tag}: offered {r.offered} != accepted {r.accepted} + blocked {r.blocked}")
        if r.accepted != r.completed + r.dropped:
            problems.append(f"{tag}: accepted {r.accepted} != completed {r.completed} "
                            f"+ dropped {r.dropped}")
        if r.probe_packs + r.probe_nacks > r.probes_sent:
            problems.append(f"{tag}: packs {r.probe_packs} + nacks {r.probe_nacks} "
                            f"> probes sent {r.probes_sent}")
    return problems
