"""Which wdmsim entry points the traced pass wraps, and the per-layer metrics.

Layers are the simulator's modules: config, topology, routing, probing,
engine, metrics and cli.  Every ``*_s`` or ``.s`` metric is host seconds
summed over the traced pass, which re-runs a fixed, seed-determined set of
units, so counts repeat exactly for a seed and times compare across commits.
``moves`` records, before any optimisation, which end-to-end metric on which
workload a change in that layer metric should move.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from tracer import EntryPoint

EVENT_KINDS = ("arrival", "departure", "probe_send", "feedback_arrive",
               "link_failure", "link_repair", "sample_tick", "probe_window")


def _count_kind(counts, args, kwargs):
    kind = args[2] if len(args) > 2 else kwargs["kind"]
    counts[f"engine.events.{kind}"] += 1
    return kwargs


def _count_fallback(counts, args, kwargs):
    fallback = kwargs.get("fallback_establish")
    if fallback is None:
        return kwargs

    def counted(role):
        counts["probing.reroute.fallback"] += 1
        return fallback(role)

    return {**kwargs, "fallback_establish": counted}


def _count_if(key, test):
    def on_result(counts, args, kwargs, result):
        if test(result):
            counts[key] += 1
    return on_result


def _count_runs(counts, args, kwargs, result):
    counts["cli.runs"] += len(result.runs)


def _count_csv_bytes(counts, args, kwargs, result):
    destination = args[1] if len(args) > 1 else kwargs["destination"]
    counts["metrics.csv_bytes"] += os.path.getsize(destination)


EVENT_COUNTER = EntryPoint("wdmsim.engine:Simulation.schedule", "engine.events",
                           span=False, on_call=_count_kind)

COLLECTOR_METHODS = ("on_offered", "on_blocked", "on_accepted", "on_restored", "on_completed",
                     "on_dropped", "on_probe_sent", "on_probe_feedback", "on_sample", "finalize")

ENTRY_POINTS = [
    EntryPoint("wdmsim.config:parse_config", "config.parse"),
    EntryPoint("wdmsim.engine:build_topology", "topology.build"),
    EntryPoint("wdmsim.topology:Topology.hops", "topology.hops"),
    EntryPoint("wdmsim.topology:Topology.neighbors", "topology.neighbors"),
    EntryPoint("wdmsim.topology:Link.occupy", "topology.occupy"),
    EntryPoint("wdmsim.topology:Link.release", "topology.release"),
    EntryPoint("wdmsim.routing:least_cost_path", "routing.dijkstra"),
    EntryPoint("wdmsim.routing:assign_wavelength", "routing.assign",
               on_result=_count_if("routing.assign.fail", lambda r: r is None)),
    EntryPoint("wdmsim.routing:establish_primary", "routing.establish",
               on_result=_count_if("routing.establish.blocked", lambda r: r.blocked)),
    EntryPoint("wdmsim.routing:establish_baseline", "routing.establish",
               on_result=_count_if("routing.establish.blocked", lambda r: r.blocked)),
    EntryPoint("wdmsim.routing:establish_lightpath", "routing.establish_lightpath"),
    EntryPoint("wdmsim.routing:release_lightpath", "routing.release_lightpath"),
    EntryPoint("wdmsim.probing:candidate_paths", "probing.candidates"),
    EntryPoint("wdmsim.probing:k_shortest_hop_paths", "probing.yen"),
    EntryPoint("wdmsim.probing:probe_outcome", "probing.outcome",
               on_result=_count_if("probing.outcome.nack", lambda r: r == "nack")),
    *(EntryPoint(f"wdmsim.probing:ConnectionProber.{m}", "probing.prober")
      for m in ("__init__", "open_windows", "feedback", "close_and_rank")),
    EntryPoint("wdmsim.probing:reroute", "probing.reroute", on_call=_count_fallback),
    EntryPoint("wdmsim.engine:Simulation.__init__", "engine.init", starts_run=True),
    EntryPoint("wdmsim.engine:Simulation.run", "engine.run"),
    EVENT_COUNTER,
    *(EntryPoint(f"wdmsim.metrics:MetricsCollector.{m}", "metrics.collector")
      for m in COLLECTOR_METHODS),
    EntryPoint("wdmsim.metrics:write_summary_csv", "metrics.csv", on_result=_count_csv_bytes),
    EntryPoint("wdmsim.metrics:write_timeseries_csv", "metrics.csv", on_result=_count_csv_bytes),
    EntryPoint("wdmsim.cli:run_scenario", "cli.run_scenario", on_result=_count_runs,
               adopts_threads=True),
]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""


PER_LAYER = [
    Metric("engine.events", "count", "lower",
           "requests_per_s on probe-steady: fewer events (ROADMAP 4f)"),
    *(Metric(f"engine.events.{kind}", "count", "lower",
             "requests_per_s on probe-steady: fewer events (ROADMAP 4f)") for kind in EVENT_KINDS),
    Metric("engine.events_per_request", "count", "lower",
           "requests_per_s on probe-steady: fewer events per request (ROADMAP 4f)"),
    Metric("engine.events_per_s", "1/s", "higher",
           "requests_per_s on probe-steady: cheaper dispatch (ROADMAP 3)"),
    Metric("engine.self_s", "s", "lower",
           "requests_per_s on probe-steady: cheaper dispatch and heap (ROADMAP 3)"),
    Metric("topology.hops.calls", "count", "lower",
           "requests_per_s on probe-steady: hop tuples cached per candidate (ROADMAP 4c)"),
    Metric("topology.neighbors.calls", "count", "lower",
           "requests_per_s on baseline-contended: sorted adjacency precomputed (ROADMAP 4a)"),
    Metric("topology.link_writes", "count", "lower",
           "flat everywhere: occupy/release are decisions, not overhead"),
    Metric("topology.self_s", "s", "lower",
           "requests_per_s on probe-steady (4c) and baseline-contended (4a)"),
    Metric("topology.build_s", "s", "lower", "setup_s on every workload"),
    Metric("routing.dijkstra.calls", "count", "lower",
           "requests_per_s on baseline-contended: Yen memo removes spur searches (ROADMAP 4b)"),
    Metric("routing.assign.calls", "count", "lower",
           "requests_per_s on probe-steady: probe outcomes memoised (ROADMAP 4e)"),
    Metric("routing.assign.fail_ratio", "ratio", "lower",
           "blocking_probability: changes only if assignment semantics change"),
    Metric("routing.establish.calls", "count", "lower",
           "flat: one per arrival plus fallback restorations"),
    Metric("routing.establish.blocked_ratio", "ratio", "lower",
           "blocking_probability on every workload"),
    Metric("routing.self_s", "s", "lower",
           "requests_per_s on probe-steady (assign reads); writes stay flat on "
           "baseline-contended (ROADMAP 4d bitmask)"),
    Metric("probing.candidates.calls", "count", "lower",
           "requests_per_s on baseline-contended (ROADMAP 4b)"),
    Metric("probing.candidates.s", "s", "lower",
           "requests_per_s on baseline-contended: Yen memo (ROADMAP 4b)"),
    Metric("probing.outcome.calls", "count", "lower",
           "requests_per_s on probe-steady (ROADMAP 4e)"),
    Metric("probing.outcome.nack_ratio", "ratio", "lower",
           "drop_ratio on probe-steady: ranking quality"),
    Metric("probing.prober.calls", "count", "lower",
           "requests_per_s on probe-steady"),
    Metric("probing.reroute.calls", "count", "lower",
           "drop_ratio on probe-steady: one per broken lightpath"),
    Metric("probing.reroute.fallback_ratio", "ratio", "lower",
           "drop_ratio on probe-steady: ranked backups that held"),
    Metric("probing.self_s", "s", "lower",
           "requests_per_s on probe-steady"),
    Metric("probing.send_live_ratio", "ratio", "higher",
           "requests_per_s on probe-steady: fewer stale probe events (ROADMAP 4f)"),
    Metric("probing.feedback_counted_ratio", "ratio", "higher",
           "requests_per_s on probe-steady: fewer stale feedback events (ROADMAP 4f)"),
    Metric("metrics.collector.calls", "count", "lower",
           "requests_per_s on sources-sweep"),
    Metric("metrics.csv_s", "s", "lower", "requests_per_s on sources-sweep"),
    Metric("metrics.csv_bytes", "B", "lower",
           "nothing: CSV bytes must stay identical"),
    Metric("metrics.self_s", "s", "lower", "requests_per_s on sources-sweep"),
    Metric("config.parse_s", "s", "lower", "setup_s on every workload"),
    Metric("cli.runs", "count", "lower",
           "requests_per_s on sources-sweep: one run per (router, seed) (ROADMAP 5)"),
    Metric("cli.sweep_cpu_util", "ratio", "higher",
           "requests_per_s on sources-sweep only: real parallelism (ROADMAP 5)"),
    Metric("cli.self_s", "s", "lower", "requests_per_s on sources-sweep only (ROADMAP 5)"),
    Metric("trace.overhead_ratio", "ratio", "lower", "nothing: cost of the traced pass"),
]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(counts, inclusive, own, reports, untraced_s, traced_s, sweep_cpu_util) -> dict:
    """Per-layer values from one traced pass, named as in ``PER_LAYER``."""
    offered = sum(r.offered for r in reports)
    probes = sum(r.probes_sent for r in reports)
    feedback = sum(r.probe_packs + r.probe_nacks for r in reports)
    events = counts["engine.events"]
    values = {"engine.events": events}
    values.update({f"engine.events.{k}": counts[f"engine.events.{k}"] for k in EVENT_KINDS})
    values.update({
        "engine.events_per_request": ratio(events, offered),
        "engine.events_per_s": ratio(events, untraced_s),
        "topology.hops.calls": counts["topology.hops"],
        "topology.neighbors.calls": counts["topology.neighbors"],
        "topology.link_writes": counts["topology.occupy"] + counts["topology.release"],
        "topology.build_s": inclusive.get("topology.build", 0.0),
        "routing.dijkstra.calls": counts["routing.dijkstra"],
        "routing.assign.calls": counts["routing.assign"],
        "routing.assign.fail_ratio": ratio(counts["routing.assign.fail"], counts["routing.assign"]),
        "routing.establish.calls": counts["routing.establish"],
        "routing.establish.blocked_ratio": ratio(counts["routing.establish.blocked"],
                                                  counts["routing.establish"]),
        "probing.candidates.calls": counts["probing.candidates"],
        "probing.candidates.s": inclusive.get("probing.candidates", 0.0),
        "probing.outcome.calls": counts["probing.outcome"],
        "probing.outcome.nack_ratio": ratio(counts["probing.outcome.nack"],
                                             counts["probing.outcome"]),
        "probing.prober.calls": counts["probing.prober"],
        "probing.reroute.calls": counts["probing.reroute"],
        "probing.reroute.fallback_ratio": ratio(counts["probing.reroute.fallback"],
                                                 counts["probing.reroute"]),
        "probing.send_live_ratio": ratio(probes, counts["engine.events.probe_send"]),
        "probing.feedback_counted_ratio": ratio(feedback, probes),
        "metrics.collector.calls": counts["metrics.collector"],
        "metrics.csv_s": inclusive.get("metrics.csv", 0.0),
        "metrics.csv_bytes": counts["metrics.csv_bytes"],
        "config.parse_s": inclusive.get("config.parse", 0.0),
        "cli.runs": counts["cli.runs"],
        "cli.sweep_cpu_util": sweep_cpu_util,
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    })
    for layer in ("engine", "topology", "routing", "probing", "metrics", "cli"):
        values[f"{layer}.self_s"] = own.get(layer, 0.0)
    return values
