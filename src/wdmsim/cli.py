"""Command-line front end: single runs, sweep experiments, config validation.

Artifacts land under ``--out``: ``summary.csv`` (one aggregate row per
router and sweep value), ``runs.csv`` (one row per individual run when
sweeping), and ``timeseries_<run-id>.csv`` per run.  Outputs are
byte-identical across repeat invocations.  Runs go one after another on one
thread: threads only took turns on the interpreter lock, and were slower.
A sweep value changes only a run's traffic, never its network, so a sweep
builds its topology once and every run shares it; between runs every link is
set back up and the channels must read as built, so no state passes from one
run to the next.  Resolved routes belong to the graph, in ``topology``'s tables.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import replace
from functools import reduce
from pathlib import Path

from . import metrics as metrics_mod
from .config import (
    ROUTER_BOTH,
    SWEEP_NONE,
    Diagnostic,
    Scenario,
    parse_config,
    unique_seeds,
    validate_scenario,
)
from .engine import build_topology, run
from .errors import ConfigError, InvariantError, SimError


class RunOutcome:
    """One run; its router, seed and label are the report's own fields."""

    __slots__ = ("sweep_value", "report")

    def __init__(self, sweep_value: float | None, report: metrics_mod.MetricsReport):
        self.sweep_value, self.report = sweep_value, report


class ScenarioResult:
    __slots__ = ("runs", "aggregate_rows", "out_dir")

    def __init__(self, runs: list[RunOutcome], aggregate_rows: list[dict], out_dir: Path):
        self.runs, self.aggregate_rows, self.out_dir = runs, aggregate_rows, out_dir


def _sanitize(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label)


def _aggregate(scenario: Scenario, router: str, sweep_value, outcomes: list[RunOutcome]) -> dict:
    """Mean of every numeric metric across seeds, summed left to right in sorted-seed order."""
    rows = [metrics_mod.summary_row(o.report) for o in outcomes]
    n = len(rows)
    agg = dict(rows[0])
    agg["scenario"] = scenario.run_label(router, sweep_value)
    agg["seed"] = ""
    agg["n_seeds"] = n
    for key in rows[0]:
        if key in ("scenario", "router", "seed", "n_seeds"):
            continue
        values = [row[key] for row in rows]
        agg[key] = reduce(operator.add, values, 0) / n
    return agg


def run_scenario(scenario: Scenario, out_dir, workers: int = 1) -> ScenarioResult:
    """One run per ``Scenario.runs`` entry on the calling thread, writing every CSV.

    Every run's config is checked, each built once, before the one topology the runs share
    is built from ``scenario.base``, so a late sweep value is refused before any run.  After
    each run every link is set back up, since a failure need not be repaired, and the
    channels must read as built, or ``InvariantError``.  ``workers`` changes nothing: it
    stays, refused below 1, only because ``perfbench/workloads.py`` passes it."""
    keys = scenario.runs()
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    out_dir = Path(out_dir)
    configs = [scenario.config_for(*key) for key in keys]
    for config in configs:
        config.validate()
    topology = build_topology(scenario.base)
    built = topology.occupancy_snapshot()
    outcomes = []
    for key, config in zip(keys, configs):
        report = run(config, topology=topology)
        report.scenario = scenario.run_label(*key)
        outcomes.append(RunOutcome(key[1], report))
        for link in topology.links:
            link.up = True
        if topology.occupancy_snapshot() != built:
            raise InvariantError(f"{report.scenario} left channels held on the shared topology")
    outcomes.sort(key=lambda o: (o.report.router, o.sweep_value or 0, o.report.seed))

    aggregate_rows = []
    for router, value in dict.fromkeys(key[:2] for key in keys):
        group = [o for o in outcomes if o.report.router == router and o.sweep_value == value]
        aggregate_rows.append(_aggregate(scenario, router, value, group))

    out_dir.mkdir(parents=True, exist_ok=True)
    for outcome in outcomes:
        metrics_mod.write_timeseries_csv(
            outcome.report, out_dir / f"timeseries_{_sanitize(outcome.report.scenario)}.csv"
        )
    if len(outcomes) > 1:
        metrics_mod.write_summary_csv(
            [metrics_mod.summary_row(o.report) for o in outcomes], out_dir / "runs.csv"
        )
        metrics_mod.write_summary_csv(aggregate_rows, out_dir / "summary.csv")
    else:
        metrics_mod.export_csv(outcomes[0].report, out_dir / "summary.csv")
    return ScenarioResult(runs=outcomes, aggregate_rows=aggregate_rows, out_dir=out_dir)


def _load_scenario(args) -> Scenario:
    text = ""
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise ConfigError(f"config file {args.config}: not UTF-8 text") from None
    scenario = parse_config(text)
    if args.topology:
        scenario.base = replace(scenario.base, topology_file=args.topology)
    if args.router:  # argparse choices: rftr | baseline | both
        scenario.router = args.router
        if args.router != ROUTER_BOTH:
            scenario.base = replace(scenario.base, router=args.router)
    if args.seed:
        scenario.seeds = unique_seeds(list(args.seed), "--seed")
    return scenario


def _print_diagnostics(diagnostics: list[Diagnostic]) -> int:
    if not diagnostics:
        print("valid")
        return 0
    for diag in diagnostics:
        print(f"{diag.severity}: {diag.message}")
    return 1 if any(d.severity == "error" for d in diagnostics) else 0


def _cmd_run(args) -> int:
    scenario = _load_scenario(args)
    for refused, takes in ((len(scenario.seeds) != 1, "exactly one seed"),
                           (scenario.router == ROUTER_BOTH, "a single router"),
                           (scenario.sweep_param != SWEEP_NONE, "no sweep")):
        if refused:
            print(f"error: run takes {takes}; use sweep instead", file=sys.stderr)
            return 2
    result = run_scenario(scenario, args.out)
    report = result.runs[0].report
    print(f"{report.scenario}: offered={report.offered} accepted={report.accepted} "
          f"blocked={report.blocked} restored={report.restored} dropped={report.dropped} "
          f"blocking_probability={report.blocking_probability:.4f}")
    print(f"artifacts in {result.out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    result = run_scenario(scenario, args.out)
    rows = result.aggregate_rows
    width = max(len("scenario"), *(len(row["scenario"]) for row in rows))
    print(f"{'scenario':<{width}} {'blocking':>9} {'packets':>9} {'delay_ms':>9} {'utilization':>12}")
    for row in rows:
        print(f"{row['scenario']:<{width}} {row['blocking_probability']:>9.4f} "
              f"{row['packets_received']:>9.0f} {row['mean_delay'] * 1e3:>9.2f} "
              f"{row['mean_utilization']:>12.4f}")
    print(f"{len(result.runs)} runs, {len(result.aggregate_rows)} aggregate rows "
          f"-> {result.out_dir / 'summary.csv'}")
    return 0


def _cmd_validate(args) -> int:
    try:
        scenario = _load_scenario(args)
    except SimError as err:
        print(f"error: {err}")
        return 1
    return _print_diagnostics(validate_scenario(scenario))


def make_parser() -> argparse.ArgumentParser:
    import argparse  # only a command line loads the parser, not a library call of run_scenario
    parser = argparse.ArgumentParser(
        prog="wdmsim",
        description="Discrete-event simulator for fault-tolerant WDM lightpath routing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", _cmd_run), ("sweep", _cmd_sweep), ("validate", _cmd_validate)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="scenario file (key = value lines)")
        p.add_argument("--topology", help="topology file overriding the config/default")
        p.add_argument("--out", default="out", help="output directory for CSV artifacts")
        p.add_argument("--seed", type=int, action="append", help="seed (repeatable)")
        p.add_argument("--router", choices=["rftr", "baseline", "both"], help="router selection")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SimError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
