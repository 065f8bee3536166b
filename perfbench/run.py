"""wdmsim benchmark: one workload and seed, timed for a fixed time, then checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload probe-steady --seed 1 --seconds 30 --trace 0

Each invocation is a closed batch in one process:

1. Set-up: ``setup_probe.py`` times import, ``parse_config``, topology build
   and ``Simulation(...)`` construction in fresh interpreters; the median
   of seven (after one warm-up) is ``setup_s``.
2. Timed pass, with no wrapper installed: the workload's units run one after
   another, cycling through the batch, until ``--seconds`` have passed and
   the batch has run at least once.  ``requests_per_s`` weighs every unit
   equally: the batch's offered requests over the sum, across units, of each
   unit's median timed seconds.  The simulated metrics come from the batch's
   first cycle.

   Both times are in seconds of a reference host: right after each set-up
   sample (in its interpreter) and each unit execution, a fixed pure-Python
   loop (``calibrate.py``) measures the host's current speed, and the host
   seconds are scaled by it, so the drift of a shared host cancels.  The
   unscaled figures are printed too.
3. Checking pass: the leading ``trace_units`` units run again under the
   tracer.  With ``--trace 0`` only ``Simulation.schedule`` is wrapped, to
   check ``probes_sent <= events.probe_send``; with ``--trace 1`` every
   layer's entry points are wrapped, per-layer metrics are derived and the
   spans are written to ``.perfbench/spans-<workload>.tsv``.

Every unit execution is checked (accounting identities, ``audit=True`` for
single runs, CSV bytes identical to the unit's first execution); one with a
problem counts as failed.  Human-readable lines come first; the last line
of stdout is the JSON result.  To print every metric of every workload:

    for w in probe-steady baseline-contended sources-sweep; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 1; done
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import srcpath

srcpath.use_source_tree()

import wdmsim  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = srcpath.ROOT / ".perfbench"
SETUP_SAMPLES = 7

END_TO_END = [
    layers.Metric("requests_per_s", "req/s", "higher"),
    layers.Metric("setup_s", "s", "lower"),
    layers.Metric("peak_rss_mb", "MB", "lower"),
    layers.Metric("blocking_probability", "ratio", "lower"),
    layers.Metric("drop_ratio", "ratio", "lower"),
]


@dataclass
class Ledger:
    """Every unit execution of this process and what went wrong in it."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


@dataclass
class Execution:
    reports: list
    seconds: float
    cpu_seconds: float
    digest: str


@dataclass
class TimedPass:
    first: dict[int, Execution] = field(default_factory=dict)  # unit index -> first execution
    seconds: dict[int, list[float]] = field(default_factory=lambda: defaultdict(list))
    reference_seconds: dict[int, list[float]] = field(default_factory=lambda: defaultdict(list))
    cpu_seconds: float = 0.0
    wall_seconds: float = 0.0


def _cpu() -> float:
    """CPU seconds of this process (all threads) and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_unit(wl, seed: int, index: int, out_root: Path, ledger: Ledger, expect: str | None,
             extra_check=None) -> Execution | None:
    """Prepare (untimed), execute (timed), write CSVs and check one unit."""
    label = f"{wl.name} unit {index}"
    try:
        unit = workloads.prepare(wl, seed, index, out_root)
        cpu, start = _cpu(), time.perf_counter()
        reports = unit.execute()
        seconds, cpu = time.perf_counter() - start, _cpu() - cpu
        workloads.write_csv(wl, unit, reports)
        execution = Execution(reports, seconds, cpu, workloads.digest(unit.out_dir))
    except Exception:
        ledger.record(label, [traceback.format_exc().rstrip()])
        return None
    problems = workloads.check(unit, reports)
    if expect is not None and execution.digest != expect:
        problems.append("CSV output differs from the unit's first execution")
    if extra_check is not None:
        problems.extend(extra_check(reports))
    ledger.record(label, problems)
    return execution


def timed_pass(wl, seed: int, seconds: float, out_root: Path, ledger: Ledger) -> TimedPass:
    wrapped = tracer.installed_wrappers()
    if wrapped:
        raise RuntimeError(f"timed pass refused: wrappers installed on {wrapped}")
    result = TimedPass()
    with calibrate.Clock(wl.threads) as clock:
        start = time.perf_counter()
        done = 0
        while done < wl.units or time.perf_counter() - start < seconds:
            index = done % wl.units
            first = result.first.get(index)
            execution = run_unit(wl, seed, index, out_root, ledger, first and first.digest)
            done += 1
            if execution is None:
                continue
            result.first.setdefault(index, execution)
            result.seconds[index].append(execution.seconds)
            result.reference_seconds[index].append(clock.scale(execution.seconds))
            result.cpu_seconds += execution.cpu_seconds
            result.wall_seconds += execution.seconds
    return result


def checking_pass(wl, seed: int, out_root: Path, ledger: Ledger, timed: TimedPass, entry_points):
    """Re-run the leading units under a tracer; returns (tracer, executions)."""
    executions = []
    with tracer.Tracer(entry_points) as tr:
        for index in range(wl.trace_units):
            before = tr.counts()

            def probes_within_sends(reports):
                sends = tr.counts()["engine.events.probe_send"] - before["engine.events.probe_send"]
                sent = sum(r.probes_sent for r in reports)
                return [] if sent <= sends else [f"probes sent {sent} > probe_send events {sends}"]

            first = timed.first.get(index)
            execution = run_unit(wl, seed, index, out_root, ledger, first and first.digest,
                                 probes_within_sends)
            if execution is not None:
                executions.append(execution)
    return tr, executions


def measure_setup(wl, seed: int) -> tuple[float, float]:
    """Median set-up seconds of fresh interpreters: (reference host, this host)."""
    command = [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed), *wl.modules]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(command, cwd=srcpath.ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, host_rate = map(float, done.stdout.split()[-2:])
        samples.append((calibrate.reference_seconds(seconds, host_rate), seconds))
    samples = samples[1:]  # the first also writes bytecode caches
    return statistics.median(s for s, _ in samples), statistics.median(s for _, s in samples)


def environment() -> dict:
    git_dir = srcpath.ROOT / ".git"
    commit = "unknown"
    if git_dir.exists():
        try:
            done = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=60)
            commit = done.stdout.strip() or commit
        except OSError:  # no git on this host
            pass
    lines = sum(p.read_bytes().count(b"\n") for p in srcpath.PACKAGE.glob("*.py"))
    return {"nproc": workloads.nproc(), "python": platform.python_version(),
            "commit": commit, "src_lines": lines}


def unit_seconds(timed: TimedPass, reference: bool = True) -> float:
    """Sum over the batch's units of each unit's median timed seconds."""
    seconds = timed.reference_seconds if reference else timed.seconds
    return sum(statistics.median(seconds[i]) for i in timed.first)


def end_to_end(timed: TimedPass, setup_s: float, peak_rss_mb: float) -> dict:
    reports = [r for execution in timed.first.values() for r in execution.reports]
    return {
        "requests_per_s": layers.ratio(sum(r.offered for r in reports), unit_seconds(timed)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "blocking_probability": layers.ratio(sum(r.blocked for r in reports),
                                       sum(r.offered for r in reports)),
        "drop_ratio": layers.ratio(sum(r.dropped for r in reports), sum(r.accepted for r in reports)),
    }


def per_layer(wl, tr, executions, timed: TimedPass) -> dict:
    inclusive, own = tr.span_times()
    untraced_s = sum(statistics.median(timed.seconds[i])
                     for i in range(wl.trace_units) if timed.seconds[i])
    cpu_util = layers.ratio(timed.cpu_seconds, timed.wall_seconds) if wl.sweep_seeds else 0.0
    return layers.per_layer(
        tr.counts(), inclusive, own, [r for e in executions for r in e.reports],
        untraced_s, sum(e.seconds for e in executions), cpu_util)


def _print_table(declared, values: dict) -> None:
    for metric in declared:
        print(f"  {metric.name:<34} {values[metric.name]:>16.6g} {metric.unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    srcpath.check_imported(wdmsim)
    wl = workloads.WORKLOADS[args.workload]

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    ledger = Ledger()
    setup_s, host_setup_s = measure_setup(wl, args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="csv-", dir=OUT) as scratch:
        timed = timed_pass(wl, args.seed, args.seconds, Path(scratch), ledger)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        entry_points = layers.ENTRY_POINTS if args.trace else [layers.EVENT_COUNTER]
        tr, executions = checking_pass(wl, args.seed, Path(scratch), ledger, timed, entry_points)

    e2e = end_to_end(timed, setup_s, peak_rss_mb)
    offered = sum(r.offered for i in timed.first for r in timed.first[i].reports)
    print(f"this host: {layers.ratio(offered, unit_seconds(timed, reference=False)):.6g} req/s, "
          f"set-up {host_setup_s:.6g} s")
    batch = hashlib.sha256("".join(timed.first[i].digest for i in sorted(timed.first)).encode())
    print(f"csv_sha256 {batch.hexdigest()} over {len(timed.first)} of {wl.units} units")
    error_rate = layers.ratio(ledger.failed, ledger.attempted)
    print(f"units timed {sum(map(len, timed.seconds.values()))}, error_rate {error_rate:g} "
          f"({ledger.failed} failed / {ledger.attempted} attempted)")
    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    _print_table(END_TO_END, e2e)
    metrics = {m.name: {"value": e2e[m.name], "unit": m.unit} for m in END_TO_END}
    if args.trace:
        layer_values = per_layer(wl, tr, executions, timed)
        tr.write_spans(OUT / f"spans-{wl.name}.tsv")
        print(f"traced {tr.span_count()} spans -> {OUT / f'spans-{wl.name}.tsv'}")
        _print_table(layers.PER_LAYER, layer_values)
        metrics = {m.name: {"value": layer_values[m.name], "unit": m.unit} for m in layers.PER_LAYER}
    correct = ledger.failed == 0 and len(timed.first) == wl.units
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
