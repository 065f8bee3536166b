"""Tests of the benchmark itself (not collected by the repository's suite).

    python -m pytest perfbench -q
"""

import dataclasses
import json
import re

import pytest

import run  # puts the checkout's src first on sys.path
import layers
import reference
import srcpath
import tracer
import workloads
import wdmsim

BENCHMARK = json.loads((srcpath.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small(name: str) -> workloads.Workload:
    """The workload with a two-unit batch of short runs."""
    wl = workloads.WORKLOADS[name]
    return dataclasses.replace(wl, units=2, trace_units=1, requests=min(wl.requests, 80),
                               sweep_seeds=min(wl.sweep_seeds, 1))


def both_passes(wl, seed, out_dir, entry_points=layers.ENTRY_POINTS):
    ledger = run.Ledger()
    timed = run.timed_pass(wl, seed, 0.0, out_dir, ledger)
    tr, executions = run.checking_pass(wl, seed, out_dir, ledger, timed, entry_points)
    return ledger, timed, tr, executions


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_repeats_counts_and_model_metrics(name, tmp_path):
    wl = small(name)

    def once(sub):
        ledger, timed, tr, _ = both_passes(wl, 7, tmp_path / sub)
        assert ledger.failed == 0, ledger.problems
        e2e = run.end_to_end(timed, 0.0, 0.0)
        return (tr.counts(), e2e["blocking_probability"], e2e["drop_ratio"],
                [timed.first[i].digest for i in sorted(timed.first)])

    first, second = once("a"), once("b")
    assert first == second
    assert first[0]["engine.events"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seed_changes_arrivals(name):
    wl = workloads.WORKLOADS[name]
    assert workloads.setup(wl, 1).arrivals == workloads.setup(wl, 1).arrivals
    assert workloads.setup(wl, 1).arrivals != workloads.setup(wl, 2).arrivals


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_emitted_names_are_declared(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, small(name))
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(NAME.fullmatch(k) for k in result["metrics"])


def test_benchmark_json_matches_the_code():
    strip = lambda metrics: [(m.name, m.unit, m.better) for m in metrics]  # noqa: E731
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == strip(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == strip(layers.PER_LAYER)
    assert {(w["name"], w["why"]) for w in BENCHMARK["workloads"]} == {
        (w.name, w.why) for w in workloads.WORKLOADS.values()}
    assert all(m.moves for m in layers.PER_LAYER)


def test_timed_pass_runs_unwrapped(tmp_path, monkeypatch):
    seen = []
    prepare = workloads.prepare

    def spying_prepare(*args):
        unit = prepare(*args)
        execute = unit.execute
        unit.execute = lambda: seen.append(tracer.installed_wrappers()) or execute()
        return unit

    monkeypatch.setattr(workloads, "prepare", spying_prepare)
    both_passes(small("sources-sweep"), 1, tmp_path)
    timed_units = len(seen) - 1
    assert timed_units >= 2 and all(w == [] for w in seen[:timed_units])
    assert "wdmsim.cli.run_scenario" in seen[-1]  # the checking pass was traced
    assert tracer.installed_wrappers() == []


def test_timed_pass_refuses_an_installed_wrapper(tmp_path):
    with tracer.Tracer(layers.ENTRY_POINTS):
        assert "wdmsim.routing.least_cost_path" in tracer.installed_wrappers()
        assert "wdmsim.topology.Topology.hops" in tracer.installed_wrappers()
        with pytest.raises(RuntimeError):
            run.timed_pass(small("probe-steady"), 1, 0.0, tmp_path, run.Ledger())
    assert tracer.installed_wrappers() == []


def test_tracer_restores_after_an_error():
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer(layers.ENTRY_POINTS):
            1 / 0
    assert tracer.installed_wrappers() == []


def test_broken_accounting_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(wdmsim.metrics.MetricsCollector, "on_completed", lambda *args: None)
    ledger, _, _, _ = both_passes(small("probe-steady"), 1, tmp_path, [layers.EVENT_COUNTER])
    assert ledger.failed == ledger.attempted == 3
    assert any("completed" in p for p in ledger.problems)


def test_self_time_subtracts_the_union_of_children():
    assert tracer._covered([(1.0, 3.0), (2.0, 4.0), (6.0, 12.0)], 0.0, 10.0) == 7.0
    assert tracer._covered([], 0.0, 1.0) == 0.0


def test_reference_counts():
    for router, expected in reference.EXPECTED.items():
        assert reference.reference_counts(router) == expected
