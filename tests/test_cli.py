import csv
import os
import re
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import wdmsim.cli
import wdmsim.engine
from wdmsim.cli import main, run_scenario
from wdmsim.config import Scenario, parse_config
from wdmsim.engine import SimConfig, run
from wdmsim.errors import ConfigError, InvariantError, TopologyError

ROOT = Path(__file__).resolve().parents[1]

SWEEP_CFG = """\
name = demo
router = both
sweep = rate 2,4
seeds = 1,2
wavelengths = 2
arrival_rate = 6.0
holding_time = 0.5
max_requests = 40
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


GOLDEN = Path(__file__).resolve().parent / "golden"


# -- run ----------------------------------------------------------------------

def test_run_writes_summary_and_timeseries(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--seed", "5"]) == 0
    stdout = capsys.readouterr().out
    assert "offered=50" in stdout
    rows = read_csv(out / "summary.csv")
    assert len(rows) == 1
    assert rows[0]["seed"] == "5"
    assert rows[0]["router"] == "rftr"
    assert (out / "timeseries_scenario-rftr-seed5.csv").exists()
    assert not (out / "runs.csv").exists()


@pytest.mark.parametrize("router", ["rftr", "baseline"])
def test_run_writes_the_golden_artifacts(tmp_path, router):
    """``wdmsim run --seed 7`` writes exactly the committed bytes of tests/golden/<router>."""
    out = tmp_path / "out"
    assert main(["run", "--seed", "7", "--router", router, "--out", str(out)]) == 0
    golden = GOLDEN / router
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def test_run_rejects_multiple_seeds(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path), "--seed", "1", "--seed", "2"]) == 2
    assert "exactly one seed" in capsys.readouterr().err


def test_run_rejects_router_both(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", "router = both\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "single router" in capsys.readouterr().err


def test_run_rejects_a_sweep(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", "sweep = sources 1,2,3,4\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
    assert "no sweep; use sweep" in capsys.readouterr().err
    assert not out.exists()


def test_run_router_and_topology_flags(tmp_path):
    topo = write(tmp_path, "chain.txt", "nodes 3\nlink 0 1 10 8\nlink 1 2 10 8\n")
    out = tmp_path / "out"
    assert main(["run", "--topology", topo, "--router", "baseline",
                 "--out", str(out), "--seed", "0"]) == 0
    rows = read_csv(out / "summary.csv")
    assert rows[0]["router"] == "baseline"
    assert rows[0]["probes_sent"] == "0"


def test_run_missing_config_file_fails_cleanly(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_run_bad_config_content_fails_cleanly(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "wavelenghts = 8\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep", "validate"])
def test_non_utf8_config_file_fails_cleanly(tmp_path, capsys, command):
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"seed = 1\n\xff\xfe\x00\x80\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert f"error: config file {cfg}: not UTF-8 text" in captured.out + captured.err
    assert not (tmp_path / "out").exists()


# -- sweep --------------------------------------------------------------------

def test_sweep_produces_aggregates_and_runs(tmp_path):
    cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    summary = read_csv(out / "summary.csv")
    runs = read_csv(out / "runs.csv")
    assert len(summary) == 4  # 2 routers x 2 rates
    assert len(runs) == 8  # x 2 seeds
    assert [r["scenario"] for r in summary] == [
        "demo-rftr-rate2", "demo-rftr-rate4",
        "demo-baseline-rate2", "demo-baseline-rate4",
    ]
    assert all(r["n_seeds"] == "2" for r in summary)
    assert all(r["seed"] == "" for r in summary)
    assert all(r["n_seeds"] == "1" for r in runs)
    ts = sorted(p.name for p in out.glob("timeseries_*.csv"))
    assert len(ts) == 8
    assert "timeseries_demo-rftr-rate2-seed1.csv" in ts


def test_sweep_prints_one_aligned_row_per_aggregate(tmp_path, capsys):
    # "sources-sweep-baseline-sources1" is 31 characters, past a 28-wide column
    cfg = write(tmp_path, "sweep.cfg", "name = sources-sweep\nrouter = both\nseeds = 1,2\n"
                "sweep = sources 1,2\nwavelengths = 2\narrival_rate = 4.0\nmax_requests = 30\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    *table, last = capsys.readouterr().out.splitlines()
    summary = read_csv(out / "summary.csv")
    assert table[0].split() == ["scenario", "blocking", "packets", "delay_ms", "utilization"]
    assert [line.split()[0] for line in table[1:]] == [r["scenario"] for r in summary]
    assert max(len(r["scenario"]) for r in summary) == 31
    for line, row in zip(table[1:], summary):
        assert line.split()[1] == f"{float(row['blocking_probability']):.4f}"
    # every number ends where its column's header does
    ends = [[m.end() for m in re.finditer(r"\S+", line)][1:] for line in table]
    assert ends[1:] == [ends[0]] * len(summary)
    assert last == f"8 runs, 4 aggregate rows -> {out / 'summary.csv'}"


def test_sweep_seed_flag_overrides_config(tmp_path):
    cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--seed", "9"]) == 0
    runs = read_csv(out / "runs.csv")
    assert {r["seed"] for r in runs} == {"9"}


def test_sweep_rejects_duplicate_seed_flags(tmp_path, capsys):
    cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--seed", "1", "--seed", "1"]) == 1
    assert "duplicate seed" in capsys.readouterr().err
    assert not out.exists()


def test_repeat_sweeps_are_byte_identical(tmp_path):
    # a repeat sweep, and run_scenario asked for 4 workers, write what the first sweep wrote
    cfg = write(tmp_path, "sweep.cfg", SWEEP_CFG)
    first, repeat, asked = tmp_path / "first", tmp_path / "repeat", tmp_path / "asked"
    assert main(["sweep", "--config", cfg, "--out", str(first)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(repeat)]) == 0
    run_scenario(parse_config(SWEEP_CFG), asked, workers=4)
    names = sorted(p.name for p in first.iterdir())
    for out in (repeat, asked):
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (first / name).read_bytes() == (out / name).read_bytes()


def test_run_scenario_runs_every_simulation_on_the_calling_thread(tmp_path, monkeypatch):
    seen = []
    simulate = wdmsim.cli.run

    def recording(config, **kwargs):
        seen.append((threading.get_ident(), threading.active_count()))
        return simulate(config, **kwargs)

    monkeypatch.setattr(wdmsim.cli, "run", recording)
    before = threading.active_count()
    result = run_scenario(parse_config(SWEEP_CFG), tmp_path / "out", workers=2)
    assert len(seen) == len(result.runs) == 8
    assert set(seen) == {(threading.get_ident(), before)}


# a 5-node ring with one chord, 2 wavelengths a link
RING_TOPO = "nodes 5\n" + "".join(
    f"link {a} {b} 10 2\n" for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])


def test_sweep_runs_match_lone_runs(tmp_path):
    # link 0 fails at 1 s and is never repaired: a run that handed its down link, or a
    # route resolved while it was down, to the next would change every later run's report
    topo = write(tmp_path, "ring.topo", RING_TOPO)
    scenario = parse_config(f"topology = {topo}\nrouter = both\nseeds = 1, 2\n"
                            "arrival_rate = 4.0\nholding_time = 0.5\nmax_requests = 60\n"
                            "failures = 1.0:0\n")
    result = run_scenario(scenario, tmp_path / "out")
    assert len(result.runs) == 4
    for outcome in result.runs:
        report = outcome.report
        fresh = run(scenario.config_for(report.router, None, report.seed))
        fresh.scenario = report.scenario
        assert report == fresh
    assert sum(o.report.restored + o.report.dropped for o in result.runs) > 0


def test_a_run_that_leaks_a_channel_stops_the_sweep(tmp_path, monkeypatch):
    monkeypatch.setattr(wdmsim.engine, "release_lightpath", lambda lp: None)  # departures leak
    out = tmp_path / "out"
    with pytest.raises(InvariantError, match="channel leak"):
        run_scenario(parse_config(SWEEP_CFG), out)
    assert not out.exists()


@pytest.mark.parametrize("base, error, message", [
    # refused as the topology is built, as a lone run refuses it: by the mesh's first link
    (SimConfig(wavelengths=0), TopologyError, "total_channels must be in 1.."),
    (SimConfig(topology_file="no-such.topo"), TopologyError, "topology file no-such.topo"),
])
def test_run_scenario_refuses_in_a_lone_runs_order(tmp_path, monkeypatch, base, error, message):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(error, match=message):
        run_scenario(Scenario(base=base, seeds=[1, 2]), out)
    assert not out.exists()


@pytest.mark.parametrize("seeds, workers", [([], 1), ([1], 0), ([1], -3)])
def test_run_scenario_refuses_no_seeds_and_no_workers(tmp_path, seeds, workers):
    scenario = parse_config(SWEEP_CFG)
    scenario.seeds = seeds
    out = tmp_path / "out"
    with pytest.raises(ConfigError):
        run_scenario(scenario, out, workers=workers)
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [
    ("--seeds", "--seeds must be >= 1, got 0"),
    ("--seeds=-3", "--seeds must be >= 1, got -3"),
])
def test_restoration_demo_refuses_no_seeds(flag, message):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [flag] if "=" in flag else [flag, "0"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "restoration_demo.py"), *argv],
        capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr


def test_failed_sweep_leaves_no_partial_summary(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", SWEEP_CFG + "failures = 1.0:99\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert "unknown link" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()
    assert not (out / "runs.csv").exists()


def test_run_scenario_returns_in_memory_results(tmp_path):
    scenario = parse_config(SWEEP_CFG)
    result = run_scenario(scenario, tmp_path / "o")
    assert len(result.runs) == 8
    assert len(result.aggregate_rows) == 4
    keys = [(r.report.router, r.sweep_value, r.report.seed) for r in result.runs]
    assert keys == sorted(keys)
    # aggregate blocking equals the mean of its member runs
    member = [r.report.blocking_probability for r in result.runs
              if r.report.router == "rftr" and r.sweep_value == 2.0]
    agg = next(a for a in result.aggregate_rows
               if a["scenario"] == "demo-rftr-rate2")
    assert agg["blocking_probability"] == pytest.approx(sum(member) / len(member))


def test_importing_the_cli_as_a_library_loads_no_argument_parser():
    # a sweep's set-up imports wdmsim.cli for run_scenario; only main() needs argparse
    def loads_argparse(code):
        done = subprocess.run([sys.executable, "-c", f"import sys{code}; "
                               "print('argparse' in sys.modules)"],
                              capture_output=True, text=True, check=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        return done.stdout.split() == ["True"]

    if loads_argparse(""):
        pytest.skip("this interpreter loads argparse at start-up")
    assert not loads_argparse(", wdmsim, wdmsim.cli")


# -- validate -----------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    cfg = write(tmp_path, "ok.cfg", "wavelengths = 4\n")
    assert main(["validate", "--config", cfg]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_reports_errors_nonzero(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "failures = 1.0:99\n")
    assert main(["validate", "--config", cfg]) == 1
    assert "unknown link 99" in capsys.readouterr().out


def test_validate_warnings_exit_zero(tmp_path, capsys):
    topo = write(tmp_path, "disc.txt", "nodes 4\nlink 0 1 10 8\nlink 2 3 10 8\n")
    cfg = write(tmp_path, "warn.cfg", f"topology = {topo}\n")
    assert main(["validate", "--config", cfg]) == 0
    assert "warning" in capsys.readouterr().out


@pytest.mark.parametrize("delay", ["nan", "inf"])
def test_validate_rejects_non_finite_link_delay(tmp_path, capsys, delay):
    topo = write(tmp_path, "t.txt", f"nodes 3\nlink 0 1 10 2\nlink 1 2 {delay} 2\n")
    cfg = write(tmp_path, "ok.cfg", f"topology = {topo}\n")
    assert main(["validate", "--config", cfg]) == 1
    assert "line 3" in capsys.readouterr().out


def test_validate_and_run_refuse_a_one_node_topology(tmp_path, capsys):
    topo = write(tmp_path, "one.txt", "nodes 1\n")
    assert main(["validate", "--topology", topo]) == 1
    assert "error: need at least two nodes" in capsys.readouterr().out
    with pytest.raises(ConfigError, match="at least two nodes"):
        run_scenario(parse_config(f"topology = {topo}\n"), tmp_path / "out", workers=1)
    assert main(["run", "--topology", topo, "--out", str(tmp_path / "cli")]) == 1
    assert "at least two nodes" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["probe_interval = 1e-300", "sample_interval = 1e-9",
                                     "probe_interval = 1e-9"])
def test_validate_refuses_a_step_run_refuses(tmp_path, capsys, setting):
    # each step cannot move the clock or would take the run past an event cap
    cfg = write(tmp_path, "tiny.cfg", f"{setting}\nmax_requests = 3\n")
    parameter = setting.split()[0]
    assert main(["validate", "--config", cfg]) == 1
    assert capsys.readouterr().out.startswith(f"error: {parameter}: ")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {parameter}: ")


# The CLI in a child whose address space is capped at 1 GiB, so a mask of 10**10
# bits (1.25 GB) fails there and not in the test process.
CAPPED_CLI = textwrap.dedent("""
    import resource, sys
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    from wdmsim.cli import main
    sys.exit(main(sys.argv[1:]))
""")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("where", ["wavelengths", "topology"])
@pytest.mark.parametrize("count", [0, 10**10])
def test_a_channel_count_outside_the_range_is_refused(tmp_path, command, where, count):
    # Link's one rule, whether the count reaches it from the config or from a topology line
    topo = write(tmp_path, "bad.topo", f"nodes 2\nlink 0 1 10 {count}\n")
    text = f"wavelengths = {count}\n" if where == "wavelengths" else f"topology = {topo}\n"
    cfg = write(tmp_path, "bad.cfg", text)
    done = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, command, "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60)
    assert done.returncode == 1, done.stderr
    assert "total_channels must be in 1..1048576" in done.stdout + done.stderr
    assert "Traceback" not in done.stderr


def test_a_bad_last_sweep_value_is_refused_before_any_run(tmp_path, capsys):
    cfg = write(tmp_path, "late.cfg", "sweep = rate 2, 1e400\nseeds = 1, 2\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: data_rate_mbps must be finite, got inf\n"
    assert not out.exists()
    assert main(["validate", "--config", cfg]) == 1
    assert capsys.readouterr().out == "error: data_rate_mbps must be finite, got inf\n"


def test_validate_rejects_parse_errors(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "sweep = rate 8,2\n")
    assert main(["validate", "--config", cfg]) == 1
    assert "increasing" in capsys.readouterr().out
