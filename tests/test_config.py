import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import wdmsim.cli
import wdmsim.engine
from wdmsim.cli import run_scenario
from wdmsim.config import (
    KNOWN_KEYS,
    Diagnostic,
    ROUTER_BOTH,
    SWEEP_RATE,
    SWEEP_SOURCES,
    Scenario,
    parse_config,
    validate_scenario,
)
from wdmsim.engine import ROUTER_BASELINE, ROUTER_RFTR, SimConfig, Simulation
from wdmsim.errors import ConfigError, SimError, TopologyError
from wdmsim.metrics import SUMMARY_COLUMNS


def test_empty_text_gives_stock_scenario():
    scenario = parse_config("")
    assert scenario.name == "scenario"
    assert scenario.base == SimConfig()
    assert scenario.router == ROUTER_RFTR
    assert scenario.seeds == [0]
    assert scenario.sweep_param == "none"


def test_full_scenario_round_trip():
    scenario = parse_config(
        """
        # comparison experiment
        name = demo
        router = both
        wavelengths = 2            # tighter capacity
        arrival_rate = 6.0
        holding_time = 0.5
        max_requests = 120
        load_threshold = 0.4
        sweep = rate 2, 4, 6, 8
        seeds = 1, 2, 3
        failures = 5.0:3, 7.5:0
        """
    )
    assert scenario.name == "demo"
    assert scenario.router == ROUTER_BOTH
    assert scenario.base.wavelengths == 2
    assert scenario.base.load_threshold == 0.4
    assert scenario.sweep_param == SWEEP_RATE
    assert scenario.sweep_values == [2.0, 4.0, 6.0, 8.0]
    assert scenario.seeds == [1, 2, 3]
    assert scenario.base.failures == [(5.0, 3), (7.5, 0)]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("wavelenghts = 8", "unknown key"),
        ("seed = 1\nseed = 2", "duplicate"),
        ("just some words", "key = value"),
        ("router = bgp", "router"),
        ("sweep = rate", "value list"),
        ("sweep = rate 4,2", "increasing"),
        ("sweep = sources 1,2.5", "integers"),
        ("sweep = holding 1,2", "unknown parameter"),
        ("sweep =", "unknown parameter"),
        ("sweep = sources inf", "integers"),
        ("sweep = sources 1e400", "integers"),
        ("sweep = sources nan", "integers"),
        ("seeds =", "empty"),
        ("failures = 5.0", "time:link"),
        ("max_requests = many", "integer"),
        ("arrival_rate = fast", "number"),
        ("seeds = 1,1", "duplicate seed"),
        ("seed = 3\nseeds = 1, 2", "seed and seeds"),
    ],
)
def test_bad_configs_rejected(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


# A value the parser reads but no run takes, by the rule's one owner: ``SimConfig.validate``
# in run_scenario's pass over every run, or the first run's constructor, itself or as it
# builds the mesh's ``Link``s.
OWNER_ERRORS = {"validate": ConfigError, "link": TopologyError, "first run": ConfigError}


@pytest.mark.parametrize(
    "text, owner, fragment",
    [
        ("load_threshold = 2.0", "validate", "load_threshold"),
        ("probe_interval = nan", "validate", "probe_interval must be finite"),
        ("arrival_rate = nan", "validate", "arrival_rate must be finite"),
        ("holding_time = inf", "validate", "holding_time must be finite"),
        ("sweep = rate 2,inf", "validate", "data_rate_mbps must be finite"),
        ("sweep = sources 0, 2", "validate", "session_traffics must be >= 1"),
        ("backups_m = -3", "validate", "backups_m"),
        ("link_delay_ms = 0", "link", "delay must be finite and positive"),
        ("link_delay_ms = -5", "link", "delay must be finite and positive"),
        ("conversion_time = -5", "validate", "conversion_time must be >= 0"),
        ("conversion_mode = sparse", "validate", "conversion_mode must be one of"),
        ("failures = -1:0", "first run", "failures: time"),
        ("failures = 1.0:0, -2.0:0", "first run", "failures: time"),
        ("failures = nan:0", "first run", "failures: time"),
        ("repairs = inf:0", "first run", "repairs: time"),
    ],
)
def test_a_bad_value_is_parsed_then_refused_before_any_run(tmp_path, monkeypatch, text, owner,
                                                           fragment):
    scenario = parse_config(text)
    simulate, runs = wdmsim.cli.run, []

    def spy(config, **kwargs):
        runs.append(config)
        return simulate(config, **kwargs)

    monkeypatch.setattr(wdmsim.cli, "run", spy)
    monkeypatch.setattr(Simulation, "run", lambda self: pytest.fail("a run started"))
    out = tmp_path / "out"
    with pytest.raises(OWNER_ERRORS[owner], match=re.escape(fragment)):
        run_scenario(scenario, out)
    assert len(runs) == (owner != "validate")  # a constructor refusal reaches the first run
    assert not out.exists()
    errors = [d.message for d in validate_scenario(scenario) if d.severity == "error"]
    assert len(errors) == 1 and fragment in errors[0]


def test_unknown_key_error_names_the_line():
    with pytest.raises(ConfigError) as err:
        parse_config("name = ok\nwavelenghts = 8\n")
    assert "line 2" in str(err.value)


def test_router_aliases():
    with pytest.raises(ConfigError):
        parse_config("router = baseline-shortest-hop")
    assert parse_config("router = RFTR").router == ROUTER_RFTR


def test_single_seed_key():
    scenario = parse_config("seed = 42")
    assert scenario.seeds == [42]
    assert scenario.base.seed == 42


def test_sources_sweep_values_become_ints():
    scenario = parse_config("sweep = sources 1,2,3,4")
    assert scenario.sweep_param == SWEEP_SOURCES
    cfg = scenario.config_for(ROUTER_RFTR, 3, seed=0)
    assert cfg.session_traffics == 3
    assert isinstance(cfg.session_traffics, int)


def test_rate_sweep_sets_data_rate():
    scenario = parse_config("sweep = rate 2,4")
    cfg = scenario.config_for(ROUTER_RFTR, 4.0, seed=5)
    assert cfg.data_rate_mbps == 4.0
    assert cfg.seed == 5
    assert cfg.router == ROUTER_RFTR


def test_run_labels_are_stable():
    scenario = parse_config("name = demo\nsweep = rate 2,4")
    assert scenario.run_label(ROUTER_RFTR, 4.0, seed=7) == "demo-rftr-rate4-seed7"
    assert scenario.run_label(ROUTER_BASELINE, 2.0) == "demo-baseline-rate2"
    plain = Scenario(name="x")
    assert plain.run_label(ROUTER_RFTR, None, seed=0) == "x-rftr-seed0"


@pytest.mark.parametrize("sweep, values", [
    ("rate 2.0000001, 2.0000002", "2.0000001 and 2.0000002"),  # both label as rate2
    ("sources 1000001, 1000002", "1000001.0 and 1000002.0"),  # both label as sources1e+06
], ids=["rate", "sources"])
def test_sweep_values_sharing_a_run_label_are_refused(sweep, values):
    # the second run would overwrite the first's timeseries file and
    # summary.csv would hold two rows under one label
    with pytest.raises(ConfigError, match=f"^sweep: values {values} share a run label$"):
        parse_config(f"sweep = {sweep}\n")
    labels = {parse_config("sweep = rate 2.5, 2.50001").run_label(ROUTER_RFTR, v)
              for v in (2.5, 2.50001)}
    assert labels == {"scenario-rftr-rate2.5", "scenario-rftr-rate2.50001"}


def test_routers_expansion():
    assert parse_config("router = both").routers() == [ROUTER_RFTR, ROUTER_BASELINE]
    assert parse_config("router = baseline").routers() == [ROUTER_BASELINE]


def test_validate_scenario_clean():
    assert validate_scenario(parse_config("")) == []


def test_validate_flags_missing_topology_file():
    scenario = parse_config("topology = /nonexistent/topo.txt")
    diags = validate_scenario(scenario)
    assert len(diags) == 1 and diags[0].severity == "error"


def test_validate_flags_bad_failure_links():
    scenario = parse_config("failures = 1.0:99, 2.0:0")
    messages = [d.message for d in validate_scenario(scenario)]
    assert messages == ["failures: unknown link 99"]


def test_validate_refuses_a_later_seed_over_the_tick_cap(monkeypatch):
    # the cap admits the first seed's run exactly, and only a later seed's run asks for more
    scenario = parse_config("seeds = 1, 2, 3\nmax_requests = 20\n")
    ticks = [max(t + h for t, _, _, h in Simulation(scenario.config_for(ROUTER_RFTR, None, seed))
                 .arrivals) / scenario.base.sample_interval for seed in scenario.seeds]
    assert ticks[0] < max(ticks[1:])
    monkeypatch.setattr(wdmsim.engine, "MAX_TICKS", ticks[0])
    [diag] = validate_scenario(scenario)
    assert diag.severity == "error" and diag.message.startswith("sample_interval: ")
    assert "events by" in diag.message


def test_scenario_runs_in_run_order():
    scenario = parse_config("router = both\nsweep = sources 2, 4\nseeds = 5, 6\n")
    assert scenario.runs() == [(router, value, seed) for router in (ROUTER_RFTR, ROUTER_BASELINE)
                               for value in (2.0, 4.0) for seed in (5, 6)]
    assert parse_config("").runs() == [(ROUTER_RFTR, None, 0)]
    scenario.seeds = []
    with pytest.raises(ConfigError, match="at least one seed"):
        scenario.runs()
    refusal = Diagnostic("error", "a scenario needs at least one seed")
    assert validate_scenario(scenario) == [refusal]


def test_validate_warns_on_disconnected_topology(tmp_path):
    path = tmp_path / "disc.txt"
    path.write_text("nodes 4\nlink 0 1 10 8\nlink 2 3 10 8\n")
    scenario = parse_config(f"topology = {path}")
    diags = validate_scenario(scenario)
    assert [d.severity for d in diags] == ["warning"]
    assert "disconnected" in diags[0].message


def test_readme_config_block_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config files", 1)[1].split("```", 2)[1]
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
    assert keys == KNOWN_KEYS
    # seed and seeds exclude each other, so the block parses without its seeds line
    base = parse_config("\n".join(line for line in block.splitlines()
                                   if not line.startswith("seeds"))).base
    # numeric keys are documented at their defaults; backups_m's default is candidates_k
    assert base.backups_m == base.candidates_k
    example_only = dict(topology_file=None, backups_m=None, failures=[], repairs=[])
    assert replace(base, **example_only) == SimConfig()


def test_readme_output_columns_match_summary_csv():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Outputs", 1)[1].split("```", 2)[1]
    assert block.strip().split(",") == SUMMARY_COLUMNS


# -- the parse boundary under random texts -------------------------------------

# every value is small, so a text that parses runs in milliseconds.  Each
# valid value is drawn eight times as often as each bad one, so that texts get
# past the earlier keys' checks to the later ones.
_BAD = ["", "nan", "inf", "-inf", "1e400", "x"]
# a valid ``topology`` value: the fuzz test writes RING5 and puts its path here
_RING5_FILE = "<ring5 file>"
RING5 = "nodes 5\n" + "".join(f"link {i} {(i + 1) % 5} 10 4\n" for i in range(5))


def _values(*valid: str, bad: tuple[str, ...] = ()):
    return st.sampled_from(list(valid) * 8 + list(bad) + _BAD)


_INTS = _values("1", "2", "8", bad=("0", "-1"))
_FLOATS = _values("0.5", "2", bad=("0", "-1"))
_SCHEDULES = _values("1.0:3", "0.5:0, 1.0:1, 2.0:3", "0.5:0, 1.0:0",
                     bad=("1.0:99", "nan:0", "inf:1", "-1:0", "1.0:x", "1.0"))
_VALUES = {
    "name": _values("fuzz"),
    "topology": _values(_RING5_FILE, bad=("/nonexistent/x.topo",)),
    "router": _values("rftr", "baseline", "both", bad=("ospf",)),
    "conversion_mode": _values("none", "full", bad=("sparse",)),
    "seeds": _values("1", "1, 2", bad=("1, 1", "2.5")),
    "sweep": _values("none", "rate 1, 2", "sources 1, 3",
                     bad=("sources 2.5", "rate 2, 1", "rate nan", "rate 1, inf", "sources inf",
                          "sources nan", "sources 1e400", "sources", "holding 1")),
    "failures": _SCHEDULES,
    "repairs": _SCHEDULES,
    **{key: _INTS for key in ("wavelengths", "session_traffics", "packet_size", "max_requests",
                              "candidates_k", "backups_m", "probes_per_interval", "seed")},
    **{key: _FLOATS for key in ("link_delay_ms", "load_threshold", "conversion_time",
                                "arrival_rate", "holding_time", "data_rate_mbps",
                                "sample_interval", "probe_interval", "adaptive_scale")},
}
# the keys that carry lists, whose parsing branches most, are drawn more often
_LIST_KEYS = ("failures", "repairs", "seeds", "sweep")
_KEYS = st.tuples(
    st.lists(st.sampled_from(sorted(set(_VALUES) - set(_LIST_KEYS))), max_size=5, unique=True),
    st.lists(st.sampled_from(_LIST_KEYS), max_size=4, unique=True),
).map(lambda pair: pair[0] + pair[1])
_TEXTS = _KEYS.flatmap(lambda keys: st.tuples(*(_VALUES[key] for key in keys)).map(
    lambda values: "\n".join(f"{k} = {v}" for k, v in zip(keys, values))))


def test_the_fuzz_draws_every_key():
    assert set(_VALUES) == KNOWN_KEYS


@pytest.fixture(scope="module")
def ring5_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "ring5.topo"
    path.write_text(RING5, encoding="utf-8")
    return path


@settings(max_examples=300, deadline=None)
@given(text=_TEXTS)
def test_a_text_is_refused_with_a_sim_error_or_runs_to_a_balanced_report(ring5_file, text):
    try:
        scenario = parse_config(text.replace(_RING5_FILE, str(ring5_file)))
    except SimError:
        return
    for router in scenario.routers():
        for value in scenario.sweep_values or [None]:
            for seed in scenario.seeds:
                try:
                    sim = Simulation(scenario.config_for(router, value, seed), audit=True)
                except SimError:
                    continue
                report = sim.run()
                assert report.offered == report.accepted + report.blocked
                assert report.completed + report.dropped == report.accepted
