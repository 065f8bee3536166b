import csv
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from wdmsim.metrics import (
    SUMMARY_COLUMNS,
    TIMESERIES_COLUMNS,
    MetricsCollector,
    export_csv,
    packets_for,
    sample_utilization,
    summary_row,
    write_summary_csv,
    write_timeseries_csv,
)
from wdmsim.engine import SimConfig
from wdmsim.routing import establish_lightpath
from wdmsim.topology import FORWARD, parse_topology

CONFIG = SimConfig(data_rate_mbps=2.0, packet_size=200)


def conn(arrival=0.0, holding=0.2):
    return SimpleNamespace(id=1, arrival=arrival, holding=holding)


# -- per-connection arithmetic ------------------------------------------------

def test_packet_count_for_whole_holding():
    # 2 Mb/s for 0.2 s in 1600-bit packets: exactly 250
    assert packets_for(0.2, CONFIG) == 250


def test_packet_count_floors_partial_packets():
    assert packets_for(0.2001, CONFIG) == 250
    assert packets_for(0.1999, CONFIG) == 249


def test_blocked_connection_carries_nothing():
    # a blocked demand never becomes a connection: it is offered and blocked only
    collector = MetricsCollector(CONFIG)
    collector.on_offered()
    collector.on_blocked()
    assert collector.finalize().packets_received == 0
    assert packets_for(0.0, CONFIG) == 0


def test_dropped_connection_counts_time_before_failure():
    collector = MetricsCollector(CONFIG)
    c = conn(arrival=1.0, holding=5.0)
    collector.on_offered()
    collector.on_accepted(c, 0.02, now=1.0)
    collector.on_dropped(c, now=1.1)
    # only 0.1 s carried: floor(2e6 * 0.1 / 1600) = 125
    assert collector.finalize().packets_received == 125


@given(st.floats(0.0, 100.0), st.integers(1, 10**7))
def test_packet_count_nonnegative_and_monotone(holding, rate):
    config = SimConfig(data_rate_mbps=rate / 1e6, packet_size=200)
    n = packets_for(holding, config)
    assert n >= 0
    assert n <= packets_for(holding + 1.0, config)


def test_blocking_probability_ratio():
    collector = MetricsCollector(CONFIG)
    for i in range(50):
        collector.on_offered()
        if i < 7:
            collector.on_blocked()
    assert collector.finalize().blocking_probability == 7 / 50
    # undefined with zero offered demands: the report keeps its 0.0 default
    assert MetricsCollector(CONFIG).finalize().blocking_probability == 0.0


def test_end_to_end_delay_recomputed_from_links(square):
    lp = establish_lightpath(square.hops((0, 1, 2)), "none", 0.024)
    assert lp.path_delay == pytest.approx(sum(link.delay for link, _ in lp.hops))
    assert lp.path_delay == pytest.approx(0.020)


def test_end_to_end_delay_charges_conversion():
    topo = parse_topology("nodes 3\nlink 0 1 10 2\nlink 1 2 10 2\n")
    topo.links[0].occupy(FORWARD, 0)
    topo.links[1].occupy(FORWARD, 1)
    lp = establish_lightpath(topo.hops((0, 1, 2)), "full", 0.024)
    assert lp.path_delay == pytest.approx(0.044)


# -- utilization sampling -----------------------------------------------------

def test_utilization_counts_both_lanes(square):
    assert sample_utilization(square) == 0.0
    establish_lightpath(square.hops((0, 1, 2)), "none", 0.024)
    assert sample_utilization(square) == 2 / 64


def test_utilization_ignores_down_links(square):
    establish_lightpath(square.hops((0, 1)), "none", 0.024)
    assert sample_utilization(square) == 1 / 64
    square.links[0].up = False
    assert sample_utilization(square) == 0.0  # the only occupied link no longer counts
    # the down link stays out of both the total and the occupied count
    square.links[1].occupy(FORWARD, 0)
    assert sample_utilization(square) == 1 / 48


# -- collector lifecycle ------------------------------------------------------

def test_delay_is_duration_weighted_across_restoration():
    collector = MetricsCollector(CONFIG)
    c = conn(holding=10.0)
    collector.on_offered()
    collector.on_accepted(c, path_delay=0.02, now=0.0)
    # 4 s on a 0.02 s path, then 6 s on a 0.05 s restoration path
    collector.on_restored(c, new_path_delay=0.05, now=4.0)
    collector.on_completed(c, now=10.0)
    report = collector.finalize()
    assert report.mean_delay == pytest.approx((0.02 * 4 + 0.05 * 6) / 10)
    assert report.mean_setup_delay == 0.02  # the primary's delay only
    assert report.restored == 1
    assert report.completed == 1


def test_restoring_twice_counts_once():
    collector = MetricsCollector(CONFIG)
    c = conn(holding=9.0)
    collector.on_offered()
    collector.on_accepted(c, 0.02, now=0.0)
    collector.on_restored(c, 0.03, now=1.0)
    collector.on_restored(c, 0.04, now=2.0)
    collector.on_completed(c, now=9.0)
    assert collector.finalize().restored == 1


def test_sample_series_tracks_running_counters(square):
    collector = MetricsCollector(CONFIG)
    collector.on_sample(square, 0.5)
    collector.on_offered()
    collector.on_blocked()
    collector.on_sample(square, 1.0)
    report = collector.finalize()
    assert report.series[0] == (0.5, 0.0, 0, 0.0)
    assert report.series[1] == (1.0, 1.0, 0, 0.0)
    assert [(t, u) for t, _, _, u in report.series] == [(0.5, 0.0), (1.0, 0.0)]
    assert report.mean_utilization == 0.0


def test_probe_counters():
    collector = MetricsCollector(CONFIG)
    # one call of each per ended connection: its probes, then its (packs, nacks)
    collector.on_probe_sent(3)
    collector.on_probe_feedback(1, 0)
    collector.on_probe_sent(2)
    collector.on_probe_feedback(0, 2)
    report = collector.finalize()
    assert (report.probes_sent, report.probe_packs, report.probe_nacks) == (5, 1, 2)


def test_empty_run_finalizes_with_defaults():
    config = replace(CONFIG, seed=5, router="baseline", session_traffics=3)
    report = MetricsCollector(config).finalize()
    # the run's identity comes from its config; the caller sets the label
    assert (report.scenario, report.seed, report.router) == ("", 5, "baseline")
    assert (report.rate_mbps, report.sources) == (2.0, 3)
    assert report.blocking_probability == 0.0
    assert report.mean_delay == 0.0
    assert report.mean_utilization == 0.0
    assert report.packets_received == 0


# -- CSV shape ----------------------------------------------------------------

def finished_report():
    collector = MetricsCollector(replace(CONFIG, seed=3))
    c = conn(holding=0.2)
    collector.on_offered()
    collector.on_accepted(c, 0.02, now=0.0)
    collector.on_completed(c, now=0.2)
    report = collector.finalize()
    report.scenario = "demo"
    return report


def test_summary_csv_layout(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv([summary_row(finished_report())], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SUMMARY_COLUMNS
    assert len(rows) == 2
    row = dict(zip(rows[0], rows[1]))
    assert row["scenario"] == "demo"
    assert row["seed"] == "3"
    assert row["packets_received"] == "250"
    assert row["n_seeds"] == "1"


def test_timeseries_csv_layout(tmp_path):
    report = finished_report()
    report.series = [(0.5, 0.0, 100, 0.25), (1.0, 0.1, 250, 0.125)]
    path = tmp_path / "ts.csv"
    write_timeseries_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TIMESERIES_COLUMNS
    assert rows[1] == ["0.5", "0.0", "100", "0.25"]
    assert rows[2] == ["1.0", "0.1", "250", "0.125"]


def test_export_csv_single_row(tmp_path):
    path = tmp_path / "run.csv"
    export_csv(finished_report(), path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SUMMARY_COLUMNS
    assert len(rows) == 2


def test_csv_bytes_are_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(finished_report(), a)
    export_csv(finished_report(), b)
    assert a.read_bytes() == b.read_bytes()
