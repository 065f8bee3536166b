"""Run metrics: demand blocking, payload throughput, delay, channel utilization.

Definitions used throughout:

* blocking probability — rejected demands over offered demands;
* throughput — payload packets delivered by accepted sessions (probe
  traffic is tallied separately and never mixed in);
* end-to-end delay — propagation plus wavelength-conversion time of the
  carrying path, recomputed when restoration moves the connection;
* channel utilization — occupied fraction of all channels on up links,
  sampled on a fixed interval.

Restoration is instantaneous in this model, so a restored session carries
traffic for its whole holding time; a dropped session carries only up to
the failure instant.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, field, fields
from functools import reduce

from .topology import FORWARD, REVERSE, Topology


@dataclass
class MetricsReport:
    """One run's results; fields are declared in summary.csv column order."""

    scenario: str = ""
    router: str = "rftr"
    seed: int = 0
    rate_mbps: float = 0.0
    sources: int = 0
    blocking_probability: float = 0.0
    packets_received: int = 0
    mean_delay: float = 0.0
    mean_utilization: float = 0.0
    mean_setup_delay: float = 0.0
    probes_sent: int = 0
    probe_packs: int = 0
    probe_nacks: int = 0
    offered: int = 0
    accepted: int = 0
    blocked: int = 0
    completed: int = 0
    restored: int = 0
    dropped: int = 0
    # (time, blocking_probability_so_far, cumulative_packets, utilization)
    series: list[tuple[float, float, int, float]] = field(default_factory=list)


def packets_for(carried_s: float, config) -> int:
    """Payload packets a session delivers in ``carried_s`` seconds.

    ``config`` supplies ``data_rate_mbps`` (per session) and ``packet_size`` (bytes).
    """
    return int(config.data_rate_mbps * 1e6 * carried_s // (config.packet_size * 8))


def sample_utilization(topology: Topology) -> float:
    """Occupied fraction of the channels on up links, both lanes counted, in one pass."""
    total = free = 0
    for link in topology.links:
        if link.up:  # so the masks are read in place, to ``free_mask``'s rule
            total += 2 * link.total_channels
            free += link._free[FORWARD].bit_count() + link._free[REVERSE].bit_count()
    return (total - free) / total if total else 0.0


class MetricsCollector:
    """Counts lifecycle events from the simulation straight into its report."""

    def __init__(self, config):
        self.config = config
        self.report = MetricsReport(
            seed=config.seed,
            router=config.router,
            rate_mbps=config.data_rate_mbps,
            sources=config.session_traffics,
        )
        self.restored_ids: set[int] = set()
        self.setup_delay_sum = 0.0
        self.delay_weighted_sum = 0.0
        self.carried_duration_sum = 0.0
        self._epochs: dict[int, tuple[float, float]] = {}  # conn id -> (delay, start)

    def on_offered(self):
        self.report.offered += 1

    def on_blocked(self):
        self.report.blocked += 1

    def on_accepted(self, conn, path_delay: float, now: float):
        """``path_delay`` is the primary's setup delay and its first delay epoch."""
        self.report.accepted += 1
        self.setup_delay_sum += path_delay
        self._epochs[conn.id] = (path_delay, now)

    def on_restored(self, conn, new_path_delay: float, now: float):
        self._close_epoch(conn.id, now)
        self._epochs[conn.id] = (new_path_delay, now)
        self.restored_ids.add(conn.id)

    def on_completed(self, conn, now: float):
        report = self.report
        report.completed += 1
        self._close_epoch(conn.id, now)
        report.packets_received += packets_for(conn.holding, self.config)

    def on_dropped(self, conn, now: float):
        self.report.dropped += 1
        self._close_epoch(conn.id, now)
        self.report.packets_received += packets_for(now - conn.arrival, self.config)

    def on_probe_sent(self, count: int):  # one ended connection's probes
        self.report.probes_sent += count

    def on_probe_feedback(self, packs: int, nacks: int):  # one ended connection's answers
        self.report.probe_packs += packs
        self.report.probe_nacks += nacks

    def on_sample(self, topology: Topology, now: float):
        report = self.report
        bp = report.blocked / report.offered if report.offered else 0.0
        report.series.append((now, bp, report.packets_received, sample_utilization(topology)))

    def _close_epoch(self, conn_id: int, now: float):
        delay, start = self._epochs.pop(conn_id)
        duration = now - start
        self.delay_weighted_sum += delay * duration
        self.carried_duration_sum += duration

    def finalize(self) -> MetricsReport:
        """Fill the derived fields and return the report; the caller sets ``scenario``."""
        report = self.report
        report.restored = len(self.restored_ids)
        if report.offered:
            report.blocking_probability = report.blocked / report.offered
        if self.carried_duration_sum > 0:
            report.mean_delay = self.delay_weighted_sum / self.carried_duration_sum
        if report.accepted:
            report.mean_setup_delay = self.setup_delay_sum / report.accepted
        if report.series:
            # summed left to right: sum() compensates from Python 3.12 on
            utilizations = (u for *_, u in report.series)
            report.mean_utilization = reduce(operator.add, utilizations, 0) / len(report.series)
        return report


# every report field but the timeseries, then the number of seeds a row averages
SUMMARY_COLUMNS = [f.name for f in fields(MetricsReport) if f.name != "series"] + ["n_seeds"]

TIMESERIES_COLUMNS = ["time", "blocking_probability_so_far", "cumulative_packets", "utilization"]


def summary_row(report: MetricsReport) -> dict:
    """One run's row; it stands for a single seed."""
    return {**{column: getattr(report, column) for column in SUMMARY_COLUMNS[:-1]}, "n_seeds": 1}


def write_summary_csv(rows: list[dict], destination) -> None:
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def write_timeseries_csv(report: MetricsReport, destination) -> None:
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMESERIES_COLUMNS)
        writer.writerows(report.series)


def export_csv(report: MetricsReport, destination) -> None:
    """Single-run summary: header plus exactly one row."""
    write_summary_csv([summary_row(report)], destination)
