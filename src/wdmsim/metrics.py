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
from dataclasses import dataclass, field

from .topology import Topology


@dataclass
class MetricsReport:
    scenario: str = ""
    seed: int = 0
    router: str = "rftr"
    rate_mbps: float = 0.0
    sources: int = 0
    offered: int = 0
    accepted: int = 0
    blocked: int = 0
    completed: int = 0
    restored: int = 0
    dropped: int = 0
    blocking_probability: float = 0.0
    packets_received: int = 0
    mean_delay: float = 0.0
    mean_setup_delay: float = 0.0
    mean_utilization: float = 0.0
    probes_sent: int = 0
    probe_packs: int = 0
    probe_nacks: int = 0
    # (time, blocking_probability_so_far, cumulative_packets, utilization)
    series: list[tuple[float, float, int, float]] = field(default_factory=list)


def packets_for(carried_s: float, config) -> int:
    """Payload packets a session delivers in ``carried_s`` seconds.

    ``config`` supplies ``data_rate_mbps`` (per session) and ``packet_size`` (bytes).
    """
    return int(config.data_rate_mbps * 1e6 * carried_s // (config.packet_size * 8))


def sample_utilization(topology: Topology) -> float:
    """Occupied fraction of the channels on up links, both lanes counted."""
    total = topology.total_channel_count()
    if total == 0:
        return 0.0
    return topology.occupied_channel_count() / total


class MetricsCollector:
    """Accumulates lifecycle events from the simulation into a report."""

    def __init__(self, config):
        self.config = config
        self.offered = 0
        self.accepted = 0
        self.blocked = 0
        self.completed = 0
        self.dropped = 0
        self.restored_ids: set[int] = set()
        self.packets = 0
        self.probes_sent = 0
        self.probe_packs = 0
        self.probe_nacks = 0
        self.setup_delay_sum = 0.0
        self.delay_weighted_sum = 0.0
        self.carried_duration_sum = 0.0
        self.series: list[tuple[float, float, int, float]] = []
        self._epochs: dict[int, tuple[float, float]] = {}  # conn id -> (delay, start)

    def on_offered(self):
        self.offered += 1

    def on_blocked(self):
        self.blocked += 1

    def on_accepted(self, conn, path_delay: float, now: float):
        """``path_delay`` is the primary's setup delay and its first delay epoch."""
        self.accepted += 1
        self.setup_delay_sum += path_delay
        self._epochs[conn.id] = (path_delay, now)

    def on_restored(self, conn, new_path_delay: float, now: float):
        self._close_epoch(conn.id, now)
        self._epochs[conn.id] = (new_path_delay, now)
        self.restored_ids.add(conn.id)

    def on_completed(self, conn, now: float):
        self.completed += 1
        self._close_epoch(conn.id, now)
        self.packets += packets_for(conn.holding, self.config)

    def on_dropped(self, conn, now: float):
        self.dropped += 1
        self._close_epoch(conn.id, now)
        self.packets += packets_for(now - conn.arrival, self.config)

    def on_probe_sent(self):
        self.probes_sent += 1

    def on_probe_feedback(self, outcome: str):
        if outcome == "pack":
            self.probe_packs += 1
        else:
            self.probe_nacks += 1

    def on_sample(self, topology: Topology, now: float):
        utilization = sample_utilization(topology)
        bp = self.blocked / self.offered if self.offered else 0.0
        self.series.append((now, bp, self.packets, utilization))

    def _close_epoch(self, conn_id: int, now: float):
        delay, start = self._epochs.pop(conn_id)
        duration = now - start
        self.delay_weighted_sum += delay * duration
        self.carried_duration_sum += duration

    def finalize(self) -> MetricsReport:
        """The run's report; ``scenario`` stays empty until the caller labels the run."""
        report = MetricsReport(
            seed=self.config.seed,
            router=self.config.router,
            rate_mbps=self.config.data_rate_mbps,
            sources=self.config.session_traffics,
            offered=self.offered,
            accepted=self.accepted,
            blocked=self.blocked,
            completed=self.completed,
            restored=len(self.restored_ids),
            dropped=self.dropped,
            packets_received=self.packets,
            probes_sent=self.probes_sent,
            probe_packs=self.probe_packs,
            probe_nacks=self.probe_nacks,
            series=list(self.series),
        )
        if self.offered:
            report.blocking_probability = self.blocked / self.offered
        if self.carried_duration_sum > 0:
            report.mean_delay = self.delay_weighted_sum / self.carried_duration_sum
        if report.accepted:
            report.mean_setup_delay = self.setup_delay_sum / report.accepted
        if self.series:
            report.mean_utilization = sum(u for *_, u in self.series) / len(self.series)
        return report


SUMMARY_COLUMNS = [
    "scenario",
    "router",
    "seed",
    "rate_mbps",
    "sources",
    "blocking_probability",
    "packets_received",
    "mean_delay",
    "mean_utilization",
    "mean_setup_delay",
    "probes_sent",
    "probe_packs",
    "probe_nacks",
    "offered",
    "accepted",
    "blocked",
    "completed",
    "restored",
    "dropped",
    "n_seeds",
]

TIMESERIES_COLUMNS = ["time", "blocking_probability_so_far", "cumulative_packets", "utilization"]


def summary_row(report: MetricsReport, n_seeds: int = 1) -> dict:
    row = {column: getattr(report, column) for column in SUMMARY_COLUMNS if column != "n_seeds"}
    return {**row, "n_seeds": n_seeds}


def write_summary_csv(rows: list[dict], destination) -> None:
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_timeseries_csv(report: MetricsReport, destination) -> None:
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMESERIES_COLUMNS)
        for t, bp, packets, utilization in report.series:
            writer.writerow([t, bp, packets, utilization])


def export_csv(report: MetricsReport, destination) -> None:
    """Single-run summary: header plus exactly one row."""
    write_summary_csv([summary_row(report)], destination)
