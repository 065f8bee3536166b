"""Deterministic discrete-event core: traffic, lifecycle, failures, orchestration.

Every run is driven by a single seeded RNG consumed only while pre-generating
the arrival sequence, so identical (config, seed) pairs replay bit-identically.
Events dequeue in (time, insertion seq) order, which makes simultaneous events
deterministic too.  Payloads are positional; a departure or probe send carries
its connection.

Only events that carry a decision exist: the lifecycle (arrival, departure,
link failure, link repair), one pending probe send per candidate and the
sample ticks.  The scripted events (arrivals, failures, repairs) are fixed
before the first one runs, so they wait in a list sorted by (time, seq), with
the seqs scheduling them would give; the heap holds only what the run
schedules: departures, probe sends and ticks.  The engine schedules the sends
each ``ConnectionProber`` names; the prober owns the window rule, so no send
falls at or after the departure and no event closes a window or delivers an
answer.  A connection ends one way, by departure or drop: it leaves the live
map, its ``current`` becomes None and its probes and the answers landed by then
are counted, so an event queued for it is stale once ``current`` is None.
Sample ticks run while any event is pending, scheduled or scripted, so the
timeseries ends at the same tick whatever the router.  A run reads its
conversion mode and binds its router once; a fresh setup, restoration
included, goes through it.  Every connection's backups are its prober's
ranking, and ``m`` is applied where restoration tries them.  Every refusal a run
can meet before its first event, of its config, topology, pinned arrivals or a
tick or probe step too small for it to end, is made by ``Simulation``'s constructor.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, fields
from functools import partial
from heapq import heappop, heappush
from numbers import Real

from . import metrics as metrics_mod
from .errors import ConfigError, InvariantError, SimError, TopologyError
from .probing import (
    ConnectionProber,
    candidate_paths,
    probe_count,
    probe_outcome,
    reroute,
)
from .routing import (
    CONVERSION_MODES,
    NO_CONVERSION,
    Lightpath,
    establish_baseline,
    establish_primary,
    release_lightpath,
)
from .topology import Topology, default_topology, parse_topology

# event kinds
ARRIVAL = "arrival"
DEPARTURE = "departure"
PROBE_SEND = "probe_send"
LINK_FAILURE = "link_failure"
LINK_REPAIR = "link_repair"
SAMPLE_TICK = "sample_tick"

ROUTER_RFTR = "rftr"
ROUTER_BASELINE = "baseline"

# The most ticks, and rftr probe sends, a run may schedule: thousands of times any study's
# (about 5e3 and 3e5), far fewer than a 1e-9 s step asks for in a run of a second.
MAX_TICKS = 10**7
MAX_PROBE_SENDS = 10**9


@dataclass
class Connection:
    id: int
    src: int
    dst: int
    arrival: float
    holding: float
    current: Lightpath | None = None  # None once the connection ended
    prober: ConnectionProber | None = None


@dataclass
class SimConfig:
    topology_file: str | None = None
    wavelengths: int = 8
    link_delay_ms: float = 10.0
    load_threshold: float = 0.3
    conversion_mode: str = NO_CONVERSION
    conversion_time: float = 0.024
    arrival_rate: float = 0.5  # calls/second per source
    holding_time: float = 0.2  # mean, seconds
    session_traffics: int = 4
    packet_size: int = 200  # bytes
    data_rate_mbps: float = 2.0  # per session
    max_requests: int = 50
    sample_interval: float = 0.5
    candidates_k: int = 3
    backups_m: int | None = None
    probes_per_interval: int = 10
    probe_interval: float = 0.5
    adaptive_scale: float = 0.0
    router: str = ROUTER_RFTR
    seed: int = 0
    failures: list[tuple[float, int]] = field(default_factory=list)
    repairs: list[tuple[float, int]] = field(default_factory=list)

    @property
    def aggregate_rate(self) -> float:
        """Arrivals per second over all sources: the per-source rate times the sources."""
        return self.arrival_rate * self.session_traffics

    def validate(self) -> None:
        """The one place a scenario parameter is checked; raises ``ConfigError``."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for label, schedule in (("failures", self.failures), ("repairs", self.repairs)):
            for t, _ in schedule:
                if not (math.isfinite(t) and t >= 0):
                    raise ConfigError(f"{label}: time must be finite and >= 0, got {t}")
        if self.max_requests < 1:
            raise ConfigError("max_requests must be >= 1")
        if self.sample_interval <= 0:
            raise ConfigError("sample_interval must be positive")
        if not 0.0 < self.load_threshold < 1.0:
            raise ConfigError(f"load_threshold must be in (0,1), got {self.load_threshold}")
        if self.conversion_mode not in CONVERSION_MODES:
            raise ConfigError(f"conversion_mode must be one of {CONVERSION_MODES}")
        if self.router not in (ROUTER_RFTR, ROUTER_BASELINE):
            raise ConfigError(f"router must be rftr or baseline, got {self.router!r}")
        if self.arrival_rate <= 0 or self.holding_time <= 0:
            raise ConfigError("arrival_rate and holding_time must be positive")
        if self.session_traffics < 1:
            raise ConfigError("session_traffics must be >= 1")
        if self.wavelengths < 1:
            raise ConfigError("wavelengths must be >= 1")
        if self.candidates_k < 1:
            raise ConfigError("candidates_k must be >= 1")
        if self.backups_m is not None and self.backups_m < 0:
            raise ConfigError(f"backups_m must be >= 0, got {self.backups_m}")
        if self.link_delay_ms <= 0:
            raise ConfigError(f"link_delay_ms must be positive, got {self.link_delay_ms}")
        if self.conversion_time < 0:
            raise ConfigError(f"conversion_time must be >= 0, got {self.conversion_time}")
        if self.probes_per_interval < 1 or self.probe_interval <= 0 or self.adaptive_scale < 0:
            raise ConfigError("invalid probe policy parameters")
        if self.packet_size < 1 or self.data_rate_mbps <= 0:
            raise ConfigError("packet_size and data_rate_mbps must be positive")


def build_topology(config: SimConfig) -> Topology:
    """The config's topology file, refused as a ``TopologyError`` if unreadable, else the mesh."""
    if config.topology_file:
        try:
            with open(config.topology_file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            reason = err.strerror if isinstance(err, OSError) else "not UTF-8 text"
            raise TopologyError(f"topology file {config.topology_file}: {reason}") from None
        return parse_topology(text)
    return default_topology(channels=config.wavelengths, delay_ms=config.link_delay_ms)


def generate_arrivals(
    config: SimConfig, rng: random.Random, num_nodes: int
) -> tuple[tuple[float, int, int, float], ...]:
    """Pre-draw (time, src, dst, holding) for every demand.

    ``config.max_requests`` demands; interarrival gaps are exponential at
    the aggregate rate (the per-source generators superpose into one
    stream); endpoints are uniform over ordered pairs with src != dst
    (``Simulation`` refuses fewer than two nodes); holding times are
    exponential with mean ``config.holding_time``.
    """
    arrivals = []
    now = 0.0
    rate = config.aggregate_rate
    for _ in range(config.max_requests):
        now += rng.expovariate(rate)
        src = rng.randrange(num_nodes)
        dst = rng.randrange(num_nodes - 1)
        if dst >= src:
            dst += 1
        holding = rng.expovariate(1.0 / config.holding_time)
        arrivals.append((now, src, dst, holding))
    return tuple(arrivals)


class Simulation:
    """Single-threaded event loop over one topology instance.

    An event is an entry ``(time, seq, kind, args)``; dispatch passes ``args``
    positionally to ``kind``'s handler.  ``schedule`` pushes a run's decisions
    onto the heap; the scripted events merge with it by (time, seq), a total
    order, so they dispatch as if one heap held both.  A departure or probe
    send carries its ``Connection``, whose ``current`` is None once it ended.
    Construction makes every refusal; ``arrivals`` pins the demands, else they are drawn.
    """

    def __init__(self, config: SimConfig, topology: Topology | None = None, audit: bool = False,
                 arrivals=None):
        config.validate()
        self.config = config
        self.topology = topology if topology is not None else build_topology(config)
        if self.topology.num_nodes < 2:
            raise ConfigError("need at least two nodes to generate traffic")
        for label, schedule in (("failures", config.failures), ("repairs", config.repairs)):
            for _, link_id in schedule:
                if not 0 <= link_id < len(self.topology.links):
                    raise ConfigError(f"{label}: unknown link {link_id}")
        self.audit = audit
        self.probe_count = probe_count(config.probes_per_interval, config.adaptive_scale,
                                       config.aggregate_rate)
        self.m = config.backups_m if config.backups_m is not None else config.candidates_k
        self.mode = config.conversion_mode
        # rftr routes by Dijkstra over load-aware costs, the baseline by the
        # memoised least-hop route over up links; bound to the topology, not
        # to self, so a Simulation holds no reference cycle
        router = (partial(establish_primary, lt=config.load_threshold)
                  if config.router == ROUTER_RFTR else establish_baseline)
        self._establish = partial(router, self.topology, mode=self.mode,
                                  conversion_time=config.conversion_time)
        if arrivals is None:  # the engine draws no arrival it cannot run
            arrivals = generate_arrivals(config, random.Random(config.seed), self.topology.num_nodes)
        else:
            arrivals = tuple(arrivals)
            self._check_arrivals(arrivals)
        self._arrivals = arrivals
        # ``last``: the later of the last scripted time and the last departure
        last = max([t + h for t, _, _, h in arrivals]
                   + [t for t, _ in config.failures + config.repairs], default=0)
        # (parameter, step, events it may schedule, their cap); a connection holding h opens at
        # most h / probe_interval + 1 windows, each sending probe_count down each candidate
        steps = [("sample_interval", config.sample_interval, last / config.sample_interval,
                  MAX_TICKS)]
        if config.router == ROUTER_RFTR:  # the baseline never probes
            windows = sum(h for *_, h in arrivals) / config.probe_interval + len(arrivals)
            steps.append(("probe_interval", config.probe_interval / (config.probes_per_interval + 1),
                          config.candidates_k * self.probe_count * windows, MAX_PROBE_SENDS))
        for name, step, events, cap in steps:
            if step <= math.ulp(last) / 2:  # then some instant up to ``last`` would stall the clock
                raise ConfigError(f"{name}: a {step:g} s step cannot move the clock at {last:g} s")
            if events > cap:
                raise ConfigError(f"{name}: a {step:g} s step asks for up to {events:.3g} events"
                                  f" by {last:g} s, over the {cap:g} a run may schedule")
        self.now = 0.0
        # live connections only: a blocked one never enters, and ``_end`` removes the rest
        self.connections: dict[int, Connection] = {}
        self.collector = metrics_mod.MetricsCollector(config)
        self._heap: list[tuple[float, int, str, tuple]] = []
        # the scripted events, latest first, so the next one is popped off the end
        self._script: list[tuple[float, int, str, tuple]] = []
        self._eseq = itertools.count()
        self._cid = itertools.count()
        self._initial_occupancy = None

    @property
    def arrivals(self) -> tuple:
        """The run's ``(time, src, dst, holding)`` demands; read-only, pinned only at construction."""
        return self._arrivals

    def _check_arrivals(self, arrivals: tuple) -> None:
        """Refuse, as a ``ConfigError``, a pinned arrival the run cannot carry out."""
        nodes, inf = range(self.topology.num_nodes), math.inf
        for i, entry in enumerate(arrivals):
            try:
                t, src, dst, holding = parts = tuple(entry)
                # by type first (1.0 is "in" a range), then by value; nan compares false
                ok = (all(map(isinstance, parts, (Real, int, int, Real))) and 0 <= t < inf
                      and 0 < holding < inf and src != dst and src in nodes and dst in nodes)
            except (TypeError, ValueError):  # not four fields
                ok = False
            if not ok:
                raise ConfigError(
                    f"arrival {i}: (time, src, dst, holding) = {entry} needs "
                    "a finite time >= 0, a finite holding > 0 and two distinct nodes")

    # -- scheduling ---------------------------------------------------------

    def schedule(self, time: float, kind: str, *args) -> None:
        heappush(self._heap, (time, next(self._eseq), kind, args))

    # -- run ----------------------------------------------------------------

    def run(self) -> metrics_mod.MetricsReport:
        if self._initial_occupancy is not None:
            raise SimError("a Simulation runs once; build a new one for another run")
        self._initial_occupancy = self.topology.occupancy_snapshot()
        # seqs as if scheduled in this order: arrivals, failures, repairs, first tick
        eseq, script = self._eseq, self._script
        script += [(t, next(eseq), ARRIVAL, (src, dst, holding))
                   for t, src, dst, holding in self._arrivals]
        script += [(t, next(eseq), kind, (link_id,))
                   for kind, events in ((LINK_FAILURE, self.config.failures),
                                        (LINK_REPAIR, self.config.repairs))
                   for t, link_id in events]
        script.sort(reverse=True)  # seqs are unique, so (time, seq) decides every comparison
        self.schedule(self.config.sample_interval, SAMPLE_TICK)

        heap, pop = self._heap, heappop
        handlers = self._HANDLERS
        while heap or script:
            # the script's next event goes first when it sorts before the heap's
            time, _, kind, args = (script.pop() if script and (not heap or script[-1] < heap[0])
                                   else pop(heap))
            if time > self.now:
                self.now = time
            elif time < self.now - 1e-12:
                raise InvariantError("event clock went backwards")
            handlers[kind](self, *args)

        if self.audit:
            self._check_occupancy()
        return self.collector.finalize()

    # -- handlers -----------------------------------------------------------

    def _on_arrival(self, src: int, dst: int, holding: float) -> None:
        conn_id = next(self._cid)
        self.collector.on_offered()
        result = self._establish(src, dst)
        if result.blocked:
            self.collector.on_blocked()
            return
        conn = Connection(
            id=conn_id, src=src, dst=dst, arrival=self.now, holding=holding,
            current=result.lightpath,
        )
        self.connections[conn.id] = conn
        self._check_continuity(result.lightpath)
        self.collector.on_accepted(conn, result.lightpath.path_delay, self.now)
        self.schedule(self.now + conn.holding, DEPARTURE, conn)
        if self.config.router == ROUTER_RFTR:  # the baseline never probes
            conn.prober = self._prober(conn)
            t = conn.prober.open_windows(self.now)
            if t is not None:
                for path_index in range(len(conn.prober.candidates)):
                    self.schedule(t, PROBE_SEND, conn, path_index)

    def _prober(self, conn: Connection) -> ConnectionProber:
        """The connection's prober, ending at its departure, over the candidates disjoint from
        its current primary.  rftr builds it at setup, even over no candidate; the baseline at
        a connection's first failure, opening no window, so it ranks in candidate order."""
        cands = candidate_paths(self.topology, conn.src, conn.dst, conn.current,
                                self.config.candidates_k)
        return ConnectionProber(cands, self.probe_count, self.config.probe_interval,
                                conn.arrival + conn.holding)

    def _on_probe_send(self, conn: Connection, path_index: int) -> None:
        if conn.current is None:
            return  # stale: the connection dropped before the probe went out
        prober = conn.prober
        outcome = probe_outcome(self.topology, prober.candidates[path_index], self.mode)
        t = prober.sent(path_index, outcome, self.now)
        if t is not None:
            self.schedule(t, PROBE_SEND, conn, path_index)

    def _end(self, conn: Connection) -> None:
        """Drop the connection from the live map and its lightpath; count its probes and answers."""
        del self.connections[conn.id]
        conn.current = None
        if conn.prober is not None:
            self.collector.on_probe_sent(len(conn.prober.landings))
            self.collector.on_probe_feedback(*conn.prober.landed(self.now))

    def _on_departure(self, conn: Connection) -> None:
        if conn.current is None:
            return  # stale: the connection dropped before its departure
        release_lightpath(conn.current)
        self._end(conn)
        self.collector.on_completed(conn, self.now)

    def _on_link_failure(self, link_id: int) -> None:
        link = self.topology.links[link_id]
        link.up = False
        # ids rise in acceptance order, which the dict keeps
        affected = [conn for conn in self.connections.values()
                    if link.id in conn.current.hops.link_ids]
        # release every broken lightpath first so peers can reuse the capacity
        for conn in affected:
            release_lightpath(conn.current)
        for conn in affected:
            if conn.prober is None:  # a baseline connection on its original primary
                conn.prober = self._prober(conn)
            new_lp = reroute(self.topology, conn.prober.ranking(self.now)[: self.m], self.mode,
                             self.config.conversion_time,
                             fallback_establish=lambda _, c=conn: self._establish(c.src, c.dst))
            if new_lp is None:
                self._end(conn)
                self.collector.on_dropped(conn, self.now)
            else:
                conn.current = new_lp
                self._check_continuity(new_lp)
                self.collector.on_restored(conn, new_lp.path_delay, self.now)
        if self.audit:
            self._check_failure_safety()
            self._check_occupancy()

    def _on_link_repair(self, link_id: int) -> None:
        self.topology.links[link_id].up = True

    def _on_sample_tick(self) -> None:
        self.collector.on_sample(self.topology, self.now)
        # a send is queued only before its connection's departure, which stays queued
        # through a drop, so a pending send means a pending lifecycle event
        if self._heap or self._script:
            self.schedule(self.now + self.config.sample_interval, SAMPLE_TICK)

    # unbound, so a Simulation holds no reference cycle and is freed on last use
    _HANDLERS = {
        ARRIVAL: _on_arrival,
        DEPARTURE: _on_departure,
        PROBE_SEND: _on_probe_send,
        LINK_FAILURE: _on_link_failure,
        LINK_REPAIR: _on_link_repair,
        SAMPLE_TICK: _on_sample_tick,
    }

    # -- invariant checks: explicit raises, so they hold under ``python -O`` --

    def _check_continuity(self, lp: Lightpath) -> None:
        if self.mode == NO_CONVERSION and len(set(lp.wavelengths)) > 1:
            raise InvariantError("wavelength continuity violated")

    def _check_failure_safety(self) -> None:
        arcs = self.topology.arcs
        for conn in self.connections.values():
            if not all(arcs[arc][0].up for arc in conn.current.hops):
                raise InvariantError(f"connection {conn.id} rides a down link")

    def _check_occupancy(self) -> None:
        """The masks must equal the pre-run masks minus every live lightpath's channels."""
        # indexed by link id, which Topology checks runs 0..n-1 in list order
        expected, arcs = list(map(list, self._initial_occupancy)), self.topology.arcs
        for conn in self.connections.values():
            lp = conn.current
            for (link, lane), w in zip(map(arcs.__getitem__, lp.hops), lp.wavelengths):
                masks = expected[link.id]
                if not masks[lane] >> w & 1:
                    raise InvariantError(f"link {link.id} lane {lane} wavelength {w} held twice")
                masks[lane] &= ~(1 << w)
        if tuple(map(tuple, expected)) != self.topology.occupancy_snapshot():
            raise InvariantError(
                "channel leak: occupancy differs from the pre-run state minus the live lightpaths"
            )


def run(
    config: SimConfig, topology: Topology | None = None, audit: bool = False
) -> metrics_mod.MetricsReport:
    """Execute one simulation run to completion and return its report."""
    return Simulation(config, topology=topology, audit=audit).run()
