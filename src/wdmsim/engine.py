"""Deterministic discrete-event core: traffic, lifecycle, failures, orchestration.

Every run is driven by a single seeded RNG consumed only while pre-generating
the arrival sequence, so identical (config, seed) pairs replay bit-identically.
Events dequeue in (time, insertion seq) order, which makes simultaneous events
deterministic too; a ``schedule`` call at the time of the one just before joins its
queued entry, run in call order, as no event can sort between two consecutive calls.
An event carries one payload, and every per-event call is positional with a fixed arity:
an arrival carries its (src, dst, holding), a departure its connection, a probe send its
(connection, candidate index), a failure or repair its link id and a tick None.

Only events that carry a decision exist: the lifecycle (arrival, departure,
link failure, link repair), one pending probe send per candidate and the
sample ticks.  The scripted events (arrivals, failures, repairs) are fixed
before the first one runs, so they wait in a list sorted by (time, seq), with
the seqs scheduling them would give; the heap holds only what the run
schedules: departures, probe sends and ticks.  The engine schedules the sends
each ``ConnectionProber`` names; the prober owns the window rule, so no send
falls at or after the departure and no event closes a window or delivers an
answer.  A connection's candidates share slot instants, so one slot's sends share
one entry.  A connection ends one way, by departure or drop: it leaves the live
map, its ``current`` becomes None and its probes and the answers landed by then
are counted, so an event queued for it is stale once ``current`` is None.
Sample ticks run while any event is pending, scheduled or scripted (no call joins a
tick's entry), so the timeseries ends at the same tick whatever the router.  A run reads its
conversion mode and binds its router once; a fresh setup, restoration
included, goes through it.  Every connection's backups are its prober's
ranking, and ``m`` is applied where restoration tries them.  Every refusal a run
can meet before its first event, of its config, topology, pinned arrivals or a
tick or probe step too small for it to end, is made by ``Simulation``'s constructor.
Under ``audit``, one pass after every link failure and at the end of the run checks each live
lightpath (one wavelength per hop, up links) and the masks against the pre-run masks minus them.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field, fields
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
_NO_TAIL = (math.nan,)  # a tail no call joins: nan equals no time

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
        """Refuse, as a ``ConfigError``, a value no run takes; ``Link`` owns the channel count
        and delay rules, and ``Simulation``'s constructor the failure and repair schedules."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
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
        if self.candidates_k < 1:
            raise ConfigError("candidates_k must be >= 1")
        if self.backups_m is not None and self.backups_m < 0:
            raise ConfigError(f"backups_m must be >= 0, got {self.backups_m}")
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

    An event is an entry ``(time, seq, kind, payload)``; dispatch calls ``kind``'s handler as
    ``handler(self, payload)``, then those of the calls that joined the entry, kept as
    ``(kind, payload)`` under its seq in ``_joined``.  ``schedule`` pushes a run's decisions onto
    the heap; the scripted events merge with it by (time, seq), a total order, so they dispatch
    as if one heap held both.  A departure carries its ``Connection``, and a probe send its
    ``(Connection, candidate index)``; ``current`` is None once the connection ended.
    Construction makes every refusal; ``arrivals`` pins the demands, else they are drawn.
    """

    def __init__(self, config: SimConfig, topology: Topology | None = None, audit: bool = False,
                 arrivals=None):
        config.validate()
        self.config = config
        self.topology = topology if topology is not None else build_topology(config)
        if self.topology.num_nodes < 2:
            raise ConfigError("need at least two nodes to generate traffic")
        num_links = len(self.topology.links)
        for label, schedule in (("failures", config.failures), ("repairs", config.repairs)):
            for entry in schedule:
                # by type first, as for arrivals: a float id passes the range test.  Every run
                # of a sweep checks every entry, so float is tried before the dearer Real ABC
                try:
                    t, link_id = entry
                    typed = isinstance(t, (float, Real)) and isinstance(link_id, int)
                except (TypeError, ValueError):  # not two fields
                    typed = False
                if not typed:
                    raise ConfigError(f"{label}: (time, link) = {entry!r} needs a real time "
                                      "and an int link id")
                if not 0 <= t < math.inf:  # nan compares false
                    raise ConfigError(f"{label}: time must be finite and >= 0, got {t}")
                if not 0 <= link_id < num_links:
                    raise ConfigError(f"{label}: unknown link {link_id}")
        self.audit = audit
        self.probe_count = probe_count(config.probes_per_interval, config.adaptive_scale,
                                       config.aggregate_rate)
        self.m = config.backups_m if config.backups_m is not None else config.candidates_k
        self.mode = config.conversion_mode
        # rftr routes by Dijkstra over load-aware costs, the baseline by the least-hop
        # route over up links, from the graph's route table; a closure over the topology,
        # not self, so a Simulation holds no reference cycle
        topology, mode = self.topology, self.mode
        lt, ct = config.load_threshold, config.conversion_time
        self._probes = config.router == ROUTER_RFTR  # the baseline never probes
        if self._probes:
            self._establish = lambda src, dst: establish_primary(topology, src, dst, lt, mode, ct)
        else:
            self._establish = lambda src, dst: establish_baseline(topology, src, dst, mode, ct)
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
        self._heap: list[tuple[float, int, str, object]] = []
        # the scripted events, latest first, so the next one is popped off the end
        self._script: list[tuple[float, int, str, object]] = []
        self._eseq, self._tail = itertools.count(), _NO_TAIL  # tail: the last call's entry
        self._joined = defaultdict(list)  # by an entry's seq, the later calls that joined it
        self._cid = itertools.count()
        self._initial_free = None  # the pre-run masks by arc, taken once by ``run``

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

    def schedule(self, time: float, kind: str, payload=None) -> None:
        tail = self._tail
        if time == tail[0] and time > self.now:  # the last call's entry, still queued: join it
            self._joined[tail[1]].append((kind, payload))
        else:
            self._tail = tail = (time, next(self._eseq), kind, payload)
            heappush(self._heap, tail)

    # -- run ----------------------------------------------------------------

    def run(self) -> metrics_mod.MetricsReport:
        if self._initial_free is not None:
            raise SimError("a Simulation runs once; build a new one for another run")
        # the masks by arc, in arc order: link-major, forward lane first
        self._initial_free = [free for link in self.topology.links for free in link._free]
        # seqs as if scheduled in this order: arrivals, failures, repairs, first tick
        eseq, script = self._eseq, self._script
        script += [(t, next(eseq), ARRIVAL, (src, dst, holding))
                   for t, src, dst, holding in self._arrivals]
        script += [(t, next(eseq), kind, link_id)
                   for kind, events in ((LINK_FAILURE, self.config.failures),
                                        (LINK_REPAIR, self.config.repairs))
                   for t, link_id in events]
        script.sort(reverse=True)  # seqs are unique, so (time, seq) decides every comparison
        self._schedule_tick(self.config.sample_interval)

        heap, pop, handlers, joined = self._heap, heappop, self._HANDLERS, self._joined
        now = self.now  # the clock, kept here too: no handler sets it
        while heap or script:
            # the script's next event goes first when it sorts before the heap's
            time, seq, kind, payload = (script.pop()
                                        if script and (not heap or script[-1] < heap[0])
                                        else pop(heap))
            if time > now:
                self.now = now = time
            elif time < now - 1e-12:
                raise InvariantError("event clock went backwards")
            handlers[kind](self, payload)
            if joined and seq in joined:  # then the calls that joined its entry, in call order
                for kind, payload in joined.pop(seq):
                    handlers[kind](self, payload)

        if self.audit:
            self._audit()
        return self.collector.finalize()

    # -- handlers -----------------------------------------------------------

    def _on_arrival(self, demand: tuple[int, int, float]) -> None:
        src, dst, holding = demand
        conn_id, collector, now = next(self._cid), self.collector, self.now
        collector.on_offered()
        lp = self._establish(src, dst).lightpath
        if lp is None:
            collector.on_blocked()
            return
        self.connections[conn_id] = conn = Connection(conn_id, src, dst, now, holding, lp)
        self._check_continuity(lp)
        collector.on_accepted(conn, lp.path_delay, now)
        self.schedule(now + holding, DEPARTURE, conn)
        if self._probes:
            conn.prober = self._prober(conn)
            t = conn.prober.open_windows(now)
            if t is not None:
                for path_index in range(len(conn.prober.candidates)):
                    self.schedule(t, PROBE_SEND, (conn, path_index))

    def _prober(self, conn: Connection) -> ConnectionProber:
        """The connection's prober, ending at its departure, over the candidates disjoint from
        its current primary.  rftr builds it at setup, even over no candidate; the baseline at
        a connection's first failure, opening no window, so it ranks in candidate order."""
        cands = candidate_paths(self.topology, conn.src, conn.dst, conn.current,
                                self.config.candidates_k)
        return ConnectionProber(cands, self.probe_count, self.config.probe_interval,
                                conn.arrival + conn.holding)

    def _on_probe_send(self, send: tuple[Connection, int]) -> None:
        conn, path_index = send
        if conn.current is None:
            return  # stale: the connection dropped before the probe went out
        prober = conn.prober
        outcome = probe_outcome(self.topology, prober.candidates[path_index], self.mode)
        t = prober.sent(path_index, outcome, self.now)
        if t is not None:
            self.schedule(t, PROBE_SEND, send)  # the same payload: no tuple per probe

    def _end(self, conn: Connection) -> None:
        """Drop the connection from the live map and its lightpath; count its probes and answers."""
        del self.connections[conn.id]
        conn.current = None
        if conn.prober is not None:
            self.collector.on_probe_sent(len(conn.prober.landings))
            packs, nacks = conn.prober.landed(self.now)
            self.collector.on_probe_feedback(packs, nacks)

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
            self._audit()

    def _on_link_repair(self, link_id: int) -> None:
        self.topology.links[link_id].up = True

    def _on_sample_tick(self, _: None) -> None:
        self.collector.on_sample(self.topology, self.now)
        # a send is queued only before its connection's departure, which stays queued
        # through a drop, so a pending send means a pending lifecycle event
        if self._heap or self._script:
            self._schedule_tick(self.now + self.config.sample_interval)

    def _schedule_tick(self, time: float) -> None:
        self.schedule(time, SAMPLE_TICK)
        self._tail = _NO_TAIL  # no later call joins a tick's entry, so the tick runs last in it

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
        wavelengths = lp.wavelengths  # one at least: a route has a hop
        if self.mode == NO_CONVERSION and wavelengths.count(wavelengths[0]) != len(wavelengths):
            raise InvariantError("wavelength continuity violated")

    def _audit(self) -> None:
        """One pass over the live lightpaths: each holds one wavelength per hop, on up links,
        and the masks equal the pre-run masks minus their channels.  It keeps no state."""
        expected, arcs, links = self._initial_free.copy(), self.topology.arcs, self.topology.links
        for conn in self.connections.values():
            hops, wavelengths = conn.current.hops, conn.current.wavelengths
            if len(wavelengths) != len(hops):
                raise InvariantError(f"connection {conn.id} holds {len(wavelengths)} wavelengths"
                                     f" on {len(hops)} hops")
            for arc, w in zip(hops, wavelengths):
                link, lane = arcs[arc]
                if not link.up:
                    raise InvariantError(f"connection {conn.id} rides a down link")
                if not expected[arc] >> w & 1:
                    raise InvariantError(f"link {link.id} lane {lane} wavelength {w} held twice")
                expected[arc] &= ~(1 << w)
        if expected != [free for link in links for free in link._free]:  # in arc order
            raise InvariantError("channel leak: occupancy differs from the pre-run state minus"
                                 " the live lightpaths")


def run(
    config: SimConfig, topology: Topology | None = None, audit: bool = False
) -> metrics_mod.MetricsReport:
    """Execute one simulation run to completion and return its report."""
    return Simulation(config, topology=topology, audit=audit).run()
