"""Scenario files: ``key = value`` lines with ``#`` comments.

Unset keys fall back to the stock parameter set (8 wavelengths, 10 ms link
delay, 0.024 s conversion time, 0.5 s sample interval, 0.5 calls/s arrival
rate, 0.2 s holding time, 200-byte packets, 4 session traffics, 50 max
requests); unknown keys are rejected outright so typos cannot silently run
a different experiment.  ``parse_config`` only parses; ``run_scenario`` refuses a value out
of range before the first run, and ``validate_scenario`` constructs each run's ``Simulation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

from .engine import ROUTER_BASELINE, ROUTER_RFTR, SimConfig, Simulation, build_topology
from .errors import ConfigError, TopologyError
from .routing import min_hop_path

SWEEP_NONE = "none"
SWEEP_RATE = "rate"
SWEEP_SOURCES = "sources"

ROUTER_BOTH = "both"

ROUTERS = (ROUTER_RFTR, ROUTER_BASELINE, ROUTER_BOTH)

# SimConfig's fields are the schema: config key -> field name, field -> type
_FIELD_OF_KEY = {
    ("topology" if f.name == "topology_file" else f.name): f.name for f in fields(SimConfig)
}
_FIELD_TYPES = get_type_hints(SimConfig)
KNOWN_KEYS = set(_FIELD_OF_KEY) | {"name", "seeds", "sweep"}


@dataclass
class Scenario:
    name: str = "scenario"
    base: SimConfig = field(default_factory=SimConfig)
    router: str = ROUTER_RFTR  # rftr | baseline | both
    sweep_param: str = SWEEP_NONE
    sweep_values: list[float] = field(default_factory=list)
    seeds: list[int] = field(default_factory=lambda: [0])

    def routers(self) -> list[str]:
        if self.router == ROUTER_BOTH:
            return [ROUTER_RFTR, ROUTER_BASELINE]
        return [self.router]

    def runs(self) -> list[tuple[str, float | None, int]]:
        """Each run's (router, sweep value, seed), in run order; refuses a scenario with no seed."""
        if not self.seeds:
            raise ConfigError("a scenario needs at least one seed")
        values = self.sweep_values if self.sweep_param != SWEEP_NONE else [None]
        return [(router, value, seed)
                for router in self.routers() for value in values for seed in self.seeds]

    def config_for(self, router: str, sweep_value: float | None, seed: int) -> SimConfig:
        cfg = replace(self.base, router=router, seed=seed)
        if self.sweep_param == SWEEP_RATE and sweep_value is not None:
            cfg = replace(cfg, data_rate_mbps=float(sweep_value))
        elif self.sweep_param == SWEEP_SOURCES and sweep_value is not None:
            cfg = replace(cfg, session_traffics=int(sweep_value))
        return cfg

    def run_label(self, router: str, sweep_value: float | None, seed: int | None = None) -> str:
        parts = [self.name, router]
        if self.sweep_param != SWEEP_NONE and sweep_value is not None:
            parts.append(f"{self.sweep_param}{sweep_value:g}")
        if seed is not None:
            parts.append(f"seed{seed}")
        return "-".join(parts)


def _parse_number_list(value: str, key: str, cast):
    items = [p for chunk in value.split(",") for p in chunk.split()] if value else []
    if not items:
        raise ConfigError(f"{key}: empty value list")
    try:
        return [cast(p) for p in items]
    except ValueError:
        raise ConfigError(f"{key}: bad number in {value!r}") from None


def unique_seeds(seeds: list[int], key: str) -> list[int]:
    """Return ``seeds``, refusing a repeat, which would reuse a run label and its files."""
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{key}: duplicate seed in {seeds}")
    return seeds


def _parse_schedule(value: str, key: str) -> list[tuple[float, int]]:
    """``time:link`` pairs, comma separated, e.g. ``failures = 5.0:3, 7.5:0``."""
    entries = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            time_s, link_s = part.split(":")
            entries.append((float(time_s), int(link_s)))
        except ValueError:
            raise ConfigError(f"{key}: expected time:link, got {part!r}") from None
    return entries


def _field_value(key: str, value: str, hint):
    """``value`` cast to the field type ``hint``; ``X | None`` reads as ``X``."""
    if isinstance(hint, UnionType):
        hint = next(arg for arg in get_args(hint) if arg is not NoneType)
    if get_origin(hint) is list:
        return _parse_schedule(value, key)
    try:
        return hint(value)
    except ValueError:
        noun = "integer" if hint is int else "number"
        raise ConfigError(f"{key}: expected {noun}, got {value!r}") from None


def parse_config(text: str) -> Scenario:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        values[key] = value

    base_kwargs = {}
    for key, value in values.items():
        name = _FIELD_OF_KEY.get(key)
        if name is not None and key != "router":  # a router may be "both", a scenario value
            base_kwargs[name] = _field_value(key, value, _FIELD_TYPES[name])
    router = ROUTER_RFTR
    if "router" in values:
        router = values["router"].strip().lower()
        if router not in ROUTERS:
            raise ConfigError(f"router: unknown value {values['router']!r}")
    base = SimConfig(**base_kwargs)
    if router != ROUTER_BOTH:
        base = replace(base, router=router)

    scenario = Scenario(name=values.get("name", "scenario"), base=base, router=router)
    if "seeds" in values:
        if "seed" in values:
            raise ConfigError("seed and seeds: give one or the other")
        scenario.seeds = unique_seeds(_parse_number_list(values["seeds"], "seeds", int), "seeds")
    elif "seed" in values:
        scenario.seeds = [base.seed]

    if "sweep" in values:
        parts = values["sweep"].split(None, 1) or [""]  # an empty value names nothing
        if parts[0] == SWEEP_NONE and len(parts) == 1:
            pass
        elif parts[0] in (SWEEP_RATE, SWEEP_SOURCES):
            if len(parts) != 2:
                raise ConfigError("sweep: missing value list")
            sweep_values = _parse_number_list(parts[1], "sweep", float)
            if any(b <= a for a, b in zip(sweep_values, sweep_values[1:])):
                raise ConfigError("sweep: values must be strictly increasing")
            if parts[0] == SWEEP_SOURCES and not all(v.is_integer() for v in sweep_values):
                raise ConfigError("sweep: sources values must be integers")
            scenario.sweep_param = parts[0]
            scenario.sweep_values = sweep_values
            labels = {}
            for value in sweep_values:
                first = labels.setdefault(scenario.run_label(base.router, value), value)
                if first != value:  # both runs would write the same files
                    raise ConfigError(f"sweep: values {first!r} and {value!r} share a run label")
        else:
            raise ConfigError(f"sweep: unknown parameter {parts[0]!r}")
    return scenario


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str


def validate_scenario(scenario: Scenario) -> list[Diagnostic]:
    """The topology's refusal, else a warning if it is disconnected and any run's refusal.

    Each run's ``Simulation`` is constructed, never run, on one topology built as each run
    builds its own, so ``validate`` refuses what ``run`` refuses before its first event.
    Connectivity is routing's least-hop search from node 0, which reads no link state.
    """
    try:
        topology = build_topology(scenario.base)
    except TopologyError as err:
        return [Diagnostic("error", f"topology: {err}")]
    diagnostics = []
    if any(min_hop_path(topology, 0, v) is None for v in range(1, topology.num_nodes)):
        diagnostics = [Diagnostic("warning", "topology is disconnected; most demands will block")]
    try:
        for key in scenario.runs():
            Simulation(scenario.config_for(*key), topology=topology)
    except ConfigError as err:
        diagnostics.append(Diagnostic("error", str(err)))
    return diagnostics
