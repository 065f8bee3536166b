"""Deterministic discrete-event simulator for wavelength-routed WDM meshes.

The package models lightpath provisioning under the wavelength-continuity
constraint, threshold-shaped link costs for primary route selection,
probe-based blocking estimation over link-disjoint backup candidates, and
link-failure restoration, with a shortest-hop baseline for comparison.

The names below are the user API; the building blocks live in the
submodules (``wdmsim.topology``, ``wdmsim.routing``, ``wdmsim.probing``,
``wdmsim.engine``, ``wdmsim.metrics``, ``wdmsim.cli``).
"""

from .config import Scenario, parse_config, validate_scenario
from .engine import SimConfig, Simulation, build_topology, run
from .errors import (
    ChannelBusyError,
    ChannelFreeError,
    ConfigError,
    InvariantError,
    LinkDownError,
    SimError,
    TopologyError,
    TopologyParseError,
)
from .metrics import MetricsReport

__version__ = "0.1.0"

__all__ = [
    "ChannelBusyError",
    "ChannelFreeError",
    "ConfigError",
    "InvariantError",
    "LinkDownError",
    "MetricsReport",
    "Scenario",
    "SimConfig",
    "SimError",
    "Simulation",
    "TopologyError",
    "TopologyParseError",
    "build_topology",
    "parse_config",
    "run",
    "validate_scenario",
]
