"""Deterministic discrete-event simulator for wavelength-routed WDM meshes.

The package models lightpath provisioning under the wavelength-continuity
constraint, threshold-shaped link costs for primary route selection,
probe-based blocking estimation over link-disjoint backup candidates, and
link-failure restoration, with a shortest-hop baseline for comparison.
"""

from .config import Scenario, parse_config, validate_scenario
from .engine import (
    ROUTER_BASELINE,
    ROUTER_RFTR,
    Connection,
    SimConfig,
    Simulation,
    build_topology,
    generate_arrivals,
    random_failure_schedule,
    run,
)
from .errors import (
    ChannelBusyError,
    ChannelFreeError,
    ConfigError,
    LinkDownError,
    NoSuchNodeError,
    SimError,
    TopologyError,
    TopologyParseError,
)
from .metrics import MetricsCollector, MetricsReport, export_csv
from .probing import (
    BlockingEstimate,
    CandidateSet,
    ConnectionProber,
    ProbePolicy,
    ProbeWindow,
    blocking_probability,
    candidate_paths,
    k_shortest_hop_paths,
    probe_outcome,
    rank_and_select,
    reroute,
)
from .routing import (
    Lightpath,
    RouteResult,
    assign_wavelength,
    establish_baseline,
    establish_lightpath,
    establish_primary,
    least_cost_path,
    link_cost,
    release_lightpath,
)
from .topology import (
    FORWARD,
    REVERSE,
    Link,
    Topology,
    default_topology,
    parse_topology,
    read_topology,
)

__version__ = "0.1.0"

__all__ = [
    "BlockingEstimate",
    "CandidateSet",
    "ChannelBusyError",
    "ChannelFreeError",
    "ConfigError",
    "Connection",
    "ConnectionProber",
    "FORWARD",
    "Lightpath",
    "Link",
    "LinkDownError",
    "MetricsCollector",
    "MetricsReport",
    "NoSuchNodeError",
    "ProbePolicy",
    "ProbeWindow",
    "REVERSE",
    "ROUTER_BASELINE",
    "ROUTER_RFTR",
    "RouteResult",
    "Scenario",
    "SimConfig",
    "SimError",
    "Simulation",
    "Topology",
    "TopologyError",
    "TopologyParseError",
    "assign_wavelength",
    "blocking_probability",
    "build_topology",
    "candidate_paths",
    "default_topology",
    "establish_baseline",
    "establish_lightpath",
    "establish_primary",
    "export_csv",
    "generate_arrivals",
    "k_shortest_hop_paths",
    "least_cost_path",
    "link_cost",
    "parse_config",
    "parse_topology",
    "probe_outcome",
    "random_failure_schedule",
    "rank_and_select",
    "read_topology",
    "release_lightpath",
    "reroute",
    "run",
    "validate_scenario",
]
