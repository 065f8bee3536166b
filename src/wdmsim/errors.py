"""Exception types raised across the simulator."""


class SimError(Exception):
    """Base class for all simulator errors."""


class TopologyError(SimError):
    """A topology invariant was violated; ``link_id`` names a link ``Topology`` refused."""

    def __init__(self, message, link_id=None):
        super().__init__(message)
        self.link_id = link_id


class TopologyParseError(TopologyError):
    """Malformed topology document; carries the offending line number."""

    def __init__(self, message, line_no):
        super().__init__(message)
        self.line_no, self.args = line_no, (message, line_no)  # args: what unpickling passes back

    def __str__(self):
        return f"line {self.line_no}: {self.args[0]}"


class NoSuchNodeError(SimError):
    """A route endpoint does not exist in the topology."""


class LinkDownError(SimError):
    """``Link.occupy`` was asked for a channel of a down link."""


class ChannelBusyError(SimError):
    """Attempt to occupy a wavelength channel that is already busy."""


class ChannelFreeError(SimError):
    """Attempt to release a wavelength channel that is already free."""


class ConfigError(SimError):
    """Scenario configuration is malformed or out of range."""


class InvariantError(SimError):
    """A simulator invariant broke mid-run: a defect in the engine, never a bad input."""
