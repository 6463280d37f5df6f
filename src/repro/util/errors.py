"""Exception hierarchy for the FlowDNS reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single except clause while still
being able to distinguish configuration problems from wire-format problems.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class ParseError(ReproError):
    """A wire-format payload (DNS message, Netflow datagram) is malformed."""
