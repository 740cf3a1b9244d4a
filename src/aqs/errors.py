"""Exception types raised by the simulator and protocol layers."""


class AqsError(Exception):
    """Base class for all errors raised by this package.

    Raised directly when a call comes in a state that does not allow it: a
    phase run before the one it needs (signing before angle registration,
    verification before setup, arbitration with no stored proof), a signer
    index other than 1 at angle registration, a key delivered twice, or a
    message register the wiring never supplied."""


class ConfigError(AqsError, ValueError):
    """A value the caller passed is out of range or inconsistent.

    Also a ``ValueError``; a plain ``ValueError`` from the package is a bug."""
