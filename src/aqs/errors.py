"""Exception types raised by the simulator and protocol layers."""


class AqsError(Exception):
    """Base class for all errors raised by this package."""


# -- state construction and gate application ---------------------------------

class EmptyMessageError(AqsError):
    """A message of zero qubits was supplied."""


class NonNormalizedQubitError(AqsError):
    """A qubit amplitude pair violates |alpha|^2 + |beta|^2 = 1."""


class QubitOutOfRangeError(AqsError):
    """A qubit index is outside [0, num_qubits)."""


class ControlEqualsTargetError(AqsError):
    """Control and target of a two-qubit gate coincide."""


class DimensionMismatchError(AqsError):
    """Two states (or distributions) have different qubit counts."""


class ZeroShotsError(AqsError):
    """A sampling request asked for fewer than one shot."""


class NotUnitaryError(AqsError):
    """A matrix failed the unitarity check."""


# -- classical key material ---------------------------------------------------

class LengthMismatchError(AqsError):
    """Bit strings or vectors of incompatible lengths were combined."""


class DuplicateDeliveryError(AqsError):
    """A key was delivered twice for the same (sender, receiver, purpose), or
    a lookup by (receiver, purpose) matches deliveries from several senders."""


class UnknownPartyError(AqsError):
    """A party id is not registered in the current run."""


# -- protocol state machine ----------------------------------------------------

class MissingLambdaError(AqsError):
    """Signing was attempted before the signer registered its phase angles."""


class UnknownSignerError(AqsError):
    """The verifier forwarded a package for a signer the KGC does not know."""


class NoProofStoredError(AqsError):
    """Arbitration was requested but no accepted signature proof exists."""


class ContextMismatchError(AqsError):
    """An encryption context was used with the wrong scheme."""


class InvalidChannelError(AqsError):
    """A tamper specification names a channel that does not exist."""


class ConfigError(AqsError, ValueError):
    """An input from outside the program is out of range or inconsistent.

    Also a ``ValueError``; a plain ``ValueError`` from the package is a bug."""
