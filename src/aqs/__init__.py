"""Arbitrated quantum signature protocol simulator.

Exact statevector simulation of a chained controlled-unitary signature
scheme with per-qubit phase signing, hash-chained verification through a
trusted arbiter, two baseline ciphers (qubit-wise one-time pad and chained
CNOT), and a seeded attack harness.
"""

from .cipher import EncryptionContext, EulerMode, Scheme
from .errors import AqsError
from .kernels import active_backend
from .keys import derive_permutation, sample_lambda, tag_of_bits, xor_bits
from .protocol import (
    MessageSpec,
    ProtocolResult,
    ProtocolSession,
    RunConfig,
    TamperSpec,
    VerificationOutcome,
    Wiring,
    encode_classical_message,
    run_protocol,
)
from .qstate import (
    ShotHistogram,
    StateVector,
    basis_state,
    init_product_state,
)

__version__ = "0.1.0"

__all__ = [
    "AqsError",
    "EncryptionContext",
    "EulerMode",
    "MessageSpec",
    "ProtocolResult",
    "ProtocolSession",
    "RunConfig",
    "Scheme",
    "ShotHistogram",
    "StateVector",
    "TamperSpec",
    "VerificationOutcome",
    "Wiring",
    "active_backend",
    "basis_state",
    "derive_permutation",
    "encode_classical_message",
    "init_product_state",
    "run_protocol",
    "sample_lambda",
    "tag_of_bits",
    "xor_bits",
    "__version__",
]
