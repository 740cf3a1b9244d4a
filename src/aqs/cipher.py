"""Quantum encryption layers and signature construction.

Each scheme compiles to an op list of ``(name, qubits, 2x2 matrix)`` entries
(see :data:`aqs.qstate.Op`) that :func:`aqs.qstate.apply_ops` runs in one
pass:

* ``cu``   -- chained controlled rotations: for each qubit j in ascending
  order, ``("cu", (j, perm[j]), U(theta_j, phi_j, lambda_j))`` with control
  j and target perm[j] (skipped when perm[j] == j). Signing adds the local
  layer ``("u", (j,), U(theta_j, phi_j, lambda_j))`` on every qubit on top
  of the encryption.
* ``cnot`` -- the same chaining with ``("cnot", (j, perm[j]), X)``; no phase
  layer.
* ``qotp`` -- per-qubit Pauli one-time pad ``("z", (j,), Z)`` then
  ``("x", (j,), X)`` from a 2n-bit key; no phase layer.

``diagonal`` Euler mode pins theta = phi = 0 so every rotation is
diag(1, e^{i lambda}); ``general`` mode uses full three-angle rotations.

Decryption and message recovery run :func:`inverse_ops` of the forward
list: the same entries in reversed order, each matrix replaced by its
adjoint and ``cu``/``u`` renamed ``cu_adjoint``/``u_adjoint`` (the other
names stay, as those gates are their own inverses). :func:`run` runs any
such list on a state of the context's size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import gates, qstate
from .errors import ConfigError
from .qstate import Op, StateVector


class Scheme(str, Enum):
    CHAINED_CU = "cu"
    CHAINED_CNOT = "cnot"
    QOTP = "qotp"


class EulerMode(str, Enum):
    DIAGONAL = "diagonal"
    GENERAL = "general"


def _check_perm(perm: tuple[int, ...], n: int) -> tuple[int, ...]:
    if sorted(perm) != list(range(n)):
        raise ConfigError(f"{perm!r} is not a permutation of 0..{n - 1}")
    return tuple(perm)


def _check_angles(angles: tuple[float, ...], n: int, name: str) -> tuple[float, ...]:
    if len(angles) != n:
        raise ConfigError(
            f"{name} must have {n} entries, got {len(angles)}"
        )
    angles = tuple(float(a) for a in angles)
    if not all(map(math.isfinite, angles)):
        raise ConfigError(f"{name} must be finite, got {angles}")
    return angles


@dataclass(frozen=True)
class EncryptionContext:
    """Everything a party needs to run one scheme on an n-qubit register."""

    scheme: Scheme
    n: int
    perm: tuple[int, ...] | None = None
    lambdas: tuple[float, ...] | None = None
    thetas: tuple[float, ...] | None = None
    phis: tuple[float, ...] | None = None
    qotp_key: str | None = None
    euler_mode: EulerMode = EulerMode.DIAGONAL

    def __post_init__(self) -> None:
        scheme = Scheme(self.scheme)
        mode = EulerMode(self.euler_mode)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "euler_mode", mode)
        if self.n < 1:
            raise ConfigError(f"n must be positive, got {self.n}")
        if scheme in (Scheme.CHAINED_CU, Scheme.CHAINED_CNOT):
            if self.perm is None:
                raise ConfigError(f"scheme {scheme.value} needs a permutation")
            object.__setattr__(self, "perm", _check_perm(tuple(self.perm), self.n))
        if scheme is Scheme.CHAINED_CU:
            if self.lambdas is None:
                raise ConfigError("scheme cu needs lambda angles")
            object.__setattr__(
                self, "lambdas", _check_angles(tuple(self.lambdas), self.n, "lambdas")
            )
            if mode is EulerMode.DIAGONAL:
                # The zeros this mode stores are accepted back, so that
                # dataclasses.replace works on a diagonal context.
                zeros = (0.0,) * self.n
                for angles in (self.thetas, self.phis):
                    if angles is not None and tuple(angles) != zeros:
                        raise ConfigError("diagonal mode fixes theta = phi = 0")
                object.__setattr__(self, "thetas", zeros)
                object.__setattr__(self, "phis", zeros)
            else:
                if self.thetas is None or self.phis is None:
                    raise ConfigError("general mode needs theta and phi angles")
                object.__setattr__(
                    self, "thetas", _check_angles(tuple(self.thetas), self.n, "thetas")
                )
                object.__setattr__(
                    self, "phis", _check_angles(tuple(self.phis), self.n, "phis")
                )
        if scheme is Scheme.QOTP:
            key = self.qotp_key
            if key is None or len(key) != 2 * self.n or set(key) - {"0", "1"}:
                raise ConfigError(
                    f"scheme qotp needs a {2 * self.n}-bit pad key"
                )

    def rotation(self, j: int) -> np.ndarray:
        """The scheme's single-qubit rotation for slot j (cu scheme only)."""
        if self.scheme is not Scheme.CHAINED_CU:
            raise ConfigError(f"scheme {self.scheme.value} has no rotation angles")
        return gates.u_gate(self.thetas[j], self.phis[j], self.lambdas[j])


# -- op lists -----------------------------------------------------------------------

def encryption_ops(ctx: EncryptionContext) -> list[Op]:
    """The scheme's encryption circuit, in application order."""
    if ctx.scheme is Scheme.QOTP:
        z = gates.pauli_z()
        x = gates.pauli_x()
        ops: list[Op] = []
        for j in range(ctx.n):
            if ctx.qotp_key[2 * j] == "1":
                ops.append(("z", (j,), z))
            if ctx.qotp_key[2 * j + 1] == "1":
                ops.append(("x", (j,), x))
        return ops
    if ctx.scheme is Scheme.CHAINED_CNOT:
        x = gates.pauli_x()
        return [("cnot", (j, t), x) for j, t in enumerate(ctx.perm) if t != j]
    return [
        ("cu", (j, t), ctx.rotation(j)) for j, t in enumerate(ctx.perm) if t != j
    ]


def signing_ops(ctx: EncryptionContext) -> list[Op]:
    """The cu scheme's local signing layer U(theta_j, phi_j, lambda_j)."""
    if ctx.scheme is not Scheme.CHAINED_CU:
        raise ConfigError("the signing layer is defined for the cu scheme only")
    return [("u", (j,), ctx.rotation(j)) for j in range(ctx.n)]


def signature_ops(ctx: EncryptionContext) -> list[Op]:
    """Encryption, then the signing layer for the cu scheme."""
    ops = encryption_ops(ctx)
    if ctx.scheme is Scheme.CHAINED_CU:
        ops += signing_ops(ctx)
    return ops


_ADJOINT_NAMES = {"cu": "cu_adjoint", "u": "u_adjoint"}


def inverse_ops(ops: list[Op]) -> list[Op]:
    """The circuit that undoes ``ops``: reversed order, adjoint matrices."""
    return [
        (_ADJOINT_NAMES.get(name, name), qubits, gates.adjoint(gate))
        for name, qubits, gate in reversed(ops)
    ]


def run(state: StateVector, ctx: EncryptionContext, circuit: list[Op]) -> StateVector:
    """Run ``circuit`` on ``state``, which must have the context's n qubits."""
    if state.n != ctx.n:
        raise ConfigError(
            f"context is for n={ctx.n}, state has n={state.n}"
        )
    return qstate.apply_ops(state, circuit)


# -- the layers ---------------------------------------------------------------------

def encrypt(state: StateVector, ctx: EncryptionContext) -> StateVector:
    return run(state, ctx, encryption_ops(ctx))


def decrypt(state: StateVector, ctx: EncryptionContext) -> StateVector:
    return run(state, ctx, inverse_ops(encryption_ops(ctx)))


def sign_layer(state: StateVector, ctx: EncryptionContext) -> StateVector:
    """Local rotation U(theta_j, phi_j, lambda_j) on every qubit."""
    return run(state, ctx, signing_ops(ctx))


def unsign_layer(state: StateVector, ctx: EncryptionContext) -> StateVector:
    """Adjoint of :func:`sign_layer`."""
    return run(state, ctx, inverse_ops(signing_ops(ctx)))


def make_signature(message: StateVector, ctx: EncryptionContext) -> StateVector:
    """Signature state for a message.

    The cu scheme stacks the per-qubit signing rotation on top of the
    chained encryption; the baseline schemes sign by encryption alone.
    """
    return run(message, ctx, signature_ops(ctx))
