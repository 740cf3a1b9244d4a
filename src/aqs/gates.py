"""Single-qubit gate constructors.

Everything here returns a fresh 2x2 complex128 matrix. The general rotation
follows the convention

    U(theta, phi, lam) = [[cos(t/2),              -exp(i*lam) sin(t/2)],
                          [exp(i*phi) sin(t/2),   exp(i*(phi+lam)) cos(t/2)]]

so that ``u_gate(0, 0, lam)`` is the diagonal phase gate diag(1, e^{i lam}),
``u_gate(pi, 0, pi)`` is Pauli X and ``u_gate(0, 0, pi)`` is Pauli Z.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

UNITARITY_ATOL = 1e-10


def u_gate(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit rotation U(theta, phi, lam)."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [[c, -np.exp(1j * lam) * s],
         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]],
        dtype=np.complex128,
    )


def identity_gate() -> np.ndarray:
    return np.eye(2, dtype=np.complex128)


def pauli_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=np.complex128)


def pauli_y() -> np.ndarray:
    return np.array([[0, -1j], [1j, 0]], dtype=np.complex128)


def pauli_z() -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=np.complex128)


def pauli(name: str) -> np.ndarray:
    """Pauli matrix by letter; 'I', 'X', 'Y' or 'Z' (case-insensitive)."""
    table = {
        "I": identity_gate,
        "X": pauli_x,
        "Y": pauli_y,
        "Z": pauli_z,
    }
    key = name.upper()
    if key not in table:
        raise ConfigError(f"unknown Pauli {name!r}; expected one of I, X, Y, Z")
    return table[key]()


def is_unitary(gate: np.ndarray) -> bool:
    """True when gate @ gate^dagger is the identity within ``UNITARITY_ATOL``.

    The test is ``np.allclose(gate @ gate^dagger, I, atol=UNITARITY_ATOL)``,
    worked out on the four entries in Python arithmetic: numpy's default
    ``rtol=1e-5`` widens the diagonal bound to ``UNITARITY_ATOL + 1e-5``.
    NaN and inf entries fail it, as they fail ``np.allclose``.
    """
    gate = np.asarray(gate)
    if gate.shape != (2, 2):
        return False
    (a, b), (c, d) = gate.astype(np.complex128, copy=False).tolist()
    # The (1, 0) entry is the conjugate of the (0, 1) entry, so one check covers both.
    off = a * c.conjugate() + b * d.conjugate()
    top = a * a.conjugate() + b * b.conjugate()
    bottom = c * c.conjugate() + d * d.conjugate()
    diag_tol = UNITARITY_ATOL + 1e-5
    return (abs(off) <= UNITARITY_ATOL and abs(top - 1.0) <= diag_tol
            and abs(bottom - 1.0) <= diag_tol)


def adjoint(gate: np.ndarray) -> np.ndarray:
    """Conjugate transpose; rejects non-unitary input so G @ adjoint(G) = I."""
    if not is_unitary(gate):
        raise ConfigError(
            "adjoint requires a unitary 2x2 matrix; deviation exceeds "
            f"atol={UNITARITY_ATOL}"
        )
    return np.asarray(gate, dtype=np.complex128).conj().T.copy()
