"""Brute-force full-matrix oracles, independent of the package's kernels.

Everything here builds explicit 2^n x 2^n matrices from Kronecker products
and projector algebra, so agreement with the package is a real cross-check
rather than the same code run twice. Only usable for small n.
"""

from __future__ import annotations

import numpy as np

P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
I2 = np.eye(2, dtype=np.complex128)


def kron_chain(factors) -> np.ndarray:
    out = np.array([[1.0]], dtype=np.complex128)
    for f in factors:
        out = np.kron(out, f)
    return out


def single_matrix(n: int, qubit: int, gate: np.ndarray) -> np.ndarray:
    """Gate on one qubit, identity elsewhere; qubit 0 is the leftmost factor."""
    return kron_chain(gate if i == qubit else I2 for i in range(n))


def controlled_matrix(n: int, control: int, target: int,
                      gate: np.ndarray) -> np.ndarray:
    """P0(c) x I + P1(c) x gate(t), built purely from projectors."""
    off = kron_chain(P0 if i == control else I2 for i in range(n))
    on = kron_chain(
        P1 if i == control else (gate if i == target else I2) for i in range(n)
    )
    return off + on


def chained_cu_matrix(n: int, perm, gates_per_slot) -> np.ndarray:
    """Product of controlled gates, slot 0 applied first (rightmost factor)."""
    full = np.eye(2 ** n, dtype=np.complex128)
    for j in range(n):
        if perm[j] == j:
            continue
        full = controlled_matrix(n, j, perm[j], gates_per_slot[j]) @ full
    return full


def local_layer_matrix(n: int, gates_per_qubit) -> np.ndarray:
    return kron_chain(gates_per_qubit[i] for i in range(n))


def qotp_matrix(n: int, key: str) -> np.ndarray:
    """X^x Z^z per qubit from a 2n-bit key (Z applied first)."""
    X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    factors = []
    for j in range(n):
        f = I2.copy()
        if key[2 * j] == "1":
            f = Z @ f
        if key[2 * j + 1] == "1":
            f = X @ f
        factors.append(f)
    return kron_chain(factors)


def cnot_chain_matrix(n: int, perm) -> np.ndarray:
    X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    full = np.eye(2 ** n, dtype=np.complex128)
    for j in range(n):
        if perm[j] == j:
            continue
        full = controlled_matrix(n, j, perm[j], X) @ full
    return full


def pauli_string_matrix(sigma: str) -> np.ndarray:
    table = {
        "I": I2,
        "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    }
    return kron_chain(table[ch] for ch in sigma.upper())


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return amps / np.linalg.norm(amps)


def swap_test_ancilla_distribution(a: np.ndarray, b: np.ndarray) -> float:
    """Run the (2n+1)-qubit swap-test circuit exactly; returns P(ancilla = 1).

    Layout: the ancilla is qubit 0 (the most significant bit), register a
    occupies qubits 1..n and register b qubits n+1..2n. Circuit: H on the
    ancilla, controlled swaps pairing qubit i of a with qubit i of b, H on the
    ancilla. The state has 2^(2n+1) amplitudes, so memory grows as 4^n.
    """
    n = len(a).bit_length() - 1
    assert len(a) == len(b) == 2 ** n
    total = 2 * n + 1
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
    amps = np.kron(np.array([1.0, 0.0], dtype=np.complex128), np.kron(a, b))
    amps = (h @ amps.reshape(2, -1)).reshape(-1)
    # Controlled swap = permutation of basis labels where the ancilla bit is set.
    idx = np.arange(2 ** total)
    anc = 1 << (total - 1)
    perm = idx.copy()
    for i in range(n):
        ma = 1 << (total - 2 - i)
        mb = 1 << (n - 1 - i)
        bit_a = (perm & ma) != 0
        bit_b = (perm & mb) != 0
        differ = ((idx & anc) != 0) & (bit_a != bit_b)
        perm = np.where(differ, perm ^ (ma | mb), perm)
    # The pairwise swap is an involution, so gathering by perm applies it.
    amps = (h @ amps[perm].reshape(2, -1)).reshape(-1)
    return float(np.sum(np.abs(amps[anc:]) ** 2))
