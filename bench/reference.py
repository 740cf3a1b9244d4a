"""Independent reference computations the benchmark checks the program against.

Nothing here imports ``aqs``. States are built by repeated outer products,
gates by the documented formulas, and whole-register operators as explicit
2^n x 2^n matrices assembled column by column from basis-state images, so
agreement with the program is a cross-check, not the same code run twice.
The full-matrix functions are only usable at small n (the forgery sweep runs
at n = 4).

Conventions shared with the program's documentation: qubit 0 is the most
significant bit of a basis label; U(theta, phi, lam) is
[[cos(t/2), -e^{i lam} sin(t/2)], [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]];
the key permutation lists the 0-bit positions ascending, then the 1-bit ones.
"""

from __future__ import annotations

import cmath
import hashlib
import math

import numpy as np

PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def product_state(pairs) -> np.ndarray:
    """Amplitudes of the product of per-qubit (alpha, beta), qubit 0 first."""
    amps = np.ones(1, dtype=np.complex128)
    for alpha, beta in pairs:
        amps = np.multiply.outer(amps, np.array([alpha, beta])).reshape(-1)
    return amps


def u_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -cmath.exp(1j * lam) * s],
         [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]],
        dtype=np.complex128,
    )


def key_permutation(bits: str) -> tuple[int, ...]:
    return tuple([i for i, b in enumerate(bits) if b == "0"]
                 + [i for i, b in enumerate(bits) if b == "1"])


def _bit(index: int, n: int, qubit: int) -> int:
    return (index >> (n - 1 - qubit)) & 1


def _operator(n: int, image) -> np.ndarray:
    """Matrix whose column i is ``image(i)``, the image of basis state i."""
    dim = 2 ** n
    full = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        for j, amp in image(i):
            full[j, i] += amp
    return full


def local_operator(n: int, qubit: int, gate: np.ndarray) -> np.ndarray:
    def image(i):
        b = _bit(i, n, qubit)
        flip = 1 << (n - 1 - qubit)
        base = i & ~flip
        return [(base, gate[0, b]), (base | flip, gate[1, b])]
    return _operator(n, image)


def controlled_operator(n: int, control: int, target: int,
                        gate: np.ndarray) -> np.ndarray:
    def image(i):
        if not _bit(i, n, control):
            return [(i, 1.0)]
        b = _bit(i, n, target)
        flip = 1 << (n - 1 - target)
        base = i & ~flip
        return [(base, gate[0, b]), (base | flip, gate[1, b])]
    return _operator(n, image)


def signature_operator(scheme: str, n: int, key_bits: str, *, pad_bits=None,
                       lambdas=None, thetas=None, phis=None) -> np.ndarray:
    """The signing map of one scheme as a full matrix.

    cu: controlled U_j from qubit j onto perm[j], j ascending and fixed points
    skipped, then U_j on every qubit; cnot: the same chain with X; qotp: Z^z
    then X^x on each qubit from the 2n-bit pad.
    """
    full = np.eye(2 ** n, dtype=np.complex128)
    if scheme == "qotp":
        for j in range(n):
            if pad_bits[2 * j] == "1":
                full = local_operator(n, j, PAULI["Z"]) @ full
            if pad_bits[2 * j + 1] == "1":
                full = local_operator(n, j, PAULI["X"]) @ full
        return full
    perm = key_permutation(key_bits)
    if scheme == "cu":
        thetas = thetas if thetas is not None else (0.0,) * n
        phis = phis if phis is not None else (0.0,) * n
        rot = [u_matrix(thetas[j], phis[j], lambdas[j]) for j in range(n)]
    else:
        rot = [PAULI["X"]] * n
    for j in range(n):
        if perm[j] != j:
            full = controlled_operator(n, j, perm[j], rot[j]) @ full
    if scheme == "cu":
        for j in range(n):
            full = local_operator(n, j, rot[j]) @ full
    return full


def pauli_operator(sigma: str) -> np.ndarray:
    full = np.ones((1, 1), dtype=np.complex128)
    for letter in sigma:
        full = np.kron(full, PAULI[letter])
    return full


def forgery_overlap(signing: np.ndarray, message: np.ndarray, sigma: str) -> float:
    """|<sigma m| S^dagger sigma S |m>|^2: the arbiter's overlap for a forged pair."""
    p = pauli_operator(sigma)
    recovered = signing.conj().T @ (p @ (signing @ message))
    return abs(np.vdot(p @ message, recovered)) ** 2


def x_tamper_overlap(alpha: complex, beta: complex) -> float:
    """|<m| X_0 |m>|^2 for a product message whose qubit 0 is (alpha, beta)."""
    return abs(2.0 * (alpha.conjugate() * beta).real) ** 2


def pack_bits(bits: str) -> bytes:
    """8-byte big-endian bit count, then the bits MSB first, zero-padded to a byte."""
    pad = -len(bits) % 8
    body = int(bits + "0" * pad, 2).to_bytes((len(bits) + pad) // 8, "big")
    return len(bits).to_bytes(8, "big") + body


def shake_tag(bits: str, out_bits: int | None = None) -> str:
    """First ``out_bits`` bits (default len(bits)) of SHAKE-256 over the packing."""
    out = len(bits) if out_bits is None else out_bits
    digest = hashlib.shake_256(pack_bits(bits)).digest((out + 7) // 8)
    return bin(int.from_bytes(digest, "big"))[2:].zfill(8 * len(digest))[:out]


def binomial_within(count: float, expected: float, var: float,
                    sigmas: float = 5.0) -> bool:
    """|count - expected| within ``sigmas`` standard deviations, with a one-count floor.

    The floor keeps near-deterministic cases (expected count well below one)
    from failing on a single stray outcome.
    """
    return abs(count - expected) <= sigmas * max(math.sqrt(var), 1.0)
