"""Exact dense statevector states and the operations the protocol needs.

A register of n qubits is a vector of 2**n complex128 amplitudes. Qubit 0 is
the most significant bit of the basis label: for n=4 the label ``0110`` means
qubit0=0, qubit1=1, qubit2=1, qubit3=0, and indexes amplitude 6.

``StateVector`` is immutable, over a read-only amplitude array; every gate
application returns a new instance. The public constructor copies the array it
is given. The builders in this module (:func:`basis_state`,
:func:`init_product_state`, :func:`apply_ops`) make a fresh buffer and hand it
to the new state without a second copy; shape and norm are checked either way.
Gates are data: an :data:`Op` names a gate, its qubits and its 2x2 matrix, and
:func:`apply_ops` runs a whole list of them on one private working copy
through the kernels (see :mod:`aqs.kernels`); that copy becomes the new
state's amplitudes. It reads each gate's entries and picks its kernel path
once, then hands both to the kernel. A protocol session builds its signing and
recovery op lists once and runs each of them through :func:`apply_ops`.

Memory: :func:`apply_ops` allocates one state-sized buffer, its working
copy; the kernels add a few slabs of ``kernels.SLAB`` amplitudes past that
size and nothing state-sized. :func:`distribution` squares and normalises in
place, in one real array of half a state's size, and :func:`inner_product`
sums in chunks. So a gate list costs one state above its input, and
:func:`sample` one state: the probabilities and the drawn counts, half a
state each.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import gates, kernels
from .errors import ConfigError

NORM_ATOL = 1e-9

# Largest register a state may have; the builders refuse more before they
# allocate. `aqs run --out` peaked at 49 / 85 / 229 / 805 MiB (ru_maxrss of a
# fresh process, either Euler mode) at n = 18 / 20 / 22 / 24 over 36.5 MiB at
# n = 4: 3.0-3.1 buffers of 16 * 2**n bytes (message, signature, recovered
# state), so about 1.5 GiB at n = 25. protocol.honest_gate_events holds no
# state.
MAX_QUBITS = 25

# Full single-qubit gates are fused over aligned groups of this many qubits.
# On 2 cores with numpy 2.4.6, one layer of 16 gates at n = 16 took 9.9 ms
# gate by gate and 5.2, 6.7, 3.2, 4.6, 3.6 and 9.0 ms in groups of 2, 3, 4,
# 5, 6 and 8 qubits.
BLOCK_QUBITS = 4

# Fills the gaps of a block whose run has no gate on some of its qubits.
_IDENTITY = gates.PAULIS["I"]

# Amplitudes per partial sum of :func:`inner_product`: a power of two, so the
# partial sums meet numpy's pairwise tree at its nodes.
_DOT_CHUNK = 4096

# Swap-test defaults: accept only if no shot lands on ancilla=1.
SWAP_TEST_SHOTS = 64

# A gate as data: name, qubits and 2x2 matrix. One qubit is a single-qubit
# gate; two are (control, target) of a controlled gate.
Op = tuple[str, tuple[int, ...], np.ndarray]
# What circuit accounting keeps of each applied gate: its name and qubits.
OpList = list[tuple[str, tuple[int, ...]]]
Circuit = tuple[Op, ...]  # a compiled circuit: ops in application order, immutable


def _check_qubit(n: int, qubit: int, role: str = "qubit") -> int:
    if not 0 <= qubit < n:
        raise ConfigError(
            f"{role} index {qubit} out of range for {n}-qubit register"
        )
    return qubit


def _check_ceiling(n: int) -> None:
    if n > MAX_QUBITS:
        raise ConfigError(f"n = {n} exceeds the {MAX_QUBITS}-qubit ceiling")


def _mask(n: int, qubit: int) -> int:
    # Qubit 0 is the MSB of the basis label.
    return 1 << (n - 1 - qubit)


class _HandedOver:
    """A complex128 buffer given to :class:`StateVector` by the builder that
    made it, which holds no other reference and never writes it again."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


@dataclass(frozen=True)
class StateVector:
    """Immutable n-qubit pure state over a read-only amplitude array.

    ``StateVector(n, amps)`` copies ``amps``, so the caller's array stays its
    own. The builders in this module pass their fresh buffer as a
    :class:`_HandedOver`, which the state keeps without copying. Shape and
    norm are checked on both paths.
    """

    n: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("a state needs at least one qubit")
        if isinstance(self.amps, _HandedOver):
            amps = self.amps.array
        else:
            amps = np.array(self.amps, dtype=np.complex128)
        if amps.shape != (2 ** self.n,):
            raise ConfigError(
                f"expected {2 ** self.n} amplitudes for n={self.n}, "
                f"got shape {amps.shape}"
            )
        parts = amps.view(np.float64)
        norm = math.sqrt(float(parts @ parts))
        # Written so that a NaN norm fails the check too.
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ConfigError(
                f"state norm {norm} deviates from 1 by more than {NORM_ATOL}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def working_copy(self) -> np.ndarray:
        """Fresh writable copy of the amplitudes."""
        return np.array(self.amps, dtype=np.complex128)


def basis_state(n: int, label: int | str) -> StateVector:
    """Computational basis state; label is an index or a bit string."""
    _check_ceiling(n)
    if isinstance(label, str):
        if len(label) != n or any(ch not in "01" for ch in label):
            raise ConfigError(f"label {label!r} is not a bit string of length {n}")
        index = int(label, 2)
    else:
        index = int(label)
    if not 0 <= index < 2 ** n:
        raise ConfigError(f"basis index {index} out of range for n={n}")
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n, _HandedOver(amps))


def init_product_state(qubit_states: Sequence[tuple[complex, complex]]) -> StateVector:
    """Tensor product of per-qubit states (alpha, beta), qubit 0 first."""
    n = len(qubit_states)
    if n == 0:
        raise ConfigError("cannot build a product state of zero qubits")
    _check_ceiling(n)
    pairs = np.array(qubit_states, dtype=np.complex128)
    # In plain floats, far cheaper than np.linalg.norm.
    for i, (a, b) in enumerate(pairs.tolist()):
        norm = math.sqrt((a.real * a.real + b.real * b.real)
                         + (a.imag * a.imag + b.imag * b.imag))
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ConfigError(
                f"qubit {i} amplitudes have norm {norm}, expected 1"
            )
    amps = np.array([1.0], dtype=np.complex128)
    for pair in pairs:
        # The same products as np.kron(amps, pair), with the same bytes on
        # either path. np.multiply.outer runs an inner loop of length 2: past
        # 64 amplitudes, writing each column in one pass is faster.
        if amps.shape[0] <= 64:
            amps = np.multiply.outer(amps, pair).ravel()
        else:
            out = np.empty((amps.shape[0], 2), dtype=np.complex128)
            np.multiply(amps, pair[0], out=out[:, 0])
            np.multiply(amps, pair[1], out=out[:, 1])
            amps = out.ravel()
    return StateVector(n, _HandedOver(amps))


def _apply_run(amps: np.ndarray, n: int, run: dict[int, np.ndarray]) -> None:
    """Apply a run of full single-qubit gates on distinct qubits, which
    commute, one aligned block of ``BLOCK_QUBITS`` qubits at a time, and
    empty ``run``."""
    for _, block in itertools.groupby(sorted(run), lambda q: q // BLOCK_QUBITS):
        qubits = list(block)
        first, last = qubits[0], qubits[-1]
        if first == last:
            kernels.apply_single_inplace(amps, _mask(n, first), run[first].tolist(),
                                         kernels.FULL)
            continue
        kernels.apply_block_inplace(
            amps, _mask(n, last), [run.get(q, _IDENTITY) for q in range(first, last + 1)]
        )
    run.clear()


def apply_ops(state: StateVector, ops: Iterable[Op]) -> StateVector:
    """Apply a list of gates in order on one working copy; returns a new state
    that keeps that copy as its buffer.

    Each gate's entries are read and its kernel path picked once. Consecutive
    single-qubit gates that take the full 2x2 update (path
    ``kernels.FULL``) on distinct qubits are collected into a run, which is
    applied as one block matmul per aligned group of ``BLOCK_QUBITS`` qubits;
    a group with one gate keeps the single-qubit kernel. Any other gate, or a
    second gate on a qubit of the run, ends it.
    """
    n = state.n
    amps = state.working_copy()
    run: dict[int, np.ndarray] = {}
    for _, qubits, gate in ops:
        gate = np.asarray(gate)
        entries = gate.tolist()
        path = kernels._path(entries)
        if len(qubits) == 1:
            qubit = _check_qubit(n, qubits[0])
            if path == kernels.FULL:
                if qubit in run:
                    _apply_run(amps, n, run)
                run[qubit] = gate
                continue
            if run:
                _apply_run(amps, n, run)
            kernels.apply_single_inplace(amps, _mask(n, qubit), entries, path)
            continue
        if run:
            _apply_run(amps, n, run)
        control, target = qubits
        _check_qubit(n, control, "control")
        _check_qubit(n, target, "target")
        if control == target:
            raise ConfigError(
                f"control and target both {control}; they must differ"
            )
        kernels.apply_controlled_inplace(
            amps, _mask(n, control), _mask(n, target), entries, path
        )
    if run:
        _apply_run(amps, n, run)
    return StateVector(n, _HandedOver(amps))


def apply_single(state: StateVector, qubit: int, gate: np.ndarray) -> StateVector:
    """Apply a 2x2 gate to one qubit; returns a new state."""
    return apply_ops(state, [("single", (qubit,), gate)])


def apply_controlled(state: StateVector, control: int, target: int,
                     gate: np.ndarray) -> StateVector:
    """Apply a controlled 2x2 gate; returns a new state."""
    return apply_ops(state, [("controlled", (control, target), gate)])


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with a conjugated."""
    if a.n != b.n:
        raise ConfigError(
            f"inner product needs equal sizes, got n={a.n} and n={b.n}"
        )
    # numpy's own pairwise sum: np.vdot hands the sum to BLAS, which splits it
    # by thread count, so its last bits depend on how many threads BLAS has.
    # Chunk sums joined as a balanced tree of neighbours are numpy's own tree
    # for 2**n amplitudes, byte for byte, without a 2**n-amplitude temporary.
    x, y = a.amps, b.amps
    sums = [(x[i:i + _DOT_CHUNK].conj() * y[i:i + _DOT_CHUNK]).sum()
            for i in range(0, x.size, _DOT_CHUNK)]
    while len(sums) > 1:
        sums = [sums[i] + sums[i + 1] for i in range(0, len(sums), 2)]
    return complex(sums[0])


def overlap_sq(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2, the quantity the verifier thresholds.

    Any value above 1 is clamped to 1, so downstream [0,1] invariants hold
    exactly. It comes from rounding or from the norms themselves: states pass
    construction with norms up to 1 + NORM_ATOL, so by Cauchy-Schwarz the raw
    value reaches at most (1 + NORM_ATOL)**4.
    """
    return min(float(abs(inner_product(a, b)) ** 2), 1.0)


def distribution(state: StateVector) -> np.ndarray:
    """Born-rule probabilities over all 2**n basis labels."""
    # Squared and normalised in place: one real buffer, half a state's size.
    probs = np.abs(state.amps)
    np.square(probs, out=probs)
    probs /= probs.sum()
    return probs


@dataclass(frozen=True)
class ShotHistogram:
    """Counts per basis label from a finite-shot measurement."""

    n: int
    shots: int
    counts: dict[str, int]

    def to_csv(self) -> str:
        lines = ["basis_label,count"]
        for label in sorted(self.counts):
            lines.append(f"{label},{self.counts[label]}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "ShotHistogram":
        rows = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not rows or rows[0].strip() != "basis_label,count":
            raise ConfigError("expected header line 'basis_label,count'")
        counts: dict[str, int] = {}
        for ln in rows[1:]:
            row = ln.strip()
            fields = row.split(",")
            if len(fields) != 2:
                raise ConfigError(
                    f"row {row!r} has {len(fields)} fields, expected basis_label,count"
                )
            label, value = fields
            if not label or set(label) - {"0", "1"}:
                raise ConfigError(f"row {row!r}: basis label {label!r} is not a bit string")
            if label in counts:
                raise ConfigError(f"basis label {label!r} appears twice")
            # int() alone would also take "1_000", " 5" and non-ASCII digits.
            digits = value[1:] if value.startswith("-") else value
            if not (digits.isascii() and digits.isdigit()):
                raise ConfigError(
                    f"row {row!r}: count {value!r} is not an integer "
                    "in ASCII decimal digits"
                )
            try:
                counts[label] = int(value)
            except ValueError:  # past Python's integer string conversion limit
                raise ConfigError(
                    f"basis label {label!r}: count has {len(digits)} digits, more than "
                    f"the {sys.get_int_max_str_digits()} that int() reads"
                ) from None
            if counts[label] < 0:
                raise ConfigError(f"basis label {label!r} has a negative count")
        if not counts:
            raise ConfigError("histogram has no rows")
        n = len(next(iter(counts)))
        if any(len(lbl) != n for lbl in counts):
            raise ConfigError("inconsistent basis labels in histogram")
        shots = sum(counts.values())
        if shots == 0:
            raise ConfigError("histogram counts sum to zero")
        return ShotHistogram(n=n, shots=shots, counts=counts)


def sample(state: StateVector, shots: int, rng: np.random.Generator) -> ShotHistogram:
    """Measure all qubits ``shots`` times; multinomial over the exact distribution."""
    if shots <= 0:
        raise ConfigError(f"shots must be positive, got {shots}")
    probs = distribution(state)
    draw = rng.multinomial(shots, probs)
    width = state.n
    # Only drawn outcomes get a label: at most ``shots`` of the 2**n entries.
    # A label's bits, most significant first, are the code points of one
    # fixed-width numpy string.
    drawn = np.flatnonzero(draw)
    bits = (drawn[:, None] >> np.arange(width - 1, -1, -1)) & 1
    labels = (bits + ord("0")).astype(np.uint32).view(f"U{width}").ravel().tolist()
    counts = dict(zip(labels, draw[drawn].tolist()))
    return ShotHistogram(n=state.n, shots=shots, counts=counts)


# -- swap test ----------------------------------------------------------------

def swap_test_pass_probability(overlap: float) -> float:
    """Probability the swap-test ancilla reads 0, from the squared overlap
    |<a|b>|^2 of the two states (see :func:`overlap_sq`): 1/2 + |<a|b>|^2 / 2."""
    return 0.5 + 0.5 * overlap


def swap_test_sampled(pass_probability: float, shots: int,
                      rng: np.random.Generator) -> tuple[bool, int]:
    """Finite-shot swap test; returns (accepted, number of ancilla-1 outcomes).

    ``pass_probability`` is :func:`swap_test_pass_probability` of the two
    states. One binomial draw gives the ancilla-1 count. Accepts only when
    every shot reads ancilla 0. Identical states always pass; orthogonal
    states slip through with probability 2**-shots.
    """
    if shots <= 0:
        raise ConfigError(f"shots must be positive, got {shots}")
    # P(ancilla = 1) = (1 - |<a|b>|^2) / 2 exactly (Buhrman et al., PRL 87,
    # 167902, 2001); tests/oracles.py runs the (2n+1)-qubit circuit against it.
    p_one = 1.0 - pass_probability
    ones = int(rng.binomial(shots, min(max(p_one, 0.0), 1.0)))
    return ones == 0, ones
