"""The numpy kernels against full-matrix oracles."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aqs import kernels
from aqs.qstate import BLOCK_QUBITS
from aqs.gates import (
    adjoint,
    identity_gate,
    pauli_x,
    pauli_y,
    pauli_z,
    u_gate,
)

from oracles import controlled_matrix, kron_chain, random_state, single_matrix


def single(amps, mask, gate):
    entries = np.asarray(gate).tolist()
    kernels.apply_single_inplace(amps, mask, entries, kernels._path(entries))


def controlled(amps, cmask, tmask, gate):
    entries = np.asarray(gate).tolist()
    kernels.apply_controlled_inplace(amps, cmask, tmask, entries, kernels._path(entries))


def _mask(n, q):
    return 1 << (n - 1 - q)


class TestAgainstOracle:
    def test_single_exhaustive_basis(self):
        for n in (1, 2, 3):
            for q in range(n):
                gate = u_gate(0.7, 0.3, 1.1)
                full = single_matrix(n, q, gate)
                for b in range(2 ** n):
                    amps = np.zeros(2 ** n, dtype=np.complex128)
                    amps[b] = 1.0
                    single(amps, _mask(n, q), gate)
                    np.testing.assert_allclose(amps, full[:, b], atol=1e-12)

    def test_controlled_exhaustive_basis(self):
        for n in (2, 3):
            for c in range(n):
                for t in range(n):
                    if c == t:
                        continue
                    gate = u_gate(1.3, 0.2, 0.9)
                    full = controlled_matrix(n, c, t, gate)
                    for b in range(2 ** n):
                        amps = np.zeros(2 ** n, dtype=np.complex128)
                        amps[b] = 1.0
                        controlled(
                            amps, _mask(n, c), _mask(n, t), gate
                        )
                        np.testing.assert_allclose(amps, full[:, b], atol=1e-12)

    def test_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            state = random_state(n, rng)
            gate = u_gate(*rng.uniform(0, 3.1, size=3))
            q = int(rng.integers(0, n))
            amps = state.copy()
            single(amps, _mask(n, q), gate)
            np.testing.assert_allclose(
                amps, single_matrix(n, q, gate) @ state, atol=1e-12
            )
            if n >= 2:
                c, t = rng.choice(n, size=2, replace=False)
                amps = state.copy()
                controlled(
                    amps, _mask(n, int(c)), _mask(n, int(t)), gate
                )
                np.testing.assert_allclose(
                    amps, controlled_matrix(n, int(c), int(t), gate) @ state,
                    atol=1e-12,
                )

    def test_controlled_leaves_control_zero_half_untouched(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5):
            state = random_state(n, rng)
            gate = u_gate(*rng.uniform(0, 3.1, size=3))
            for c in range(n):
                for t in range(n):
                    if c == t:
                        continue
                    amps = state.copy()
                    controlled(
                        amps, _mask(n, c), _mask(n, t), gate
                    )
                    off = (np.arange(2 ** n) & _mask(n, c)) == 0
                    assert amps[off].tobytes() == state[off].tobytes()


class TestBackendSelection:
    def test_active_backend_reports_known_name(self):
        assert kernels.active_backend() == "numpy"


# The kernels' full 2x2 update before diagonal and anti-diagonal gates got
# their own paths, kept as the reference those paths must reproduce.

def full_update_single(amps, mask, gate):
    u00, u01 = complex(gate[0, 0]), complex(gate[0, 1])
    u10, u11 = complex(gate[1, 0]), complex(gate[1, 1])
    dim = amps.shape[0]
    view = amps.reshape(dim // (2 * mask), 2, mask)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = u00 * a0 + u01 * a1
    view[:, 1, :] = u10 * a0 + u11 * a1


def full_update_controlled(amps, cmask, tmask, gate):
    u00, u01 = complex(gate[0, 0]), complex(gate[0, 1])
    u10, u11 = complex(gate[1, 0]), complex(gate[1, 1])
    dim = amps.shape[0]
    high, low = max(cmask, tmask), min(cmask, tmask)
    view = amps.reshape(dim // (2 * high), 2, high // (2 * low), 2, low)
    if cmask == high:
        on = view[:, 1]
        t0, t1 = on[:, :, 0], on[:, :, 1]
    else:
        on = view[:, :, :, 1]
        t0, t1 = on[:, 0], on[:, 1]
    a0 = t0.copy()
    t0[...] = u00 * a0 + u01 * t1
    t1[...] = u10 * a0 + u11 * t1


def _phase(angle):
    return complex(np.exp(1j * angle))


def structured_gates(a=0.8, b=2.3):
    """Named gates of every path; ``a`` and ``b`` are angles."""
    diag = u_gate(0.0, 0.0, a)
    return {
        "u(0,0,lam)": diag,
        "u(0,0,lam)^dag": adjoint(diag),
        "I": identity_gate(),
        "X": pauli_x(),
        "Y": pauli_y(),
        "Z": pauli_z(),
        "diag-no-unit": np.diag([_phase(a), _phase(b)]),
        "anti-no-unit": np.array([[0, _phase(a)], [_phase(b), 0]]),
        "general": u_gate(1.3, a, b),
    }


GATE_NAMES = tuple(structured_gates())


def _pairs(n):
    return [(c, t) for c in range(n) for t in range(n) if c != t]


def _same_bytes_up_to_zero_signs(got, want):
    """Equal bytes once -0.0 is folded to 0.0, and equal bytes outright
    wherever ``want`` has no exactly-zero part."""
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
    nonzero = want.view(np.float64) != 0
    assert got.view(np.float64)[nonzero].tobytes() == want.view(np.float64)[nonzero].tobytes()


class TestStructuredGatesAgainstOracle:
    @pytest.mark.parametrize("name", GATE_NAMES)
    def test_single_every_position(self, name):
        gate = structured_gates()[name]
        rng = np.random.default_rng(3)
        for n in range(1, 6):
            for q in range(n):
                full = single_matrix(n, q, gate)
                states = [np.eye(2 ** n, dtype=np.complex128)[b] for b in range(2 ** n)]
                states.append(random_state(n, rng))
                for state in states:
                    amps = state.copy()
                    single(amps, _mask(n, q), gate)
                    np.testing.assert_allclose(amps, full @ state, atol=1e-12)

    @pytest.mark.parametrize("name", GATE_NAMES)
    def test_controlled_every_position(self, name):
        gate = structured_gates()[name]
        rng = np.random.default_rng(4)
        for n in range(2, 6):
            for c, t in _pairs(n):
                full = controlled_matrix(n, c, t, gate)
                states = [random_state(n, rng), random_state(n, rng)]
                if n <= 3:
                    states += [np.eye(2 ** n, dtype=np.complex128)[b]
                               for b in range(2 ** n)]
                for state in states:
                    amps = state.copy()
                    controlled(
                        amps, _mask(n, c), _mask(n, t), gate
                    )
                    np.testing.assert_allclose(amps, full @ state, atol=1e-12)


angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


class TestMatchesFullUpdate:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), name=st.sampled_from(GATE_NAMES), a=angles,
           b=angles, seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_same_bytes_on_random_states(self, n, name, a, b, seed, data):
        gate = structured_gates(a, b)[name]
        rng = np.random.default_rng(seed)
        state = random_state(n, rng)
        assert np.all(state.view(np.float64) != 0)
        q = data.draw(st.integers(0, n - 1))
        got, want = state.copy(), state.copy()
        single(got, _mask(n, q), gate)
        full_update_single(want, _mask(n, q), gate)
        _same_bytes_up_to_zero_signs(got, want)
        if n >= 2:
            c, t = data.draw(st.sampled_from(_pairs(n)))
            got, want = state.copy(), state.copy()
            controlled(got, _mask(n, c), _mask(n, t), gate)
            full_update_controlled(want, _mask(n, c), _mask(n, t), gate)
            _same_bytes_up_to_zero_signs(got, want)

    @pytest.mark.parametrize("name", GATE_NAMES)
    def test_equal_on_basis_states(self, name):
        gate = structured_gates()[name]
        for n in range(1, 5):
            for b in range(2 ** n):
                state = np.eye(2 ** n, dtype=np.complex128)[b]
                for q in range(n):
                    got, want = state.copy(), state.copy()
                    single(got, _mask(n, q), gate)
                    full_update_single(want, _mask(n, q), gate)
                    assert np.array_equal(got, want)
                for c, t in _pairs(n):
                    got, want = state.copy(), state.copy()
                    controlled(
                        got, _mask(n, c), _mask(n, t), gate)
                    full_update_controlled(want, _mask(n, c), _mask(n, t), gate)
                    assert np.array_equal(got, want)

    # 1e-300 is far below the rounding of any amplitude near 1, so the
    # structured paths would drop it silently; only the full update keeps it.
    def test_tiny_off_diagonal_takes_full_path(self):
        gate = np.array([[1, 1e-300], [1e-300, _phase(0.4)]])
        amps = np.array([0, 1], dtype=np.complex128)
        single(amps, 1, gate)
        assert amps[0] == 1e-300
        amps = np.array([0, 0, 0, 1], dtype=np.complex128)
        controlled(amps, 2, 1, gate)
        assert amps[2] == 1e-300

    def test_tiny_diagonal_takes_full_path(self):
        gate = np.array([[1e-300, 1], [1, 1e-300]])
        amps = np.array([1, 0], dtype=np.complex128)
        single(amps, 1, gate)
        assert amps[0] == 1e-300 and amps[1] == 1
        amps = np.array([0, 0, 1, 0], dtype=np.complex128)
        controlled(amps, 2, 1, gate)
        assert amps[2] == 1e-300 and amps[3] == 1


class TestStructuredGatesTouchOnlyTheirHalves:
    @pytest.mark.parametrize("name", GATE_NAMES)
    def test_control_zero_half_untouched(self, name):
        gate = structured_gates()[name]
        rng = np.random.default_rng(6)
        for n in (2, 3, 5):
            # -0.0 parts too, whose sign a recomputation could flip.
            state = random_state(n, rng)
            state[::3] = complex(-0.0, -0.0)
            for c, t in _pairs(n):
                amps = state.copy()
                controlled(amps, _mask(n, c), _mask(n, t), gate)
                off = (np.arange(2 ** n) & _mask(n, c)) == 0
                assert amps[off].tobytes() == state[off].tobytes()

    @pytest.mark.parametrize("name", ["u(0,0,lam)", "u(0,0,lam)^dag", "Z", "I"])
    def test_unit_entry_half_untouched(self, name):
        gate = structured_gates()[name]
        rng = np.random.default_rng(7)
        for n in (1, 3, 5):
            state = random_state(n, rng)
            state[::3] = complex(-0.0, -0.0)
            index = np.arange(2 ** n)
            for q in range(n):
                amps = state.copy()
                single(amps, _mask(n, q), gate)
                zero = (index & _mask(n, q)) == 0
                assert amps[zero].tobytes() == state[zero].tobytes()
            for c, t in _pairs(n):
                amps = state.copy()
                controlled(amps, _mask(n, c), _mask(n, t), gate)
                kept = ((index & _mask(n, c)) == 0) | ((index & _mask(n, t)) == 0)
                assert amps[kept].tobytes() == state[kept].tobytes()


class TestBlock:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_position_and_size(self, n):
        # Blocks at the first qubits, the last qubits, in between and over
        # the whole register, each against the Kronecker product.
        rng = np.random.default_rng(n)
        for k in range(2, min(n, 5) + 1):
            for first in range(n - k + 1):
                block = [u_gate(*rng.uniform(0, 3.1, size=3)) for _ in range(k)]
                full = kron_chain([np.eye(2 ** first), *block,
                                   np.eye(2 ** (n - first - k))])
                state = random_state(n, rng)
                amps = state.copy()
                kernels.apply_block_inplace(amps, _mask(n, first + k - 1), block)
                np.testing.assert_allclose(amps, full @ state, rtol=0, atol=1e-12)

    def test_matches_single_kernels_with_structured_gates(self):
        # is_full keeps these out of blocks in apply_ops, but the block
        # kernel itself takes any gate.
        gates = list(structured_gates().values())[:4]
        rng = np.random.default_rng(2)
        state = random_state(6, rng)
        got, want = state.copy(), state.copy()
        kernels.apply_block_inplace(got, _mask(6, 4), gates)
        for q, gate in zip(range(1, 5), gates):
            single(want, _mask(6, q), gate)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def is_full(gate):
    """Whether ``gate`` takes the full 2x2 update, the path that
    :func:`aqs.qstate.apply_ops` fuses into blocks."""
    return kernels._path(np.asarray(gate).tolist()) == kernels.FULL


class TestIsFull:
    @pytest.mark.parametrize("name", GATE_NAMES)
    def test_only_general_gates_are_full(self, name):
        assert is_full(structured_gates()[name]) == (name == "general")

    def test_tiny_entries_are_full(self):
        # The same rule as the single and controlled kernels: exact zeros only.
        assert is_full(np.array([[1, 1e-300], [1e-300, 1]]))
        assert is_full(np.array([[1e-300, 1], [1, 1e-300]]))


# The kernels' formulas on whole halves and whole views, as they ran before
# the kernels worked slab by slab, kept as the reference the slabs must
# reproduce byte for byte.

def whole_update(a0, a1, entries, path):
    (u00, u01), (u10, u11) = entries
    if path == kernels.DIAGONAL:
        if u00 != 1:
            a0[...] = u00 * a0
        if u11 != 1:
            a1[...] = u11 * a1
    elif path == kernels.ANTI_DIAGONAL:
        old0 = a0.copy()
        a0[...] = a1 if u01 == 1 else u01 * a1
        a1[...] = old0 if u10 == 1 else u10 * old0
    else:
        old0 = a0.copy()
        a0[...] = u00 * old0 + u01 * a1
        a1[...] = u10 * old0 + u11 * a1


def whole_single(amps, mask, entries, path):
    view = amps.reshape(amps.shape[0] // (2 * mask), 2, mask)
    whole_update(view[:, 0, :], view[:, 1, :], entries, path)


def whole_controlled(amps, cmask, tmask, entries, path):
    high, low = max(cmask, tmask), min(cmask, tmask)
    view = amps.reshape(amps.shape[0] // (2 * high), 2, high // (2 * low), 2, low)
    if cmask == high:
        whole_update(view[:, 1, :, 0], view[:, 1, :, 1], entries, path)
    else:
        whole_update(view[:, 0, :, 1], view[:, 1, :, 1], entries, path)


def whole_block(amps, mask, gates):
    block = functools.reduce(np.kron, gates)
    d = block.shape[0]
    rows = amps.shape[0] // (d * mask)
    if mask == 1:
        view = amps.reshape(rows, d)
        view[...] = view @ block.T
    else:
        view = amps.reshape(rows, d, mask)
        view[...] = block @ view


# Registers from one slab to 16 slabs: every kernel runs whole at the low
# end and crosses slab edges in each of its loops above it.
SLAB_BITS = kernels.SLAB.bit_length() - 1
SLAB_SIZES = range(SLAB_BITS, SLAB_BITS + 5)
SLAB_GATES = ("diag-no-unit", "anti-no-unit", "general", "X", "u(0,0,lam)")


@pytest.fixture(scope="module")
def slab_states():
    rng = np.random.default_rng(35)
    return {n: random_state(n, rng) for n in SLAB_SIZES}


class TestSlabsKeepWholeArrayBytes:
    @pytest.mark.parametrize("n", SLAB_SIZES)
    def test_single_every_qubit(self, n, slab_states):
        state = slab_states[n]
        for name in SLAB_GATES:
            entries = structured_gates()[name].tolist()
            path = kernels._path(entries)
            for q in range(n):
                got, want = state.copy(), state.copy()
                kernels.apply_single_inplace(got, _mask(n, q), entries, path)
                whole_single(want, _mask(n, q), entries, path)
                assert got.tobytes() == want.tobytes(), (name, q)

    @pytest.mark.parametrize("n", SLAB_SIZES)
    def test_controlled_every_pair(self, n, slab_states):
        state = slab_states[n]
        for name in SLAB_GATES[:3]:
            entries = structured_gates()[name].tolist()
            path = kernels._path(entries)
            for c, t in _pairs(n):
                got, want = state.copy(), state.copy()
                kernels.apply_controlled_inplace(got, _mask(n, c), _mask(n, t), entries, path)
                whole_controlled(want, _mask(n, c), _mask(n, t), entries, path)
                assert got.tobytes() == want.tobytes(), (name, c, t)

    @pytest.mark.parametrize("n", SLAB_SIZES)
    def test_block_every_position(self, n, slab_states):
        # Every block of 2 to BLOCK_QUBITS qubits at every position, the
        # aligned ones and the 2-D product at the low end among them.
        state = slab_states[n]
        rng = np.random.default_rng(n)
        for k in range(2, BLOCK_QUBITS + 1):
            for first in range(n - k + 1):
                gates = [u_gate(*rng.uniform(0, 3.1, size=3)) for _ in range(k)]
                got, want = state.copy(), state.copy()
                kernels.apply_block_inplace(got, _mask(n, first + k - 1), gates)
                whole_block(want, _mask(n, first + k - 1), gates)
                assert got.tobytes() == want.tobytes(), (k, first)

    def test_slabs_tile_the_array_in_memory_order(self):
        for shape in [(4, 64), (1, 1024), (8, 2, 16), (2, 64, 1), (16, 4, 8)]:
            for size in (8, 32, 64):
                if size >= np.prod(shape):
                    continue
                cells = np.arange(np.prod(shape)).reshape(shape)
                boxes = list(kernels._slabs(shape, size))
                assert all(len(box) == len(shape) for box in boxes)
                assert all(cells[box].size == size for box in boxes)
                order = np.concatenate([cells[box].ravel() for box in boxes])
                assert np.array_equal(order, np.arange(cells.size))
