"""Statevector construction, gate application, measurement and the swap test."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aqs import gates
from aqs.errors import (
    ControlEqualsTargetError,
    DimensionMismatchError,
    EmptyMessageError,
    NonNormalizedQubitError,
    QubitOutOfRangeError,
    ZeroShotsError,
)
from aqs.qstate import (
    NORM_ATOL,
    ShotHistogram,
    StateVector,
    apply_controlled,
    apply_ops,
    apply_single,
    basis_state,
    distribution,
    init_product_state,
    inner_product,
    overlap_sq,
    sample,
    swap_test_pass_probability,
    swap_test_sampled,
)

from oracles import (
    controlled_matrix,
    random_state,
    single_matrix,
    swap_test_ancilla_distribution,
)


def make_state(n: int, seed: int) -> StateVector:
    return StateVector(n, random_state(n, np.random.default_rng(seed)))


class TestConstruction:
    def test_zero_qubits_rejected(self):
        with pytest.raises(EmptyMessageError):
            StateVector(0, np.array([1.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatchError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_unnormalized_rejected(self):
        with pytest.raises(NonNormalizedQubitError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_amps_read_only(self):
        s = basis_state(2, 0)
        with pytest.raises(ValueError):
            s.amps[0] = 0.5

    def test_defensive_copy(self):
        raw = np.array([1.0, 0.0], dtype=np.complex128)
        s = StateVector(1, raw)
        raw[0] = 123.0
        assert s.amps[0] == 1.0

    def test_basis_state_int_and_string_agree(self):
        np.testing.assert_array_equal(
            basis_state(4, 6).amps, basis_state(4, "0110").amps
        )

    def test_basis_state_msb_convention(self):
        # Qubit 0 is the most significant bit: "10" puts qubit 0 in |1>.
        s = basis_state(2, "10")
        assert s.amps[2] == 1.0

    def test_basis_state_bad_label(self):
        with pytest.raises(ValueError):
            basis_state(3, "01")
        with pytest.raises(ValueError):
            basis_state(3, "0a1")
        with pytest.raises(ValueError):
            basis_state(3, 8)

    def test_product_state_matches_kron(self):
        a = (1.0 / math.sqrt(3), math.sqrt(2.0 / 3) * 1j)
        b = (0.6, 0.8)
        s = init_product_state([a, b])
        expected = np.kron(np.array(a), np.array(b))
        np.testing.assert_allclose(s.amps, expected, atol=1e-15)

    def test_product_state_errors(self):
        with pytest.raises(EmptyMessageError):
            init_product_state([])
        with pytest.raises(NonNormalizedQubitError):
            init_product_state([(1.0, 1.0)])


class TestGateApplication:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_matches_matrix_oracle(self, n):
        g = gates.u_gate(1.2, 0.7, 0.3)
        for q in range(n):
            s = make_state(n, 10 * n + q)
            got = apply_single(s, q, g)
            want = single_matrix(n, q, g) @ s.amps
            np.testing.assert_allclose(got.amps, want, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_controlled_matches_matrix_oracle(self, n):
        g = gates.u_gate(0.4, 1.9, 2.5)
        for c in range(n):
            for t in range(n):
                if c == t:
                    continue
                s = make_state(n, 100 * n + 10 * c + t)
                got = apply_controlled(s, c, t, g)
                want = controlled_matrix(n, c, t, g) @ s.amps
                np.testing.assert_allclose(got.amps, want, atol=1e-12)

    def test_qubit_out_of_range(self):
        s = basis_state(2, 0)
        with pytest.raises(QubitOutOfRangeError):
            apply_single(s, 2, gates.pauli_x())
        with pytest.raises(QubitOutOfRangeError):
            apply_controlled(s, 0, -1, gates.pauli_x())

    def test_control_equals_target(self):
        with pytest.raises(ControlEqualsTargetError):
            apply_controlled(basis_state(2, 0), 1, 1, gates.pauli_x())

    def test_input_state_untouched(self):
        s = basis_state(1, 0)
        apply_single(s, 0, gates.pauli_x())
        assert s.amps[0] == 1.0 and s.amps[1] == 0.0

    def test_norm_preserved_over_random_circuit(self):
        rng = np.random.default_rng(7)
        s = make_state(4, 7)
        for _ in range(60):
            q = int(rng.integers(4))
            g = gates.u_gate(*rng.uniform(0, 2 * math.pi, 3))
            if rng.integers(2):
                t = int((q + 1 + rng.integers(3)) % 4)
                s = apply_controlled(s, q, t, g)
            else:
                s = apply_single(s, q, g)
        assert float(np.linalg.norm(s.amps)) == pytest.approx(1.0, abs=1e-9)


angles = st.floats(0.0, 2 * math.pi)
gate_matrices = st.one_of(
    st.builds(gates.u_gate, angles, angles, angles),
    st.sampled_from("IXYZ").map(gates.pauli),
)


@st.composite
def op_lists(draw):
    """A register size n <= 5, a state on it, and single and controlled ops."""
    n = draw(st.integers(1, 5))
    state = make_state(n, draw(st.integers(0, 2 ** 32 - 1)))
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        gate = draw(gate_matrices)
        if n > 1 and draw(st.booleans()):
            control, target = draw(st.permutations(range(n)))[:2]
            ops.append(("controlled", (control, target), gate))
        else:
            ops.append(("single", (draw(st.integers(0, n - 1)),), gate))
    return state, ops


class TestNormsSurviveOpLists:
    @settings(max_examples=150, deadline=None)
    @given(case=op_lists())
    def test_any_op_list(self, case):
        state, ops = case
        before = state.amps.tobytes()
        result = apply_ops(state, ops)
        assert not result.amps.flags.writeable
        assert abs(float(np.linalg.norm(result.amps)) - 1.0) <= NORM_ATOL
        assert state.amps.tobytes() == before
        assert not np.shares_memory(result.amps, state.amps)
        # The result takes the working copy over without copying it again,
        # and still checks the norm.
        with pytest.raises(NonNormalizedQubitError):
            apply_ops(state, ops + [("single", (0,), 2 * gates.identity_gate())])


class TestOverlap:
    def test_inner_product_conjugates_left(self):
        a = init_product_state([(1 / math.sqrt(2), 1j / math.sqrt(2))])
        b = basis_state(1, 1)
        assert inner_product(a, b) == pytest.approx(-1j / math.sqrt(2))

    def test_overlap_bounds_and_symmetry(self):
        a, b = make_state(3, 1), make_state(3, 2)
        ov = overlap_sq(a, b)
        assert 0.0 <= ov <= 1.0
        assert ov == pytest.approx(overlap_sq(b, a))

    def test_self_overlap_exactly_one(self):
        s = make_state(5, 3)
        assert overlap_sq(s, s) <= 1.0

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product(basis_state(1, 0), basis_state(2, 0))


class TestSampling:
    def test_distribution_sums_to_one(self):
        probs = distribution(make_state(4, 11))
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()

    def test_sample_deterministic_and_complete(self):
        s = make_state(3, 5)
        h1 = sample(s, 500, np.random.default_rng(42))
        h2 = sample(s, 500, np.random.default_rng(42))
        assert h1 == h2
        assert sum(h1.counts.values()) == 500
        assert all(len(k) == 3 for k in h1.counts)

    def test_zero_shots(self):
        with pytest.raises(ZeroShotsError):
            sample(basis_state(1, 0), 0, np.random.default_rng(0))

    def test_basis_state_samples_one_label(self):
        h = sample(basis_state(4, "0110"), 64, np.random.default_rng(1))
        assert h.counts == {"0110": 64}

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_counts_match_dense_enumeration(self, n):
        # Labelling only the drawn outcomes keeps the keys, counts and order of
        # the loop over every one of the 2**n multinomial entries.
        for seed in range(4):
            state = make_state(n, 500 + seed)
            shots = 3 * 2 ** n + seed
            draw = np.random.default_rng(seed).multinomial(shots, distribution(state))
            dense = {format(i, f"0{n}b"): int(c) for i, c in enumerate(draw) if c > 0}
            h = sample(state, shots, np.random.default_rng(seed))
            assert list(h.counts.items()) == list(dense.items())
            assert all(type(c) is int for c in h.counts.values())

    def test_csv_roundtrip(self):
        h = sample(make_state(3, 9), 200, np.random.default_rng(8))
        again = ShotHistogram.from_csv(h.to_csv())
        assert again == h

    def test_csv_rejects_bad_header(self):
        with pytest.raises(ValueError):
            ShotHistogram.from_csv("label,count\n00,5\n")

    def test_csv_rejects_empty(self):
        with pytest.raises(ValueError):
            ShotHistogram.from_csv("basis_label,count\n")

    def test_csv_rejects_mixed_widths(self):
        with pytest.raises(ValueError):
            ShotHistogram.from_csv("basis_label,count\n00,5\n010,3\n")


class TestSwapTest:
    def test_pass_probability_formula(self):
        a, b = make_state(2, 21), make_state(2, 22)
        assert swap_test_pass_probability(a, b) == pytest.approx(
            0.5 + 0.5 * overlap_sq(a, b)
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ancilla_circuit_matches_analytic(self, n):
        # The exact (2n+1)-qubit circuit must reproduce P(1) = (1 - |<a|b>|^2)/2.
        for seed in range(5):
            a = make_state(n, 1000 + seed)
            b = make_state(n, 2000 + seed)
            p_one = swap_test_ancilla_distribution(a.amps, b.amps)
            assert p_one == pytest.approx(0.5 * (1 - overlap_sq(a, b)), abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sampled_draw_uses_circuit_probability(self, n):
        # Same seed, same single binomial draw as from the circuit's P(1).
        for seed in range(5):
            a = make_state(n, 3000 + seed)
            b = make_state(n, 4000 + seed)
            p_one = swap_test_ancilla_distribution(a.amps, b.amps)
            want = int(np.random.default_rng(seed).binomial(64, p_one))
            _, ones = swap_test_sampled(a, b, 64, np.random.default_rng(seed))
            assert ones == want

    def test_identical_states_always_pass(self):
        s = make_state(3, 33)
        for seed in range(10):
            accepted, ones = swap_test_sampled(s, s, 64, np.random.default_rng(seed))
            assert accepted and ones == 0

    def test_orthogonal_states_reject(self):
        a, b = basis_state(2, 0), basis_state(2, 3)
        accepted, ones = swap_test_sampled(a, b, 64, np.random.default_rng(0))
        assert not accepted
        assert ones > 0

    def test_sampled_zero_shots(self):
        s = basis_state(1, 0)
        with pytest.raises(ZeroShotsError):
            swap_test_sampled(s, s, 0, np.random.default_rng(0))

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            swap_test_sampled(basis_state(1, 0), basis_state(2, 0), 8,
                              np.random.default_rng(0))
