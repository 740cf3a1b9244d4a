"""Statevector construction, gate application, measurement and the swap test."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aqs import gates, kernels, qstate
from aqs.cipher import EncryptionContext, inverse_ops, signature_ops
from aqs.errors import ConfigError
from aqs.protocol import MAX_QUBITS, MessageSpec
from aqs.qstate import (
    BLOCK_QUBITS,
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
        with pytest.raises(ConfigError, match=r"a state needs at least one qubit"):
            StateVector(0, np.array([1.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigError, match=r"expected 4 amplitudes for n=2"):
            StateVector(2, np.array([1.0, 0.0]))

    def test_unnormalized_rejected(self):
        with pytest.raises(ConfigError, match=r"state norm \S+ deviates from 1"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_nan_norm_rejected(self):
        # abs(nan - 1) > tol is False, so the check must be written the other way.
        with pytest.raises(ConfigError, match=r"state norm nan deviates from 1"):
            StateVector(1, np.array([math.nan, 0.0]))

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
        with pytest.raises(ConfigError, match=r"label '01' is not a bit string of length 3"):
            basis_state(3, "01")
        with pytest.raises(ConfigError, match=r"label '0a1' is not a bit string of length 3"):
            basis_state(3, "0a1")
        with pytest.raises(ConfigError, match=r"basis index 8 out of range for n=3"):
            basis_state(3, 8)

    def test_product_state_matches_kron(self):
        a = (1.0 / math.sqrt(3), math.sqrt(2.0 / 3) * 1j)
        b = (0.6, 0.8)
        s = init_product_state([a, b])
        expected = np.kron(np.array(a), np.array(b))
        np.testing.assert_allclose(s.amps, expected, atol=1e-15)

    def test_product_state_errors(self):
        with pytest.raises(ConfigError, match=r"cannot build a product state of zero qubits"):
            init_product_state([])
        with pytest.raises(ConfigError, match=r"qubit 0 amplitudes have norm"):
            init_product_state([(1.0, 1.0)])

    def test_ceiling_refused_before_allocation(self, monkeypatch):
        class Allocated(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Allocated

        for name in ("zeros", "array", "empty", "multiply"):
            monkeypatch.setattr(np, name, refuse)
        over = MAX_QUBITS + 1
        builds = [
            lambda: basis_state(over, 0),
            lambda: basis_state(over, "0" * over),
            lambda: init_product_state([(1.0, 0.0)] * over),
            lambda: MessageSpec.classical("0" * over).prepare(),
            lambda: MessageSpec.uniform_qubit(over, 1.0, 0.0).prepare(),
        ]
        for build in builds:
            with pytest.raises(ConfigError, match=rf"n = {over} exceeds the "
                                                  rf"{MAX_QUBITS}-qubit ceiling"):
                build()
        monkeypatch.undo()
        assert qstate.MAX_QUBITS == MAX_QUBITS == 25

    def test_product_state_nan_rejected(self):
        with pytest.raises(ConfigError, match=r"qubit 1 amplitudes have norm nan"):
            init_product_state([(1.0, 0.0), (math.nan, 0.0)])

    @pytest.mark.parametrize("off", [2e-9, -2e-9, 1.5 * NORM_ATOL, -1.5 * NORM_ATOL])
    def test_state_norm_just_outside_tolerance_rejected(self, off):
        amps = np.array([1.0 + off, 0.0])
        with pytest.raises(ConfigError, match=rf"^state norm {re.escape(str(1.0 + off))} "
                                              rf"deviates from 1 by more than 1e-09$"):
            StateVector(1, amps)

    @pytest.mark.parametrize("amps", [[math.nan, 0.0], [0.0, complex(0.0, math.nan)],
                                      [math.inf, math.nan]])
    def test_state_nan_norm_message(self, amps):
        with pytest.raises(ConfigError,
                           match=r"^state norm nan deviates from 1 by more than 1e-09$"):
            StateVector(1, np.array(amps))

    @pytest.mark.parametrize("off", [0.5e-9, -0.5e-9])
    def test_state_norm_inside_tolerance_accepted(self, off):
        assert StateVector(1, np.array([1.0 + off, 0.0])).amps[0] == 1.0 + off

    @pytest.mark.parametrize("off", [1.1e-9, -1.1e-9, 2e-9, -2e-9])
    def test_product_pair_just_outside_tolerance_rejected(self, off):
        # The pair's norm is exactly 1 + off, printed as the message says.
        for pair in ((1.0 + off, 0.0), (0.0, complex(0.0, 1.0 + off))):
            with pytest.raises(ConfigError, match=rf"^qubit 1 amplitudes have norm "
                                                  rf"{re.escape(str(1.0 + off))}, expected 1$"):
                init_product_state([(1.0, 0.0), pair])

    @pytest.mark.parametrize("pair", [(math.nan, 0.0), (0.0, complex(math.nan, 0.0)),
                                      (math.inf, math.nan)])
    def test_product_pair_nan_message(self, pair):
        with pytest.raises(ConfigError, match=r"^qubit 0 amplitudes have norm nan, expected 1$"):
            init_product_state([pair])

    @pytest.mark.parametrize("pair", [(1.0, 0.0), (0.0, -1j), (0.6, 0.8j), (-0.8, 0.6),
                                      (0.5 + 0.5j, 0.5 - 0.5j), (0.9e-9 + 1.0, 0.0)])
    def test_product_pair_unit_accepted(self, pair):
        state = init_product_state([pair])
        assert state.amps.tolist() == [complex(pair[0]), complex(pair[1])]


def outer_chain(pairs) -> np.ndarray:
    """init_product_state's amplitudes as np.multiply.outer built them."""
    amps = np.array([1.0], dtype=np.complex128)
    for pair in pairs:
        amps = np.multiply.outer(amps, np.array(pair, dtype=np.complex128)).ravel()
    return amps


qubit_pairs = st.one_of(
    st.builds(lambda t, p: (math.cos(t), complex(math.cos(p), math.sin(p)) * math.sin(t)),
              st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi)),
    st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1j), (1 / math.sqrt(2), -1 / math.sqrt(2)),
                     (complex(-0.0, 1), 0)]),
)


class TestProductStateBytes:
    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(qubit_pairs, min_size=1, max_size=12))
    def test_same_bytes_as_outer_chain(self, pairs):
        amps = init_product_state(pairs).amps
        assert amps.tobytes() == outer_chain(pairs).tobytes()


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
        with pytest.raises(ConfigError, match=r"qubit index 2 out of range"):
            apply_single(s, 2, gates.pauli_x())
        with pytest.raises(ConfigError, match=r"target index -1 out of range"):
            apply_controlled(s, 0, -1, gates.pauli_x())

    def test_control_equals_target(self):
        with pytest.raises(ConfigError, match=r"control and target both 1"):
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
        with pytest.raises(ConfigError, match=r"state norm \S+ deviates from 1"):
            apply_ops(state, ops + [("single", (0,), 2 * gates.identity_gate())])


def per_gate(state: StateVector, ops) -> np.ndarray:
    """The reference for apply_ops: every gate through its own kernel, in order."""
    n = state.n
    amps = state.working_copy()
    for _, qubits, gate in ops:
        masks = [1 << (n - 1 - q) for q in qubits]
        entries = np.asarray(gate).tolist()
        path = kernels._path(entries)
        if len(qubits) == 1:
            kernels.apply_single_inplace(amps, masks[0], entries, path)
        else:
            kernels.apply_controlled_inplace(amps, *masks, entries, path)
    return amps


full_gates = st.builds(gates.u_gate, st.floats(0.1, 3.0), angles, angles)
structured_gates = st.one_of(
    st.builds(gates.u_gate, st.just(0.0), st.just(0.0), angles),
    st.sampled_from("IXYZ").map(gates.pauli),
)


@st.composite
def mixed_op_lists(draw, singles=st.one_of(full_gates, structured_gates)):
    """A state on n <= 9 qubits and ops of every kind: whole layers of single
    gates in a random qubit order, lone single gates (repeated qubits too) and
    controlled gates."""
    n = draw(st.integers(1, 9))
    state = make_state(n, draw(st.integers(0, 2 ** 32 - 1)))
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["layer", "single", "controlled"]))
        if kind == "layer":
            for q in draw(st.permutations(range(n)))[:draw(st.integers(1, n))]:
                ops.append(("u", (q,), draw(singles)))
        elif kind == "single" or n == 1:
            ops.append(("u", (draw(st.integers(0, n - 1)),), draw(singles)))
        else:
            control, target = draw(st.permutations(range(n)))[:2]
            gate = draw(st.one_of(full_gates, structured_gates))
            ops.append(("cu", (control, target), gate))
    return state, ops


def unfused_contexts(n: int, rng: np.random.Generator):
    """Contexts whose op lists hold no full single-qubit gate."""
    perm = tuple(int(p) for p in rng.permutation(n))
    key = "".join(rng.choice(list("01"), size=2 * n))
    return [
        EncryptionContext("cu", n, perm=perm, lambdas=tuple(rng.uniform(0, 6, n))),
        EncryptionContext("cnot", n, perm=perm),
        EncryptionContext("qotp", n, qotp_key=key),
    ]


class TestBlockFusion:
    @settings(max_examples=200, deadline=None)
    @given(case=mixed_op_lists())
    def test_matches_per_gate_loop(self, case):
        state, ops = case
        np.testing.assert_allclose(apply_ops(state, ops).amps, per_gate(state, ops),
                                   rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(case=mixed_op_lists(singles=structured_gates))
    def test_same_bytes_without_full_single_gates(self, case):
        state, ops = case
        assert apply_ops(state, ops).amps.tobytes() == per_gate(state, ops).tobytes()

    @pytest.mark.parametrize("n", [1, 4, 7, 9])
    def test_diagonal_cnot_and_qotp_keep_their_bytes(self, n):
        rng = np.random.default_rng(n)
        state = make_state(n, n)
        for ctx in unfused_contexts(n, rng):
            for ops in (signature_ops(ctx), inverse_ops(signature_ops(ctx))):
                want = per_gate(state, ops).tobytes()
                assert apply_ops(state, ops).amps.tobytes() == want

    def test_general_signature_is_fused(self, monkeypatch):
        blocks = []
        real = kernels.apply_block_inplace
        monkeypatch.setattr(kernels, "apply_block_inplace",
                            lambda amps, mask, gs: blocks.append(len(gs)) or real(amps, mask, gs))
        rng = np.random.default_rng(3)
        n = 10
        ctx = EncryptionContext(
            "cu", n, perm=tuple(int(p) for p in rng.permutation(n)),
            lambdas=tuple(rng.uniform(0, 6, n)), thetas=tuple(rng.uniform(0.1, 3, n)),
            phis=tuple(rng.uniform(0, 6, n)), euler_mode="general",
        )
        state = make_state(n, 3)
        ops = signature_ops(ctx)
        np.testing.assert_allclose(apply_ops(state, ops).amps, per_gate(state, ops),
                                   rtol=0, atol=1e-12)
        # Qubits 0-3, 4-7 and the partial last block 8-9.
        assert blocks == [BLOCK_QUBITS, BLOCK_QUBITS, 2]

    def test_lone_full_gate_takes_single_kernel(self, monkeypatch):
        singles, blocks = [], []
        real_single, real_block = kernels.apply_single_inplace, kernels.apply_block_inplace
        monkeypatch.setattr(kernels, "apply_single_inplace",
                            lambda amps, mask, *g: singles.append(mask) or real_single(amps, mask, *g))
        monkeypatch.setattr(kernels, "apply_block_inplace",
                            lambda amps, mask, gs: blocks.append((mask, len(gs))) or real_block(amps, mask, gs))
        n = 9
        g = gates.u_gate(0.7, 0.2, 1.1)
        # Qubit 1 is alone in block 0-3 and qubit 8 in the last block; qubits
        # 4 and 6 share block 4-7, with the identity on qubit 5.
        ops = [("u", (q,), g) for q in (6, 1, 8, 4)]
        state = make_state(n, 1)
        apply_ops(state, ops)
        assert sorted(singles) == [1 << (n - 1 - 8), 1 << (n - 1 - 1)]
        assert blocks == [(1 << (n - 1 - 6), 3)]

    def test_repeated_qubit_ends_the_run(self, monkeypatch):
        blocks = []
        real = kernels.apply_block_inplace
        monkeypatch.setattr(kernels, "apply_block_inplace",
                            lambda amps, mask, gs: blocks.append(len(gs)) or real(amps, mask, gs))
        g, h = gates.u_gate(0.7, 0.2, 1.1), gates.u_gate(1.9, 0.4, 0.3)
        # h then g on qubit 0 do not commute, so they must not share a block.
        ops = [("u", (0,), g), ("u", (1,), g), ("u", (0,), h), ("u", (1,), h)]
        state = make_state(2, 4)
        np.testing.assert_allclose(apply_ops(state, ops).amps, per_gate(state, ops),
                                   rtol=0, atol=1e-12)
        assert blocks == [2, 2]


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

    def test_overlap_clamped_for_any_accepted_state(self):
        # A norm just inside NORM_ATOL passes construction; its raw self-overlap
        # is about 1 + 4 * 9e-10, which overlap_sq clamps rather than refuses.
        s = StateVector(1, np.array([1.0 + 9e-10, 0.0]))
        assert float(abs(inner_product(s, s)) ** 2) > 1.0 + 1e-9
        assert overlap_sq(s, s) == 1.0

    def test_size_mismatch(self):
        with pytest.raises(ConfigError, match=r"inner product needs equal sizes"):
            inner_product(basis_state(1, 0), basis_state(2, 0))

    @pytest.mark.parametrize("n", range(12, 19))
    def test_chunked_sum_is_numpy_sum_byte_for_byte(self, n):
        # n >= 13 splits the sum into chunks; the bytes must be those of numpy's
        # one-array pairwise sum, which the transcripts were recorded with.
        for seed in range(0, 6, 2):
            a, b = make_state(n, seed), make_state(n, seed + 1)
            want = np.complex128((a.amps.conj() * b.amps).sum())
            assert np.complex128(inner_product(a, b)).tobytes() == want.tobytes()

    def test_overlap_builds_no_state_sized_temporary(self):
        # The amplitudes take 1 MiB at n = 16; one product of them would too.
        a, b = make_state(16, 1), make_state(16, 2)
        overlap_sq(a, b)
        tracemalloc.start()
        try:
            overlap_sq(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


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
        with pytest.raises(ConfigError, match=r"shots must be positive, got 0"):
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

    @pytest.mark.parametrize("n", [1, 2, 10, 16])
    def test_labels_are_msb_first_bit_strings(self, n):
        # Half the weight on |0...0> and |1...1>, the rest spread over all
        # labels, so both end labels are drawn next to many others.
        probs = np.full(2 ** n, 0.5 / 2 ** n)
        probs[[0, -1]] += 0.25
        state = StateVector(n, np.sqrt(probs))
        shots = 1024
        draw = np.random.default_rng(n).multinomial(shots, distribution(state))
        want = {format(i, f"0{n}b"): int(c) for i, c in enumerate(draw) if c > 0}
        h = sample(state, shots, np.random.default_rng(n))
        assert h.counts == want
        assert all(type(label) is str for label in h.counts)
        assert "0" * n in h.counts and "1" * n in h.counts
        lines = [f"{label},{want[label]}" for label in sorted(want)]
        assert h.to_csv() == "\n".join(["basis_label,count"] + lines) + "\n"

    def test_csv_roundtrip(self):
        h = sample(make_state(3, 9), 200, np.random.default_rng(8))
        again = ShotHistogram.from_csv(h.to_csv())
        assert again == h

    def test_csv_rejects_bad_header(self):
        with pytest.raises(ConfigError, match=r"expected header line 'basis_label,count'"):
            ShotHistogram.from_csv("label,count\n00,5\n")

    def test_csv_rejects_empty(self):
        with pytest.raises(ConfigError, match=r"histogram has no rows"):
            ShotHistogram.from_csv("basis_label,count\n")

    def test_csv_rejects_mixed_widths(self):
        with pytest.raises(ConfigError, match=r"inconsistent basis labels in histogram"):
            ShotHistogram.from_csv("basis_label,count\n00,5\n010,3\n")


def sampled_swap_test(a, b, shots, rng):
    """The arbiter's finite-shot swap test of two states."""
    return swap_test_sampled(swap_test_pass_probability(overlap_sq(a, b)), shots, rng)


class TestSwapTest:
    def test_pass_probability_formula(self):
        a, b = make_state(2, 21), make_state(2, 22)
        ov = overlap_sq(a, b)
        assert swap_test_pass_probability(ov) == 0.5 + 0.5 * ov
        assert swap_test_pass_probability(1.0) == 1.0
        assert swap_test_pass_probability(0.0) == 0.5
        # The ancilla-0 probability of the (2n+1)-qubit circuit.
        p_one = swap_test_ancilla_distribution(a.amps, b.amps)
        assert swap_test_pass_probability(ov) == pytest.approx(1.0 - p_one, abs=1e-12)

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
            _, ones = sampled_swap_test(a, b, 64, np.random.default_rng(seed))
            assert ones == want

    def test_identical_states_always_pass(self):
        s = make_state(3, 33)
        for seed in range(10):
            accepted, ones = sampled_swap_test(s, s, 64, np.random.default_rng(seed))
            assert accepted and ones == 0

    def test_orthogonal_states_reject(self):
        a, b = basis_state(2, 0), basis_state(2, 3)
        accepted, ones = sampled_swap_test(a, b, 64, np.random.default_rng(0))
        assert not accepted
        assert ones > 0

    def test_sampled_zero_shots(self):
        with pytest.raises(ConfigError, match=r"shots must be positive, got 0"):
            swap_test_sampled(1.0, 0, np.random.default_rng(0))

    def test_size_mismatch(self):
        # The overlap the swap test is computed from refuses unequal sizes.
        with pytest.raises(ConfigError, match=r"inner product needs equal sizes"):
            sampled_swap_test(basis_state(1, 0), basis_state(2, 0), 8,
                              np.random.default_rng(0))
