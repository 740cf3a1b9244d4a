"""Exact sets of Pauli forgeries the arbiter accepts, by message kind and key.

A forgery hits message and signature with the same Pauli string sigma; the
arbiter accepts it when U^dag sigma U |m> equals sigma |m> up to a phase.
"""

import itertools
import math

import numpy as np
import pytest

from aqs.attacks import honest_package, pauli_forgery
from aqs.cipher import EulerMode, Scheme
from aqs.keys import derive_permutation, random_bits, tag_of_bits
from aqs.protocol import (
    EXACT_ACCEPT_THRESHOLD,
    MessageSpec,
    RunConfig,
    SignaturePackage,
    registered_session,
)
from aqs.qstate import StateVector, basis_state

from oracles import (
    chained_cu_matrix,
    cnot_chain_matrix,
    local_layer_matrix,
    pauli_string_matrix,
)


def signed_session(config: RunConfig):
    session = registered_session(config)
    return session, honest_package(session)


def signature_matrix(session) -> np.ndarray:
    """The full-matrix cu signature unitary U of a registered session."""
    n = session.config.n
    ctx = session.context_for()
    rotations = [ctx.rotation(j) for j in range(n)]
    return local_layer_matrix(n, rotations) @ chained_cu_matrix(n, ctx.perm, rotations)


def accepted_strings(config: RunConfig) -> list[str]:
    """Every Pauli string the cu arbiter accepts on one session, each overlap
    checked against the full-matrix signature unitary."""
    n = config.n
    session, pkg = signed_session(config)
    u = signature_matrix(session)
    m = pkg.message.amps
    accepted = []
    for letters in itertools.product("IXYZ", repeat=n):
        sigma = "".join(letters)
        out = pauli_forgery(session, pkg, sigma)
        s = pauli_string_matrix(sigma)
        want = min(abs(np.vdot(s @ m, u.conj().T @ s @ u @ m)) ** 2, 1.0)
        assert out.overlap_sq == pytest.approx(want, abs=1e-10)
        if out.accepted:
            accepted.append(sigma)
    return accepted


def cu_config(n: int, seed: int, mode: EulerMode, message: MessageSpec) -> RunConfig:
    return RunConfig(n=n, message=message, scheme=Scheme.CHAINED_CU, euler_mode=mode,
                     seed_keys=seed, seed_lambda=seed + 1)


def basis_message(n: int, seed: int) -> MessageSpec:
    return MessageSpec.classical(random_bits(n, np.random.default_rng([seed, n])))


class TestBasisStateMessage:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_diagonal_cu_accepts_every_pauli_string(self, n, seed):
        # A diagonal U maps sigma|x> to a phase times itself, for every sigma.
        config = cu_config(n, seed, EulerMode.DIAGONAL, basis_message(n, seed))
        assert len(accepted_strings(config)) == 4 ** n

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["basis", "product"])
    def test_general_cu_accepts_only_the_identity(self, n, seed, kind):
        message = (basis_message(n, seed) if kind == "basis"
                   else MessageSpec.random_product(n, np.random.default_rng([seed, n])))
        config = cu_config(n, seed, EulerMode.GENERAL, message)
        assert accepted_strings(config) == ["I" * n]


class TestCnotQubitZero:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_one_qubit_forgery_passes_on_keys_that_fix_qubit_zero(self, n):
        # derive_permutation lists the 0-bit positions first, so perm[0] == 0
        # whenever key bit 0 is 0, and for the all-ones key. Qubit 0 then has
        # no chain gate and any Pauli on it passes: Pr over keys is
        # 1/2 + 2^-n for every one-qubit forgery on qubit 0.
        message = MessageSpec.random_product(n, np.random.default_rng([10, n]))
        all_keys = ["".join(bits) for bits in itertools.product("01", repeat=n)]
        passed = {letter: [] for letter in "XYZ"}
        for key in all_keys:
            config = RunConfig(n=n, message=message, scheme=Scheme.CHAINED_CNOT,
                               inject_key_bits=key)
            session, pkg = signed_session(config)
            for letter in "XYZ":
                if pauli_forgery(session, pkg, letter + "I" * (n - 1)).accepted:
                    passed[letter].append(key)
        fixing = [key for key in all_keys if derive_permutation(key)[0] == 0]
        assert len(fixing) == 2 ** (n - 1) + 1
        assert passed == {letter: fixing for letter in "XYZ"}


# Every key at n = 2 and 3, and six at n = 4.
CNOT_KEYS = ([(n, "".join(bits)) for n in (2, 3)
              for bits in itertools.product("01", repeat=n)]
             + [(4, key) for key in ("0000", "1000", "0110", "1011", "0111", "1101")])


class TestCnotBasisMessage:
    """The cnot chain maps |x> to |Lx> for an invertible L over GF(2). On a
    basis message the arbiter compares |x + L^-1 a> with |x + a>, up to a
    phase, so sigma = X^a Z^b passes exactly when La = a, whatever b is."""

    @pytest.mark.parametrize("n,key", CNOT_KEYS)
    def test_forgery_passes_when_the_chain_fixes_its_x_part(self, n, key):
        message = basis_message(n, int(key, 2))
        config = RunConfig(n=n, message=message, scheme=Scheme.CHAINED_CNOT,
                           inject_key_bits=key)
        session, pkg = signed_session(config)
        chain = cnot_chain_matrix(n, derive_permutation(key))
        for letters in itertools.product("IXYZ", repeat=n):
            sigma = "".join(letters)
            # a is sigma's X part, qubit 0 first: the column of |a>, whose one
            # nonzero entry sits in row La.
            a = int("".join("1" if ch in "XY" else "0" for ch in sigma), 2)
            assert pauli_forgery(session, pkg, sigma).accepted == (chain[a, a] == 1)


class TestDiagonalUnitary:
    """A diagonal W = diag(e^{i theta_x}) commutes with the diagonal-mode U,
    so the pair (W|m>, W|S>) with the honest tag passes the arbiter for every
    message; the general-mode U does not commute with it."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mode", [EulerMode.DIAGONAL, EulerMode.GENERAL])
    def test_diagonal_unitary_forges_diagonal_mode_only(self, n, mode):
        for seed in range(10):
            rng = np.random.default_rng([13, n, seed])
            config = cu_config(n, seed, mode, MessageSpec.random_product(n, rng))
            session, pkg = signed_session(config)
            w = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 2 ** n))
            forged = SignaturePackage(
                signature=StateVector(n, w * pkg.signature.amps), tag=pkg.tag,
                message=StateVector(n, w * pkg.message.amps),
            )
            out = session.kgc_verify(session.verifier_forward(forged))
            assert out.accepted == (mode is EulerMode.DIAGONAL)
            # The arbiter compares U^dag W U|m> with W|m>.
            u, m = signature_matrix(session), pkg.message.amps
            want = min(abs(np.vdot(w * m, u.conj().T @ (w * (u @ m)))) ** 2, 1.0)
            assert out.overlap_sq == pytest.approx(want, abs=1e-10)


class TestReplayedTag:
    """The tag is H(K) of the identity key and travels in clear, so one read
    of it passes the hash gate in every session that reuses K. In diagonal
    mode U|x> is a phase times |x>, so the pair (|x>, |x>) then passes the
    state compare too, with no signature of |x> and whatever the angles."""

    @staticmethod
    def replay(n: int, key: str, seed: int, mode: EulerMode, x: int):
        message = MessageSpec.random_product(n, np.random.default_rng([seed, n]))
        config = RunConfig(n=n, message=message, scheme=Scheme.CHAINED_CU,
                           euler_mode=mode, inject_key_bits=key,
                           seed_lambda=seed)
        session = registered_session(config)
        chosen = basis_state(n, x)
        pkg = SignaturePackage(message=chosen, signature=chosen,
                               tag=tag_of_bits(key))
        return session, session.kgc_verify(session.verifier_forward(pkg))

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    @pytest.mark.parametrize("mode", [EulerMode.DIAGONAL, EulerMode.GENERAL])
    def test_replayed_tag_forges_diagonal_mode_only(self, n, mode):
        rng = np.random.default_rng([12, n])
        keys = [random_bits(n, rng) for _ in range(3)] + ["1" * n]
        for k, key in enumerate(keys):
            for x in rng.choice(2 ** n, size=min(4, 2 ** n), replace=False):
                session, out = self.replay(n, key, 100 * n + k, mode, int(x))
                assert out.stage == "state-compare"  # the tag alone passes the gate
                assert out.accepted == (mode is EulerMode.DIAGONAL)
                if n <= 4:
                    # The arbiter compares U^dag|x> with |x>: |<x|U|x>|^2.
                    want = min(abs(signature_matrix(session)[x, x]) ** 2, 1.0)
                    assert out.overlap_sq == pytest.approx(want, abs=1e-10)


class TestUnchainedQubitWindow:
    """A qubit the chain leaves alone (perm[j] = j) gets only the diagonal
    signing rotation diag(1, e^{i lambda_j}): I at lambda_j = 0 and Z at pi,
    which both map X and Y to themselves up to sign. For sigma = YI, qubit 0
    unchained and p = |beta_0|^2, the forged overlap is exactly
    1 - 4 p (1 - p) sin^2(lambda_0), so the exact threshold lets the forgery
    through when sin^2(lambda_0) <= 1e-9 / (4 p (1 - p))."""

    P = 0.3
    DECISIONS = [(1e-6, True), (math.pi - 1e-6, True), (1e-4, False),
                 (1e-3, False), (math.pi - 1e-3, False), (1.0, False)]

    def forge(self, key: str, lam0: float):
        message = MessageSpec.product([(math.sqrt(1 - self.P), math.sqrt(self.P)),
                                       (0.6, 0.8j)])
        config = RunConfig(n=2, message=message, scheme=Scheme.CHAINED_CU,
                           euler_mode=EulerMode.DIAGONAL, inject_key_bits=key,
                           inject_lambdas=(lam0, 0.7))
        session, pkg = signed_session(config)
        return session, pkg, pauli_forgery(session, pkg, "YI")

    @pytest.mark.parametrize("key", ["00", "01"])
    @pytest.mark.parametrize("lam0, accepted", DECISIONS)
    def test_unchained_qubit_follows_the_closed_form(self, key, lam0, accepted):
        assert derive_permutation(key) == (0, 1)
        _, _, out = self.forge(key, lam0)
        want = 1 - 4 * self.P * (1 - self.P) * math.sin(lam0) ** 2
        assert out.overlap_sq == pytest.approx(want, rel=0, abs=1e-14)
        assert out.accepted == (want >= EXACT_ACCEPT_THRESHOLD) == accepted

    @pytest.mark.parametrize("lam0", [lam0 for lam0, _ in DECISIONS])
    def test_chained_qubit_matches_the_full_matrix(self, lam0):
        assert derive_permutation("10") == (1, 0)
        session, pkg, out = self.forge("10", lam0)
        u, m, s = signature_matrix(session), pkg.message.amps, pauli_string_matrix("YI")
        want = min(abs(np.vdot(s @ m, u.conj().T @ s @ u @ m)) ** 2, 1.0)
        assert out.overlap_sq == pytest.approx(want, abs=1e-10)
        assert out.accepted == (want >= EXACT_ACCEPT_THRESHOLD)
