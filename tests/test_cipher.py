"""Encryption schemes: context validation, roundtrips and matrix-oracle checks."""

import dataclasses
import math

import numpy as np
import pytest

from aqs import gates
from aqs.cipher import (
    EncryptionContext,
    EulerMode,
    Scheme,
    decrypt,
    encrypt,
    encryption_ops,
    inverse_ops,
    make_signature,
    run,
    sign_layer,
    signature_ops,
    unsign_layer,
)
from aqs.errors import ConfigError
from aqs.keys import derive_permutation, random_bits, sample_lambda
from aqs.qstate import StateVector, basis_state, distribution, overlap_sq

from oracles import (
    chained_cu_matrix,
    cnot_chain_matrix,
    local_layer_matrix,
    qotp_matrix,
    random_state,
)

DEMO_LAMBDAS = (math.pi / 3, math.pi / 4, math.pi / 6, math.pi / 8)
DEMO_PERM = derive_permutation("1010")


def make_state(n: int, seed: int) -> StateVector:
    return StateVector(n, random_state(n, np.random.default_rng(seed)))


def recover(signature: StateVector, ctx: EncryptionContext) -> StateVector:
    """The arbiter's inverse of make_signature."""
    return run(signature, ctx, inverse_ops(signature_ops(ctx)))


def gate_events(circuit) -> list[tuple[str, tuple[int, ...]]]:
    return [(name, qubits) for name, qubits, _ in circuit]


def cu_ctx(n: int, seed: int, mode: EulerMode = EulerMode.DIAGONAL) -> EncryptionContext:
    rng = np.random.default_rng(seed)
    perm = derive_permutation(random_bits(n, rng))
    lambdas = sample_lambda(n, rng)
    if mode is EulerMode.DIAGONAL:
        return EncryptionContext(Scheme.CHAINED_CU, n, perm=perm, lambdas=lambdas)
    return EncryptionContext(
        Scheme.CHAINED_CU, n, perm=perm, lambdas=lambdas,
        thetas=tuple(rng.uniform(0, math.pi, n)),
        phis=tuple(rng.uniform(0, 2 * math.pi, n)),
        euler_mode=EulerMode.GENERAL,
    )


class TestContextValidation:
    def test_cu_requires_perm_and_lambdas(self):
        with pytest.raises(ConfigError):
            EncryptionContext(Scheme.CHAINED_CU, 4, lambdas=(0.1,) * 4)
        with pytest.raises(ConfigError):
            EncryptionContext(Scheme.CHAINED_CU, 4, perm=DEMO_PERM)

    def test_perm_must_be_permutation(self):
        with pytest.raises(ConfigError):
            EncryptionContext(
                Scheme.CHAINED_CU, 4, perm=(0, 0, 1, 2), lambdas=(0.1,) * 4
            )

    def test_lambda_length_checked(self):
        with pytest.raises(ConfigError, match=r"lambdas must have 4 entries, got 2"):
            EncryptionContext(
                Scheme.CHAINED_CU, 4, perm=DEMO_PERM, lambdas=(0.1, 0.2)
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_angles_finite(self, bad):
        with pytest.raises(ConfigError, match=r"lambdas must be finite"):
            EncryptionContext(
                Scheme.CHAINED_CU, 4, perm=DEMO_PERM, lambdas=(0.1, bad, 0.1, 0.1)
            )
        with pytest.raises(ConfigError, match=r"thetas must be finite"):
            EncryptionContext(
                Scheme.CHAINED_CU, 4, perm=DEMO_PERM, lambdas=DEMO_LAMBDAS,
                thetas=(bad, 0.1, 0.1, 0.1), phis=(0.1,) * 4,
                euler_mode=EulerMode.GENERAL,
            )

    def test_diagonal_mode_pins_theta_phi(self):
        ctx = EncryptionContext(
            Scheme.CHAINED_CU, 4, perm=DEMO_PERM, lambdas=DEMO_LAMBDAS
        )
        assert ctx.thetas == (0.0,) * 4 and ctx.phis == (0.0,) * 4
        with pytest.raises(ConfigError, match=r"diagonal mode fixes theta = phi = 0"):
            EncryptionContext(
                Scheme.CHAINED_CU, 4, perm=DEMO_PERM, lambdas=DEMO_LAMBDAS,
                thetas=(0.1,) * 4,
            )
        with pytest.raises(ConfigError, match=r"diagonal mode fixes theta = phi = 0"):
            EncryptionContext(
                Scheme.CHAINED_CU, 4, perm=DEMO_PERM, lambdas=DEMO_LAMBDAS,
                phis=(0.0, 0.0, 0.3, 0.0),
            )

    def test_diagonal_context_replace(self):
        ctx = EncryptionContext(
            Scheme.CHAINED_CU, 4, perm=DEMO_PERM, lambdas=DEMO_LAMBDAS
        )
        lams = (0.4, 0.3, 0.2, 0.1)
        swapped = dataclasses.replace(ctx, lambdas=lams)
        assert swapped == EncryptionContext(
            Scheme.CHAINED_CU, 4, perm=DEMO_PERM, lambdas=lams
        )
        with pytest.raises(ConfigError, match=r"diagonal mode fixes theta = phi = 0"):
            dataclasses.replace(ctx, thetas=(0.0, 0.1, 0.0, 0.0))

    def test_general_mode_requires_all_angles(self):
        with pytest.raises(ConfigError):
            EncryptionContext(
                Scheme.CHAINED_CU, 4, perm=DEMO_PERM, lambdas=DEMO_LAMBDAS,
                euler_mode=EulerMode.GENERAL,
            )

    def test_qotp_key_length(self):
        with pytest.raises(ConfigError):
            EncryptionContext(Scheme.QOTP, 4, qotp_key="1010")
        with pytest.raises(ConfigError):
            EncryptionContext(Scheme.QOTP, 4, qotp_key=None)
        EncryptionContext(Scheme.QOTP, 4, qotp_key="10100110")

    def test_bad_n(self):
        with pytest.raises(ConfigError):
            EncryptionContext(Scheme.QOTP, 0, qotp_key="")

    def test_string_values_coerced(self):
        ctx = EncryptionContext("cu", 4, perm=DEMO_PERM, lambdas=DEMO_LAMBDAS,
                                euler_mode="diagonal")
        assert ctx.scheme is Scheme.CHAINED_CU
        assert ctx.euler_mode is EulerMode.DIAGONAL

    def test_rotation_only_for_cu(self):
        ctx = EncryptionContext(Scheme.QOTP, 2, qotp_key="1010")
        with pytest.raises(ConfigError):
            ctx.rotation(0)


class TestRoundtrips:
    @pytest.mark.parametrize("seed", range(5))
    def test_cu_diagonal(self, seed):
        ctx = cu_ctx(4, seed)
        s = make_state(4, 50 + seed)
        assert overlap_sq(decrypt(encrypt(s, ctx), ctx), s) >= 1 - 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_cu_general(self, seed):
        ctx = cu_ctx(4, seed, EulerMode.GENERAL)
        s = make_state(4, 60 + seed)
        assert overlap_sq(decrypt(encrypt(s, ctx), ctx), s) >= 1 - 1e-10

    def test_cnot(self):
        ctx = EncryptionContext(Scheme.CHAINED_CNOT, 4, perm=DEMO_PERM)
        s = make_state(4, 70)
        assert overlap_sq(decrypt(encrypt(s, ctx), ctx), s) >= 1 - 1e-10

    def test_qotp(self):
        ctx = EncryptionContext(Scheme.QOTP, 4, qotp_key="10011100")
        s = make_state(4, 71)
        assert overlap_sq(decrypt(encrypt(s, ctx), ctx), s) >= 1 - 1e-10

    @pytest.mark.parametrize("mode", [EulerMode.DIAGONAL, EulerMode.GENERAL])
    def test_sign_unsign(self, mode):
        ctx = cu_ctx(3, 9, mode)
        s = make_state(3, 72)
        assert overlap_sq(unsign_layer(sign_layer(s, ctx), ctx), s) >= 1 - 1e-10

    @pytest.mark.parametrize("scheme,key", [
        (Scheme.CHAINED_CU, None),
        (Scheme.CHAINED_CNOT, None),
        (Scheme.QOTP, "011010"),
    ])
    def test_signature_recovery(self, scheme, key):
        if scheme is Scheme.CHAINED_CU:
            ctx = cu_ctx(3, 31)
        elif scheme is Scheme.CHAINED_CNOT:
            ctx = EncryptionContext(scheme, 3, perm=(1, 2, 0))
        else:
            ctx = EncryptionContext(scheme, 3, qotp_key=key)
        s = make_state(3, 73)
        assert overlap_sq(recover(make_signature(s, ctx), ctx), s) >= 1 - 1e-10

    def test_size_mismatch(self):
        ctx = cu_ctx(3, 1)
        with pytest.raises(ConfigError, match=r"context is for n=3, state has n=2"):
            encrypt(make_state(2, 0), ctx)
        with pytest.raises(ConfigError, match=r"context is for n=3, state has n=4"):
            decrypt(make_state(4, 0), ctx)
        with pytest.raises(ConfigError, match=r"context is for n=3, state has n=4"):
            run(make_state(4, 0), ctx, [])


class TestAgainstMatrixOracle:
    def test_cu_encrypt_matches_oracle(self):
        for seed in range(4):
            for mode in (EulerMode.DIAGONAL, EulerMode.GENERAL):
                ctx = cu_ctx(3, 200 + seed, mode)
                rotations = [ctx.rotation(j) for j in range(3)]
                full = chained_cu_matrix(3, ctx.perm, rotations)
                s = make_state(3, 300 + seed)
                got = encrypt(s, ctx)
                np.testing.assert_allclose(got.amps, full @ s.amps, atol=1e-12)

    def test_cu_decrypt_is_adjoint(self):
        ctx = cu_ctx(3, 8, EulerMode.GENERAL)
        rotations = [ctx.rotation(j) for j in range(3)]
        full = chained_cu_matrix(3, ctx.perm, rotations)
        s = make_state(3, 80)
        got = decrypt(s, ctx)
        np.testing.assert_allclose(got.amps, full.conj().T @ s.amps, atol=1e-12)

    def test_sign_layer_matches_oracle(self):
        ctx = cu_ctx(3, 12, EulerMode.GENERAL)
        layer = local_layer_matrix(3, [ctx.rotation(j) for j in range(3)])
        s = make_state(3, 81)
        got = sign_layer(s, ctx)
        np.testing.assert_allclose(got.amps, layer @ s.amps, atol=1e-12)

    def test_signature_matches_composed_oracle(self):
        ctx = cu_ctx(3, 13, EulerMode.GENERAL)
        rotations = [ctx.rotation(j) for j in range(3)]
        full = local_layer_matrix(3, rotations) @ chained_cu_matrix(
            3, ctx.perm, rotations
        )
        s = make_state(3, 82)
        got = make_signature(s, ctx)
        np.testing.assert_allclose(got.amps, full @ s.amps, atol=1e-12)

    def test_cnot_matches_oracle(self):
        perm = (2, 0, 1)
        ctx = EncryptionContext(Scheme.CHAINED_CNOT, 3, perm=perm)
        s = make_state(3, 83)
        got = encrypt(s, ctx)
        np.testing.assert_allclose(
            got.amps, cnot_chain_matrix(3, perm) @ s.amps, atol=1e-12
        )

    def test_qotp_matches_oracle(self):
        key = "100111"
        ctx = EncryptionContext(Scheme.QOTP, 3, qotp_key=key)
        s = make_state(3, 84)
        got = encrypt(s, ctx)
        np.testing.assert_allclose(
            got.amps, qotp_matrix(3, key) @ s.amps, atol=1e-12
        )


class TestGateAccounting:
    def test_demo_gate_order(self):
        # Key 1010 chains (0,1), (1,3), (2,0), (3,2); no fixed points.
        ctx = EncryptionContext(
            Scheme.CHAINED_CU, 4, perm=DEMO_PERM, lambdas=DEMO_LAMBDAS
        )
        assert gate_events(encryption_ops(ctx)) == [
            ("cu", (0, 1)), ("cu", (1, 3)), ("cu", (2, 0)), ("cu", (3, 2)),
        ]

    def test_decrypt_reverses_order(self):
        ctx = EncryptionContext(
            Scheme.CHAINED_CU, 4, perm=DEMO_PERM, lambdas=DEMO_LAMBDAS
        )
        assert gate_events(inverse_ops(encryption_ops(ctx))) == [
            ("cu_adjoint", (3, 2)), ("cu_adjoint", (2, 0)),
            ("cu_adjoint", (1, 3)), ("cu_adjoint", (0, 1)),
        ]
        # Every scheme recovers by the signature's ops reversed, adjoint-renamed,
        # each matrix replaced by its conjugate transpose.
        adjoint_name = {"cu": "cu_adjoint", "u": "u_adjoint"}
        for ctx in (cu_ctx(4, 90), cu_ctx(4, 91, EulerMode.GENERAL),
                    EncryptionContext(Scheme.CHAINED_CNOT, 4, perm=(2, 0, 3, 1)),
                    EncryptionContext(Scheme.QOTP, 4, qotp_key="10011101")):
            signed = signature_ops(ctx)
            recovered = inverse_ops(signed)
            assert len(signed) >= 4
            assert gate_events(recovered) == [
                (adjoint_name.get(name, name), qubits)
                for name, qubits, _ in reversed(signed)
            ]
            for (_, _, gate), (_, _, inverse) in zip(reversed(signed), recovered):
                np.testing.assert_array_equal(inverse, gate.conj().T)

    def test_fixed_points_skipped(self):
        # Key 0101 maps slots 0 and 3 to themselves.
        perm = derive_permutation("0101")
        assert perm == (0, 2, 1, 3)
        ctx = EncryptionContext(
            Scheme.CHAINED_CU, 4, perm=perm, lambdas=DEMO_LAMBDAS
        )
        assert gate_events(encryption_ops(ctx)) == [("cu", (1, 2)), ("cu", (2, 1))]

    def test_all_fixed_points_is_identity(self):
        perm = derive_permutation("0000")
        ctx = EncryptionContext(
            Scheme.CHAINED_CU, 4, perm=perm, lambdas=DEMO_LAMBDAS
        )
        s = make_state(4, 85)
        assert encryption_ops(ctx) == []
        np.testing.assert_array_equal(encrypt(s, ctx).amps, s.amps)

    def test_signature_op_counts(self):
        ctx = cu_ctx(4, 14)
        names = [name for name, _, _ in signature_ops(ctx)]
        fixed = sum(1 for j, t in enumerate(ctx.perm) if j == t)
        assert names.count("cu") == 4 - fixed
        assert names.count("u") == 4
        names2 = [name for name, _, _ in inverse_ops(signature_ops(ctx))]
        assert names2.count("u_adjoint") == 4
        assert names2.count("cu_adjoint") == 4 - fixed

    def test_qotp_ops_follow_key(self):
        ctx = EncryptionContext(Scheme.QOTP, 2, qotp_key="1101")
        assert gate_events(encryption_ops(ctx)) == [
            ("z", (0,)), ("x", (0,)), ("x", (1,)),
        ]


class TestDiagonalInvariance:
    def test_diagonal_layers_preserve_distribution(self):
        # theta = phi = 0 makes every gate diagonal, so basis probabilities
        # cannot move under encrypt or sign.
        ctx = cu_ctx(4, 15)
        s = make_state(4, 86)
        sig = make_signature(s, ctx)
        np.testing.assert_allclose(
            distribution(sig), distribution(s), atol=1e-12
        )

    def test_general_layers_do_move_distribution(self):
        ctx = cu_ctx(4, 16, EulerMode.GENERAL)
        s = basis_state(4, "0110")
        sig = make_signature(s, ctx)
        assert np.abs(distribution(sig) - distribution(s)).max() > 1e-3

    def test_basis_message_signature_phase_only(self):
        # On a basis state a diagonal signature is the same state up to phase.
        ctx = cu_ctx(4, 17)
        s = basis_state(4, "0110")
        sig = make_signature(s, ctx)
        assert overlap_sq(sig, s) == pytest.approx(1.0, abs=1e-12)
