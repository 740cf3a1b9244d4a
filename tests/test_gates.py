"""Single-qubit gate constructors."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aqs import gates
from aqs.errors import ConfigError

ANGLES = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


class TestUGate:
    def test_phase_gate_is_theta_phi_zero(self):
        for lam in (0.0, 0.3, math.pi / 3, math.pi, 2.9):
            np.testing.assert_allclose(
                gates.u_gate(0.0, 0.0, lam), np.diag([1.0, np.exp(1j * lam)]),
                atol=1e-15,
            )

    def test_pauli_special_cases(self):
        np.testing.assert_allclose(
            gates.u_gate(math.pi, 0.0, math.pi), gates.pauli_x(), atol=1e-15
        )
        np.testing.assert_allclose(
            gates.u_gate(0.0, 0.0, math.pi), gates.pauli_z(), atol=1e-15
        )

    def test_identity_case(self):
        np.testing.assert_allclose(
            gates.u_gate(0.0, 0.0, 0.0), np.eye(2), atol=1e-15
        )

    def test_matrix_entries(self):
        theta, phi, lam = 0.9, 0.4, 1.7
        g = gates.u_gate(theta, phi, lam)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        assert g[0, 0] == pytest.approx(c)
        assert g[0, 1] == pytest.approx(-np.exp(1j * lam) * s)
        assert g[1, 0] == pytest.approx(np.exp(1j * phi) * s)
        assert g[1, 1] == pytest.approx(np.exp(1j * (phi + lam)) * c)

    @given(theta=ANGLES, phi=ANGLES, lam=ANGLES)
    def test_always_unitary(self, theta, phi, lam):
        g = gates.u_gate(theta, phi, lam)
        np.testing.assert_allclose(g @ g.conj().T, np.eye(2), atol=1e-12)


class TestPauliLookup:
    @pytest.mark.parametrize("name,builder", [
        ("I", gates.identity_gate), ("X", gates.pauli_x),
        ("Y", gates.pauli_y), ("Z", gates.pauli_z),
    ])
    def test_by_letter(self, name, builder):
        np.testing.assert_array_equal(gates.pauli(name), builder())
        np.testing.assert_array_equal(gates.pauli(name.lower()), builder())

    def test_unknown_letter(self):
        with pytest.raises(ConfigError, match=r"unknown Pauli 'Q'"):
            gates.pauli("Q")

    def test_pauli_algebra(self):
        X, Y, Z = gates.pauli_x(), gates.pauli_y(), gates.pauli_z()
        np.testing.assert_allclose(X @ Y, 1j * Z, atol=1e-15)
        for P in (X, Y, Z):
            np.testing.assert_allclose(P @ P, np.eye(2), atol=1e-15)


class TestAdjoint:
    def test_inverts(self):
        g = gates.u_gate(1.1, 0.5, 2.2)
        np.testing.assert_allclose(g @ gates.adjoint(g), np.eye(2), atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ConfigError, match=r"adjoint requires a unitary 2x2 matrix"):
            gates.adjoint(np.array([[1.0, 0.0], [0.0, 2.0]]))


class TestIsUnitary:
    def test_accepts_rotations(self):
        assert gates.is_unitary(gates.u_gate(0.3, 0.9, 1.4))

    def test_rejects_scaled(self):
        assert not gates.is_unitary(2 * np.eye(2))

    def test_rejects_wrong_shape(self):
        assert not gates.is_unitary(np.eye(3))


def allclose_is_unitary(gate, atol: float = gates.UNITARITY_ATOL) -> bool:
    """The numpy form of the check: np.allclose(G @ G^dagger, I, atol=atol)."""
    gate = np.asarray(gate)
    if gate.shape != (2, 2):
        return False
    with np.errstate(all="ignore"):
        return bool(np.allclose(gate @ gate.conj().T, np.eye(2), atol=atol))


class TestIsUnitaryMatchesAllclose:
    @given(angles=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
    def test_rotations(self, angles):
        g = gates.u_gate(*angles)
        assert gates.is_unitary(g) == allclose_is_unitary(g) is True

    @pytest.mark.parametrize("scale, inside", [(0.99, True), (1.01, False)])
    def test_off_diagonal_bound_is_atol(self, scale, inside):
        g = np.eye(2, dtype=np.complex128)
        g[0, 1] = scale * gates.UNITARITY_ATOL
        assert allclose_is_unitary(g) is inside
        assert gates.is_unitary(g) is inside

    @pytest.mark.parametrize("scale, inside", [(0.99, True), (1.01, False)])
    def test_diagonal_bound_adds_default_rtol(self, scale, inside):
        # (G G^dagger)[0, 0] = 1 + delta with delta around atol + 1e-5.
        delta = scale * (gates.UNITARITY_ATOL + 1e-5)
        g = np.diag([math.sqrt(1.0 + delta), 1.0]).astype(np.complex128)
        assert allclose_is_unitary(g) is inside
        assert gates.is_unitary(g) is inside

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(0, math.nan), complex(math.inf, 1)])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_non_finite_entries(self, bad, at):
        g = np.eye(2, dtype=np.complex128)
        g[at] = bad
        assert gates.is_unitary(g) is allclose_is_unitary(g) is False

    @pytest.mark.parametrize("gate", [np.eye(3), np.ones(4), np.array([1.0, 0.0]),
                                      np.eye(2)[None]], ids=["3x3", "1d-4", "1d-2", "1x2x2"])
    def test_wrong_shapes(self, gate):
        assert gates.is_unitary(gate) is allclose_is_unitary(gate) is False
