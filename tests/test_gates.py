"""Single-qubit gate constructors."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aqs import gates
from aqs.errors import NotUnitaryError

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
        with pytest.raises(ValueError):
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
        with pytest.raises(NotUnitaryError):
            gates.adjoint(np.array([[1.0, 0.0], [0.0, 2.0]]))


class TestIsUnitary:
    def test_accepts_rotations(self):
        assert gates.is_unitary(gates.u_gate(0.3, 0.9, 1.4))

    def test_rejects_scaled(self):
        assert not gates.is_unitary(2 * np.eye(2))

    def test_rejects_wrong_shape(self):
        assert not gates.is_unitary(np.eye(3))
