"""The numpy kernels against full-matrix oracles."""

import numpy as np

from aqs import kernels
from aqs.gates import u_gate

from oracles import controlled_matrix, random_state, single_matrix


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
                    kernels.apply_single_inplace(amps, _mask(n, q), gate)
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
                        kernels.apply_controlled_inplace(
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
            kernels.apply_single_inplace(amps, _mask(n, q), gate)
            np.testing.assert_allclose(
                amps, single_matrix(n, q, gate) @ state, atol=1e-12
            )
            if n >= 2:
                c, t = rng.choice(n, size=2, replace=False)
                amps = state.copy()
                kernels.apply_controlled_inplace(
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
                    kernels.apply_controlled_inplace(
                        amps, _mask(n, c), _mask(n, t), gate
                    )
                    off = (np.arange(2 ** n) & _mask(n, c)) == 0
                    assert amps[off].tobytes() == state[off].tobytes()


class TestBackendSelection:
    def test_active_backend_reports_known_name(self):
        assert kernels.active_backend() == "numpy"
