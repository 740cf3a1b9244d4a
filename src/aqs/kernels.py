"""Hot statevector kernels: single-qubit and controlled gates, in numpy.

Both kernels view the amplitude array through a reshape whose size-2 axes
are the selected bits, so each gate is a few whole-array numpy expressions
and no index array is built. They are checked against explicit
Kronecker-product matrices in the test suite. All kernels mutate ``amps``
in place; callers own the copy, which must be a contiguous 1-D array.

Index convention: qubit 0 is the most significant bit of the basis label, so
qubit ``q`` of an ``n``-qubit register corresponds to the bit mask
``1 << (n - 1 - q)``.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


def apply_single_inplace(amps: np.ndarray, mask: int, gate: np.ndarray) -> None:
    """Apply ``gate`` to the qubit selected by ``mask``, mutating ``amps``."""
    u00, u01 = complex(gate[0, 0]), complex(gate[0, 1])
    u10, u11 = complex(gate[1, 0]), complex(gate[1, 1])
    dim = amps.shape[0]
    # Axis layout (blocks, 2, mask): the middle axis is the selected bit.
    view = amps.reshape(dim // (2 * mask), 2, mask)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = u00 * a0 + u01 * a1
    view[:, 1, :] = u10 * a0 + u11 * a1


def apply_controlled_inplace(amps: np.ndarray, cmask: int, tmask: int,
                             gate: np.ndarray) -> None:
    """Apply controlled-``gate`` with the given bit masks, mutating ``amps``.

    Only the control = 1 half of the amplitudes is read or written.
    """
    u00, u01 = complex(gate[0, 0]), complex(gate[0, 1])
    u10, u11 = complex(gate[1, 0]), complex(gate[1, 1])
    dim = amps.shape[0]
    high, low = max(cmask, tmask), min(cmask, tmask)
    # Axis layout (blocks, 2, middle, 2, low): axes 1 and 3 are the higher
    # and the lower selected bit.
    view = amps.reshape(dim // (2 * high), 2, high // (2 * low), 2, low)
    if cmask == high:
        on = view[:, 1]  # (blocks, middle, 2, low): target is axis 2
        t0, t1 = on[:, :, 0], on[:, :, 1]
    else:
        on = view[:, :, :, 1]  # (blocks, 2, middle, low): target is axis 1
        t0, t1 = on[:, 0], on[:, 1]
    a0 = t0.copy()
    t0[...] = u00 * a0 + u01 * t1
    t1[...] = u10 * a0 + u11 * t1
