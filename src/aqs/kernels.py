"""Hot statevector kernels: single-qubit and controlled gates, in numpy.

Both kernels view the amplitude array through a reshape whose size-2 axes
are the selected bits, so each gate is a few whole-array numpy expressions
and no index array is built. They are checked against explicit
Kronecker-product matrices in the test suite. All kernels mutate ``amps``
in place; callers own the copy, which must be a contiguous 1-D array.

A gate ``[[u00, u01], [u10, u11]]`` takes one of three paths, chosen from
exact zeros and ones among its entries:

* diagonal (``u01 == u10 == 0``): each half whose entry is not exactly 1 is
  multiplied by it, and a half whose entry is 1 is not touched. The paper's
  diagonal gates diag(1, e^{i lambda}) touch only the target = 1 half, Z too;
* anti-diagonal (``u00 == u11 == 0``): the halves are swapped, each scaled
  only where its entry is not 1. This covers X and Y;
* anything else: the full 2x2 update.

The structured paths compute the same products as the full update, scalar
first, so every nonzero real or imaginary part keeps its bytes; they only skip
adding the exact zeros ``0 * a``, which can change the sign of a zero part.

Index convention: qubit 0 is the most significant bit of the basis label, so
qubit ``q`` of an ``n``-qubit register corresponds to the bit mask
``1 << (n - 1 - q)``.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


def _update(a0: np.ndarray, a1: np.ndarray, gate: np.ndarray) -> None:
    """Apply ``gate`` to the pair of halves ``(a0, a1)``, two views of one array."""
    (u00, u01), (u10, u11) = gate.tolist()
    # Products are written ``u * a`` into a fresh array, as the full update
    # does: ``a * u`` and ``np.multiply(u, a, out=a)`` on one element round
    # differently.
    if u01 == 0 and u10 == 0:
        if u00 != 1:
            a0[...] = u00 * a0
        if u11 != 1:
            a1[...] = u11 * a1
    elif u00 == 0 and u11 == 0:
        old0 = a0.copy()
        a0[...] = a1 if u01 == 1 else u01 * a1
        a1[...] = old0 if u10 == 1 else u10 * old0
    else:
        old0 = a0.copy()
        a0[...] = u00 * old0 + u01 * a1
        a1[...] = u10 * old0 + u11 * a1


def apply_single_inplace(amps: np.ndarray, mask: int, gate: np.ndarray) -> None:
    """Apply ``gate`` to the qubit selected by ``mask``, mutating ``amps``."""
    dim = amps.shape[0]
    # Axis layout (blocks, 2, mask): the middle axis is the selected bit.
    view = amps.reshape(dim // (2 * mask), 2, mask)
    _update(view[:, 0, :], view[:, 1, :], gate)


def apply_controlled_inplace(amps: np.ndarray, cmask: int, tmask: int,
                             gate: np.ndarray) -> None:
    """Apply controlled-``gate`` with the given bit masks, mutating ``amps``.

    Only the control = 1 half of the amplitudes is read or written; a
    diagonal gate touches only the control = 1, target = 1 quarter.
    """
    dim = amps.shape[0]
    high, low = max(cmask, tmask), min(cmask, tmask)
    # Axis layout (blocks, 2, middle, 2, low): axes 1 and 3 are the higher
    # and the lower selected bit.
    view = amps.reshape(dim // (2 * high), 2, high // (2 * low), 2, low)
    if cmask == high:
        on = view[:, 1]  # (blocks, middle, 2, low): target is axis 2
        _update(on[:, :, 0], on[:, :, 1], gate)
    else:
        on = view[:, :, :, 1]  # (blocks, 2, middle, low): target is axis 1
        _update(on[:, 0], on[:, 1], gate)
