"""Hot statevector kernels: single-qubit, controlled and block gates, in numpy.

The single-qubit and controlled kernels view the amplitude array through a
reshape whose size-2 axes are the selected bits, so each gate is a few
whole-array numpy expressions and no index array is built. They are checked
against explicit Kronecker-product matrices in the test suite. All kernels
mutate ``amps`` in place; callers own the copy, which must be a contiguous
1-D array.

A gate ``[[u00, u01], [u10, u11]]`` takes one of three paths, chosen by
:func:`_path` from exact zeros and ones among its entries:

* diagonal (``u01 == u10 == 0``): each half whose entry is not exactly 1 is
  multiplied by it, and a half whose entry is 1 is not touched. The paper's
  diagonal gates diag(1, e^{i lambda}) touch only the target = 1 half, Z too;
* anti-diagonal (``u00 == u11 == 0``): the halves are swapped, each scaled
  only where its entry is not 1. This covers X and Y;
* anything else: the full 2x2 update.

The structured paths compute the same products as the full update, scalar
first, so every nonzero real or imaginary part keeps its bytes; they only skip
adding the exact zeros ``0 * a``, which can change the sign of a zero part.
:func:`aqs.qstate.apply_ops` reads each gate's entries and picks its path
once, then hands both to the kernel.

Full single-qubit gates on adjacent qubits can also be applied together.
:func:`apply_block_inplace` builds the Kronecker product of ``k`` such gates,
a ``2**k x 2**k`` matrix, and applies it as one ``matmul`` over the
amplitudes viewed as ``(rows, 2**k, mask)``: a 2-D product when the block
holds the last qubits, a batched one otherwise.
:func:`aqs.qstate.apply_ops` groups runs of gates whose path is ``FULL``
into such blocks, so diagonal and anti-diagonal gates are never fused and keep
the bytes of their own paths.

Index convention: qubit 0 is the most significant bit of the basis label, so
qubit ``q`` of an ``n``-qubit register corresponds to the bit mask
``1 << (n - 1 - q)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def active_backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


DIAGONAL, ANTI_DIAGONAL, FULL = "diagonal", "anti-diagonal", "full"


def _path(entries: list[list[complex]]) -> str:
    """Which update a gate with these 2x2 entries takes."""
    (u00, u01), (u10, u11) = entries
    if u01 == 0 and u10 == 0:
        return DIAGONAL
    if u00 == 0 and u11 == 0:
        return ANTI_DIAGONAL
    return FULL


def _update(a0: np.ndarray, a1: np.ndarray, entries: list[list[complex]],
            path: str) -> None:
    """Apply a gate to the pair of halves ``(a0, a1)``, two views of one array."""
    (u00, u01), (u10, u11) = entries
    # Products are written ``u * a`` into a fresh array, as the full update
    # does: ``a * u`` and ``np.multiply(u, a, out=a)`` on one element round
    # differently.
    if path == DIAGONAL:
        if u00 != 1:
            a0[...] = u00 * a0
        if u11 != 1:
            a1[...] = u11 * a1
    elif path == ANTI_DIAGONAL:
        old0 = a0.copy()
        a0[...] = a1 if u01 == 1 else u01 * a1
        a1[...] = old0 if u10 == 1 else u10 * old0
    else:
        old0 = a0.copy()
        a0[...] = u00 * old0 + u01 * a1
        a1[...] = u10 * old0 + u11 * a1


def apply_single_inplace(amps: np.ndarray, mask: int, entries: list[list[complex]],
                         path: str) -> None:
    """Apply a gate to the qubit selected by ``mask``, mutating ``amps``.

    ``entries`` is the 2x2 gate as nested lists, ``gate.tolist()``, and
    ``path`` is :func:`_path` of them.
    """
    dim = amps.shape[0]
    # Axis layout (blocks, 2, mask): the middle axis is the selected bit.
    view = amps.reshape(dim // (2 * mask), 2, mask)
    _update(view[:, 0, :], view[:, 1, :], entries, path)


def apply_controlled_inplace(amps: np.ndarray, cmask: int, tmask: int,
                             entries: list[list[complex]], path: str) -> None:
    """Apply a controlled gate with the given bit masks, mutating ``amps``;
    ``entries`` and ``path`` are as in :func:`apply_single_inplace`.

    Only the control = 1 half of the amplitudes is read or written; a
    diagonal gate touches only the control = 1, target = 1 quarter.
    """
    dim = amps.shape[0]
    high, low = max(cmask, tmask), min(cmask, tmask)
    # Axis layout (blocks, 2, middle, 2, low): axes 1 and 3 are the higher
    # and the lower selected bit.
    view = amps.reshape(dim // (2 * high), 2, high // (2 * low), 2, low)
    # Each half is one index into the view: control fixed at 1, target at 0 or 1.
    if cmask == high:
        _update(view[:, 1, :, 0], view[:, 1, :, 1], entries, path)
    else:
        _update(view[:, 0, :, 1], view[:, 1, :, 1], entries, path)


def apply_block_inplace(amps: np.ndarray, mask: int,
                        gates: Sequence[np.ndarray]) -> None:
    """Apply one 2x2 gate to each of ``len(gates)`` adjacent qubits at once,
    mutating ``amps``.

    ``gates[0]`` acts on the most significant qubit of the block and
    ``gates[-1]`` on the qubit selected by ``mask``. The gates act on
    distinct qubits, so their order of application does not matter.
    """
    # The Kronecker product as a reshaped outer product: np.kron gives the
    # same entries several times slower.
    block = np.asarray(gates[0])
    for gate in gates[1:]:
        d = block.shape[0]
        block = (block[:, None, :, None] * gate[None, :, None, :]).reshape(2 * d, 2 * d)
    d = block.shape[0]
    rows = amps.shape[0] // (d * mask)
    # A batched matmul over a (rows, d, 1) view would run ``rows`` tiny
    # products, so the block at the low end takes one 2-D product.
    if mask == 1:
        view = amps.reshape(rows, d)
        view[...] = view @ block.T
    else:
        view = amps.reshape(rows, d, mask)
        view[...] = block @ view
