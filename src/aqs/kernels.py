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

What a gate allocates: a kernel whose temporaries would hold at most
:data:`SLAB` amplitudes runs its expressions on the whole view. That covers
every register of at most :data:`SLAB` amplitudes, and single-qubit and
controlled gates on registers two and four times that size. Past that, a
kernel makes its temporaries one slab of :data:`SLAB` amplitudes at a time:
the copy of a half, each product and sum, and the block product, which is
taken over whole rows of the view or, for a wide ``mask``, over part of one
row's columns. :func:`_slabs` cuts a view into such boxes in memory order.
A gate therefore allocates a few slabs, never a state-sized buffer, and
works in cache. Every amplitude gets the same products and sums in the same
order, so the bytes are those of the whole-view expressions; the test suite
pins this across slab edges. It held for the elementwise paths in every
numerics class tried, numpy's X86_V2 baseline among them, and for the block
products under OpenBLAS's SkylakeX and Sandybridge kernels. Under its
Haswell kernel, the 2-D product and the column slabs round differently from
one whole product.

Index convention: qubit 0 is the most significant bit of the basis label, so
qubit ``q`` of an ``n``-qubit register corresponds to the bit mask
``1 << (n - 1 - q)``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np


def active_backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


# Amplitudes per slab: past this many, a kernel makes its temporaries (a copy
# of a half, each product and sum, a block product) one slab at a time. On 2
# cores with numpy 2.4.6 and one BLAS thread, a full single-qubit gate at
# n = 20 took 19.7 ms on whole halves and 5.8, 5.4, 5.1 and 7.0 ms in slabs of
# 2**12, 2**13, 2**14 and 2**15; a 4-qubit block 9.9 ms and 7.4, 6.5, 6.2 and
# 6.1 ms. At n = 16, 2**12 made blocks 10-15% slower than whole views. 2**14
# doubles the slabs a full update holds (four at once) for a few percent.
SLAB = 1 << 13

DIAGONAL, ANTI_DIAGONAL, FULL = "diagonal", "anti-diagonal", "full"


def _path(entries: list[list[complex]]) -> str:
    """Which update a gate with these 2x2 entries takes."""
    (u00, u01), (u10, u11) = entries
    if u01 == 0 and u10 == 0:
        return DIAGONAL
    if u00 == 0 and u11 == 0:
        return ANTI_DIAGONAL
    return FULL


def _slabs(shape: tuple[int, ...], size: int) -> Iterator[tuple[int | slice, ...]]:
    """Index tuples that cut an array of ``shape`` into boxes of ``size``
    elements each, in memory order, one entry per axis.

    Every side and ``size`` are powers of two, and ``size`` is less than the
    array's size.
    """
    axis, inner = len(shape) - 1, 1
    while inner * shape[axis] <= size:
        inner *= shape[axis]
        axis -= 1
    step = size // inner
    whole = (slice(None),) * (len(shape) - 1 - axis)
    for outer in itertools.product(*map(range, shape[:axis])):
        for start in range(0, shape[axis], step):
            yield outer + (slice(start, start + step),) + whole


def _update(a0: np.ndarray, a1: np.ndarray, entries: list[list[complex]],
            path: str) -> None:
    """Apply a gate to the pair of halves ``(a0, a1)``, two equal-shape views
    of one array; halves of more than ``SLAB`` amplitudes go slab by slab."""
    if a0.size > SLAB:
        for box in _slabs(a0.shape, SLAB):
            _update(a0[box], a1[box], entries, path)
        return
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
    # products, so the block at the low end takes one 2-D product. Past
    # ``SLAB`` amplitudes, each product is taken over one slab of the view:
    # whole rows, or for a wide ``mask`` part of the columns of one row.
    if mask == 1:
        view = amps.reshape(rows, d)
        if amps.shape[0] <= SLAB:
            view[...] = view @ block.T
            return
        for box in _slabs((rows,), SLAB // d):
            part = view[box]
            part[...] = part @ block.T
        return
    view = amps.reshape(rows, d, mask)
    if amps.shape[0] <= SLAB:
        view[...] = block @ view
        return
    for row, cols in _slabs((rows, mask), SLAB // d):
        part = view[row, :, cols]
        part[...] = block @ part
