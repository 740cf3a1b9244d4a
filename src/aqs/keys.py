"""Classical key material: bit strings, permutation derivation, hash tags.

Bit strings are plain ``str`` of '0'/'1', indexed left to right. Hashing is
SHAKE-256; bit strings are first packed big-endian behind an 8-byte length
prefix so inputs of different lengths can never collide via padding.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections.abc import Callable

import numpy as np

from .errors import AqsError, ConfigError

# Phase angles are drawn from [0, pi]; the signing rotation only needs half a turn.
LAMBDA_MAX = math.pi


# Deletes '0' and '1', so a bit string translates to "".
_NOT_BITS = str.maketrans("", "", "01")


def _check_bits(bits: str, name: str = "bits") -> str:
    # Runs before any int(bits, 2), which also accepts "0_1" and " 01".
    if not bits or bits.translate(_NOT_BITS):
        raise ConfigError(f"{name} must be a nonempty string of 0s and 1s, got {bits!r}")
    return bits


def random_bits(length: int, rng: np.random.Generator) -> str:
    """Uniform bit string of the given length."""
    if length < 1:
        raise ConfigError(f"length must be positive, got {length}")
    draw = rng.integers(0, 2, size=length)
    return (draw.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def xor_bits(a: str, b: str) -> str:
    """Bitwise XOR of two equal-length bit strings."""
    _check_bits(a, "a")
    _check_bits(b, "b")
    if len(a) != len(b):
        raise ConfigError(
            f"xor needs equal lengths, got {len(a)} and {len(b)}"
        )
    return format(int(a, 2) ^ int(b, 2), f"0{len(a)}b")


def derive_permutation(bits: str) -> tuple[int, ...]:
    """Permutation from a bit string: 0-bit positions ascending, then 1-bit.

    '1010' gives (1, 3, 0, 2); entries index qubits directly.
    """
    _check_bits(bits)
    zeros = [i for i, ch in enumerate(bits) if ch == "0"]
    ones = [i for i, ch in enumerate(bits) if ch == "1"]
    return tuple(zeros + ones)


def _packer(length: int) -> Callable[[int], bytes]:
    # The packing of an int read as a ``length``-bit string; the prefix is built once.
    prefix, shift, size = length.to_bytes(8, "big"), -length % 8, (length + 7) // 8

    def pack(value: int) -> bytes:
        return prefix + (value << shift).to_bytes(size, "big")

    return pack


def pack_bits(bits: str) -> bytes:
    """Canonical byte packing: 8-byte big-endian bit count, then MSB-first bits."""
    _check_bits(bits)
    return _packer(len(bits))(int(bits, 2))


@functools.lru_cache(maxsize=64)
def _tagger(length: int, out_bits: int) -> Callable[[int], int]:
    """:func:`tag_of_bits` on ints: maps ``value``, read as a ``length``-bit
    string, to its ``out_bits``-bit tag as an int. Built once per
    ``(length, out_bits)`` and kept; callers check the arguments."""
    pack, shake = _packer(length), hashlib.shake_256
    size, drop = (out_bits + 7) // 8, -out_bits % 8

    def tag(value: int) -> int:
        return int.from_bytes(shake(pack(value)).digest(size), "big") >> drop

    return tag


def tag_of_bits(bits: str, out_bits: int | None = None) -> str:
    """Tag of a bit string via the canonical packing; defaults to same length."""
    _check_bits(bits)
    n = len(bits) if out_bits is None else int(out_bits)
    if n < 1:
        raise ConfigError(f"tag length must be positive, got {n}")
    return format(_tagger(len(bits), n)(int(bits, 2)), f"0{n}b")


def chained_tag(key_bits: str, blind_bits: str) -> str:
    """Two-level tag H(H(key) xor blind), the form the arbiter recomputes."""
    inner = tag_of_bits(key_bits)
    return tag_of_bits(xor_bits(inner, blind_bits))


def sample_lambda(count: int, rng: np.random.Generator) -> tuple[float, ...]:
    """Independent signing angles, uniform over [0, pi]."""
    if count < 1:
        raise ConfigError(f"count must be positive, got {count}")
    return tuple(rng.uniform(0.0, LAMBDA_MAX, size=count).tolist())


# -- trusted-delivery bookkeeping -------------------------------------------------

class DeliveryLedger:
    """Append-only record of the KGC's trusted deliveries, one per (receiver, purpose)."""

    def __init__(self) -> None:
        self._bits: dict[tuple[str, str], str] = {}

    def distribute(self, receiver: str, purpose: str, bits: str) -> None:
        _check_bits(bits, purpose)
        slot = (receiver, purpose)
        if slot in self._bits:
            raise AqsError(f"{purpose!r} already delivered to {receiver!r}")
        self._bits[slot] = bits

    def lookup(self, receiver: str, purpose: str) -> str:
        """Bits delivered to ``receiver`` for ``purpose``."""
        bits = self._bits.get((receiver, purpose))
        if bits is None:
            raise AqsError(
                f"no secret {purpose!r} on record for party {receiver!r}"
            )
        return bits
