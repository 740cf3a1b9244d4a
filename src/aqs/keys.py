"""Classical key material: bit strings, permutation derivation, hash tags.

Bit strings are plain ``str`` of '0'/'1', indexed left to right. Hashing is
SHAKE-256; bit strings are first packed big-endian behind an 8-byte length
prefix so inputs of different lengths can never collide via padding.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

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


def pack_bits(bits: str) -> bytes:
    """Canonical byte packing: 8-byte big-endian bit count, then MSB-first bits."""
    _check_bits(bits)
    length = len(bits)
    body = (int(bits, 2) << (-length % 8)).to_bytes((length + 7) // 8, "big")
    return length.to_bytes(8, "big") + body


def hash_tag(data: bytes, n: int) -> str:
    """n-bit tag: SHAKE-256 of ``data``, truncated to the first n bits."""
    if n < 1:
        raise ConfigError(f"tag length must be positive, got {n}")
    digest = hashlib.shake_256(data).digest((n + 7) // 8)
    return format(int.from_bytes(digest, "big") >> (-n % 8), f"0{n}b")


def tag_of_bits(bits: str, out_bits: int | None = None) -> str:
    """Tag of a bit string via the canonical packing; defaults to same length."""
    _check_bits(bits)
    n = len(bits) if out_bits is None else int(out_bits)
    return hash_tag(pack_bits(bits), n)


def chained_tag(key_bits: str, blind_bits: str) -> str:
    """Two-level tag H(H(key) xor blind), the form the arbiter recomputes."""
    inner = tag_of_bits(key_bits)
    return tag_of_bits(xor_bits(inner, blind_bits))


def sample_lambda(count: int, rng: np.random.Generator) -> tuple[float, ...]:
    """Independent signing angles, uniform over [0, pi]."""
    if count < 1:
        raise ConfigError(f"count must be positive, got {count}")
    return tuple(float(x) for x in rng.uniform(0.0, LAMBDA_MAX, size=count))


# -- trusted-delivery bookkeeping -------------------------------------------------

@dataclass(frozen=True)
class KeyDeliveryRecord:
    """One secret moved over a trusted channel, recorded exactly once."""

    sender: str
    receiver: str
    purpose: str
    bits: str


class DeliveryLedger:
    """Append-only record of trusted deliveries, one per (sender, receiver, purpose)."""

    def __init__(self) -> None:
        self._records: dict[tuple[str, str, str], KeyDeliveryRecord] = {}

    def distribute(self, sender: str, receiver: str, purpose: str,
                   bits: str) -> KeyDeliveryRecord:
        _check_bits(bits, purpose)
        slot = (sender, receiver, purpose)
        if slot in self._records:
            raise AqsError(
                f"{purpose!r} already delivered from {sender!r} to {receiver!r}"
            )
        record = KeyDeliveryRecord(
            sender=sender, receiver=receiver, purpose=purpose, bits=bits
        )
        self._records[slot] = record
        return record

    def lookup(self, receiver: str, purpose: str) -> str:
        """Bits delivered to ``receiver`` for ``purpose``; exactly one sender may match."""
        found = [record for (_, rcv, purp), record in self._records.items()
                 if rcv == receiver and purp == purpose]
        if not found:
            raise AqsError(
                f"no secret {purpose!r} on record for party {receiver!r}"
            )
        if len(found) > 1:
            senders = ", ".join(repr(record.sender) for record in found)
            raise AqsError(
                f"{purpose!r} reached {receiver!r} from {senders}; lookup is ambiguous"
            )
        return found[0].bits

    def records(self) -> tuple[KeyDeliveryRecord, ...]:
        return tuple(self._records.values())
