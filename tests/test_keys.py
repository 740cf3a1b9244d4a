"""Bit-string utilities, permutation derivation, SHAKE tags and the delivery ledger.

The hash tests recompute every expectation with hashlib directly so a silent
change to the packing or truncation rules cannot slip past.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aqs import keys
from aqs.errors import AqsError, ConfigError
from aqs.keys import (
    DeliveryLedger,
    chained_tag,
    derive_permutation,
    hash_tag,
    pack_bits,
    random_bits,
    sample_lambda,
    tag_of_bits,
    xor_bits,
)


def reference_tag(bits: str, n: int) -> str:
    """Independent recomputation: length prefix + MSB packing + SHAKE-256."""
    padded = int(bits + "0" * (-len(bits) % 8), 2)
    payload = len(bits).to_bytes(8, "big") + padded.to_bytes(
        (len(bits) + 7) // 8, "big"
    )
    stream = "".join(
        format(b, "08b") for b in hashlib.shake_256(payload).digest((n + 7) // 8)
    )
    return stream[:n]


class TestBitStrings:
    def test_random_bits_deterministic(self):
        a = random_bits(64, np.random.default_rng(5))
        b = random_bits(64, np.random.default_rng(5))
        assert a == b and len(a) == 64 and set(a) <= {"0", "1"}

    def test_random_bits_bad_length(self):
        with pytest.raises(ConfigError, match=r"length must be positive, got 0"):
            random_bits(0, np.random.default_rng(0))

    def test_xor_exhaustive_small(self):
        for n in (1, 2, 3):
            for a_bits in itertools.product("01", repeat=n):
                for b_bits in itertools.product("01", repeat=n):
                    a, b = "".join(a_bits), "".join(b_bits)
                    out = xor_bits(a, b)
                    assert all(
                        (x != y) == (z == "1") for x, y, z in zip(a, b, out)
                    )

    def test_xor_self_inverse_and_associative(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a, b, c = (random_bits(32, rng) for _ in range(3))
            assert xor_bits(a, a) == "0" * 32
            assert xor_bits(xor_bits(a, b), b) == a
            assert xor_bits(xor_bits(a, b), c) == xor_bits(a, xor_bits(b, c))

    def test_xor_length_mismatch(self):
        with pytest.raises(ConfigError, match=r"xor needs equal lengths, got 3 and 2"):
            xor_bits("101", "10")

    def test_xor_rejects_junk(self):
        with pytest.raises(ConfigError, match=r"a must be a nonempty string of 0s and 1s"):
            xor_bits("1a1", "101")


# The string-loop definitions the int-based ones replaced, kept as the reference.

def loop_check_bits(bits: str) -> None:
    if not bits or any(ch not in "01" for ch in bits):
        raise ValueError(bits)


def loop_random_bits(length: int, rng: np.random.Generator) -> str:
    return "".join("1" if b else "0" for b in rng.integers(0, 2, size=length))


def loop_xor_bits(a: str, b: str) -> str:
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


def loop_pack_bits(bits: str) -> bytes:
    padded = bits + "0" * (-len(bits) % 8)
    body = bytes(int(padded[i : i + 8], 2) for i in range(0, len(padded), 8))
    return len(bits).to_bytes(8, "big") + body


def loop_tag_of_bits(bits: str, out_bits: int | None = None) -> str:
    n = len(bits) if out_bits is None else out_bits
    digest = hashlib.shake_256(loop_pack_bits(bits)).digest((n + 7) // 8)
    return "".join(format(byte, "08b") for byte in digest)[:n]


bit_strings = st.text(alphabet="01", min_size=1, max_size=80)


class TestMatchesStringLoops:
    @settings(max_examples=200, deadline=None)
    @given(bits=bit_strings, other_seed=st.integers(0, 2 ** 32 - 1))
    def test_packing_tags_and_xor(self, bits, other_seed):
        for out_bits in (None, 1, 7, 8, 9, 3 * len(bits) + 1):
            assert tag_of_bits(bits, out_bits) == loop_tag_of_bits(bits, out_bits)
        assert pack_bits(bits) == loop_pack_bits(bits)
        other = loop_random_bits(len(bits), np.random.default_rng(other_seed))
        assert xor_bits(bits, other) == loop_xor_bits(bits, other)

    @settings(max_examples=100, deadline=None)
    @given(length=st.integers(1, 80), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_bits_takes_the_same_draw(self, length, seed):
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_bits(length, rng) == loop_random_bits(length, loop_rng)
        assert rng.random() == loop_rng.random()

    # "0_1", " 01" and "٠١" are all valid input to int(x, 2).
    @pytest.mark.parametrize("bad", ["", "0_1", " 01", "01 ", "٠١", "012"])
    def test_rejects_what_the_loop_rejects(self, bad):
        with pytest.raises(ValueError):
            loop_check_bits(bad)
        for call in (lambda: pack_bits(bad), lambda: tag_of_bits(bad),
                     lambda: derive_permutation(bad),
                     lambda: xor_bits(bad, "0" * len(bad)),
                     lambda: xor_bits("0" * len(bad), bad)):
            with pytest.raises(ConfigError):
                call()


class TestPermutation:
    def test_worked_examples(self):
        assert derive_permutation("1010") == (1, 3, 0, 2)
        assert derive_permutation("0000") == (0, 1, 2, 3)
        assert derive_permutation("1111") == (0, 1, 2, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_always_a_permutation(self, n):
        for value in range(2 ** n):
            bits = format(value, f"0{n}b")
            perm = derive_permutation(bits)
            assert sorted(perm) == list(range(n))

    def test_zeros_before_ones(self):
        # All positions holding 0 come first, each group in ascending order.
        bits = "0110100101"
        perm = derive_permutation(bits)
        k = bits.count("0")
        assert all(bits[p] == "0" for p in perm[:k])
        assert all(bits[p] == "1" for p in perm[k:])
        assert list(perm[:k]) == sorted(perm[:k])
        assert list(perm[k:]) == sorted(perm[k:])

    def test_bad_bits(self):
        for bad in ("", "012"):
            with pytest.raises(ConfigError, match=rf"bits must be a nonempty string "
                                                  rf"of 0s and 1s, got '{bad}'"):
                derive_permutation(bad)


class TestPacking:
    def test_literal_examples(self):
        assert pack_bits("1010") == b"\x00" * 7 + b"\x04" + b"\xa0"
        assert pack_bits("1") == b"\x00" * 7 + b"\x01" + b"\x80"
        assert pack_bits("00000000") == b"\x00" * 7 + b"\x08" + b"\x00"
        assert pack_bits("111111111") == b"\x00" * 7 + b"\x09" + b"\xff\x80"

    def test_length_prefix_prevents_padding_collision(self):
        # "1" and "10" pack to the same body byte; the prefix keeps them apart.
        assert pack_bits("1") != pack_bits("10")

    def test_injective_over_small_inputs(self):
        seen = set()
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 9):
            for value in range(2 ** n):
                seen.add(pack_bits(format(value, f"0{n}b")))
        assert len(seen) == sum(2 ** n for n in range(1, 10))


class TestHashTags:
    def test_matches_hashlib_reference(self):
        rng = np.random.default_rng(11)
        for n_out in (1, 4, 8, 64):
            for _ in range(10):
                bits = random_bits(int(rng.integers(1, 40)), rng)
                assert tag_of_bits(bits, n_out) == reference_tag(bits, n_out)

    def test_pinned_vector(self):
        assert tag_of_bits("1010") == "1000"
        assert tag_of_bits("1010") == reference_tag("1010", 4)

    def test_default_output_length(self):
        for bits in ("1", "0110", "1" * 33):
            assert len(tag_of_bits(bits)) == len(bits)

    def test_deterministic(self):
        assert hash_tag(b"abc", 16) == hash_tag(b"abc", 16)

    def test_prefix_consistent_truncation(self):
        long = hash_tag(b"xyz", 64)
        for n in (1, 5, 32, 63):
            assert hash_tag(b"xyz", n) == long[:n]

    def test_bad_length(self):
        with pytest.raises(ConfigError, match=r"tag length must be positive, got 0"):
            hash_tag(b"abc", 0)

    def test_chained_tag_recomputation(self):
        key, blind = "11010010", "01100101"
        inner = reference_tag(key, 8)
        assert chained_tag(key, blind) == reference_tag(
            xor_bits(inner, blind), 8
        )

    def test_collisions_rare_at_32_bits(self):
        rng = np.random.default_rng(17)
        inputs = {random_bits(48, rng) for _ in range(11000)}
        inputs = list(inputs)[:10000]
        assert len(inputs) == 10000
        tags = {tag_of_bits(bits, 32) for bits in inputs}
        assert len(tags) >= 10000 - 1

    def test_uniformity_chi_square(self):
        # 4-bit tags of 1e5 distinct inputs; chi-square over 16 bins,
        # df=15, critical value 37.697 at the 0.001 level.
        counts = [0] * 16
        for i in range(100_000):
            tag = tag_of_bits(format(i, "017b"), 4)
            counts[int(tag, 2)] += 1
        expected = 100_000 / 16
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 37.697


class TestLambdaSampling:
    def test_range_and_determinism(self):
        draws = sample_lambda(1000, np.random.default_rng(4))
        again = sample_lambda(1000, np.random.default_rng(4))
        assert draws == again
        assert all(0.0 <= x <= math.pi for x in draws)

    def test_mean_is_half_pi(self):
        draws = sample_lambda(100_000, np.random.default_rng(6))
        assert abs(sum(draws) / len(draws) - math.pi / 2) < 0.02

    def test_bad_count(self):
        with pytest.raises(ConfigError, match=r"count must be positive, got 0"):
            sample_lambda(0, np.random.default_rng(0))


class TestDeliveryLedger:
    def test_distribute_and_lookup(self):
        ledger = DeliveryLedger()
        ledger.distribute("kgc", "signer_1", "signing-key", "1010")
        assert ledger.lookup("signer_1", "signing-key") == "1010"
        assert len(ledger.records()) == 1

    def test_duplicate_rejected(self):
        ledger = DeliveryLedger()
        ledger.distribute("kgc", "signer_1", "signing-key", "1010")
        with pytest.raises(AqsError,
                           match=r"'signing-key' already delivered from 'kgc' to 'signer_1'"):
            ledger.distribute("kgc", "signer_1", "signing-key", "0101")

    def test_same_purpose_different_receiver_ok(self):
        ledger = DeliveryLedger()
        ledger.distribute("kgc", "signer_1", "signing-key", "1010")
        ledger.distribute("kgc", "verifier", "signing-key", "1010")
        assert len(ledger.records()) == 2

    def test_lookup_rejects_two_senders(self):
        # Same purpose to the same receiver from two senders: no silent pick.
        ledger = DeliveryLedger()
        ledger.distribute("kgc", "verifier", "blind-key", "0011")
        ledger.distribute("signer_1", "verifier", "blind-key", "1100")
        with pytest.raises(AqsError, match="'kgc', 'signer_1'"):
            ledger.lookup("verifier", "blind-key")

    def test_unknown_party(self):
        with pytest.raises(AqsError,
                           match=r"no secret 'signing-key' on record for party 'signer_9'"):
            DeliveryLedger().lookup("signer_9", "signing-key")

    def test_record_fields(self):
        ledger = DeliveryLedger()
        rec = ledger.distribute("kgc", "verifier", "blind-key", "0011")
        assert (rec.sender, rec.receiver, rec.purpose) == ("kgc", "verifier", "blind-key")
        assert rec.bits == "0011"
