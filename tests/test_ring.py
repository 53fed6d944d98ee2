"""Ring arithmetic: wrap-around intervals (Chord) and prefix digits (Pastry)."""

import random

import pytest

from repro.lib.ring import (
    between,
    digit_at,
    hash_key,
    numeric_distance,
    ring_add,
    ring_distance,
    shared_prefix_length,
)


def test_between_simple_interval():
    assert between(5, 2, 8)
    assert not between(2, 2, 8)
    assert not between(8, 2, 8)
    assert between(2, 2, 8, include_low=True)
    assert between(8, 2, 8, include_high=True)


def test_between_wrap_around():
    # Interval (250, 10) on a 256-ring wraps through zero.
    assert between(255, 250, 10)
    assert between(0, 250, 10)
    assert between(5, 250, 10)
    assert not between(100, 250, 10)
    assert not between(250, 250, 10)
    assert between(10, 250, 10, include_high=True)


def test_between_whole_ring_when_endpoints_equal():
    # low == high covers the whole ring minus the endpoint.
    assert between(1, 7, 7)
    assert between(200, 7, 7)
    assert not between(7, 7, 7)
    assert between(7, 7, 7, include_low=True)
    assert between(7, 7, 7, include_high=True)


def test_between_with_modulus_normalisation():
    assert between(260, 250, 10, modulus=256) == between(4, 250, 10)
    # -6 % 256 == 250, which is the (excluded by default) low endpoint.
    assert not between(-6, 250, 10, modulus=256)
    assert between(-6, 250, 10, modulus=256, include_low=True)


def test_ring_distance_and_add():
    assert ring_distance(250, 10, 8) == 16
    assert ring_distance(10, 250, 8) == 240
    assert ring_distance(7, 7, 8) == 0
    assert ring_add(250, 10, 8) == 4
    assert ring_add(0, 255, 8) == 255


def test_hash_key_is_deterministic_and_respects_width():
    assert hash_key("10.0.0.1:20000") == hash_key("10.0.0.1:20000")
    assert hash_key("a") != hash_key("b")
    for bits in (8, 16, 32):
        assert 0 <= hash_key("some-key", bits) < (1 << bits)


# ------------------------------------------------- Pastry prefix primitives
def test_shared_prefix_length_counts_leading_common_digits():
    # 16-bit ids as 4 hex digits: 0xAB12 vs 0xAB9F share "AB".
    assert shared_prefix_length(0xAB12, 0xAB9F, digits=4, base_bits=4) == 2
    assert shared_prefix_length(0xAB12, 0xAB17, digits=4, base_bits=4) == 3
    assert shared_prefix_length(0xAB12, 0x1B12, digits=4, base_bits=4) == 0


def test_shared_prefix_length_of_identical_ids_is_the_digit_count():
    assert shared_prefix_length(0xAB12, 0xAB12, digits=4, base_bits=4) == 4
    assert shared_prefix_length(0, 0, digits=8, base_bits=2) == 8


def test_shared_prefix_length_with_base_bits_one_counts_matching_bits():
    # base_bits > 1 vs base_bits == 1: 0b1101 vs 0b1100 share 3 leading bits.
    assert shared_prefix_length(0b1101, 0b1100, digits=4, base_bits=1) == 3
    # ...but only 1 leading 2-bit digit (11 vs 11, then 01 vs 00).
    assert shared_prefix_length(0b1101, 0b1100, digits=2, base_bits=2) == 1


def _prefix_digit_by_digit(a, b, digits, base_bits):
    """The per-digit loop ``shared_prefix_length`` used to be: the oracle."""
    if a == b:
        return digits
    prefix = 0
    for position in range(digits - 1, -1, -1):
        shift = position * base_bits
        digit_a = (a >> shift) & ((1 << base_bits) - 1)
        digit_b = (b >> shift) & ((1 << base_bits) - 1)
        if digit_a != digit_b:
            break
        prefix += 1
    return prefix


@pytest.mark.parametrize("digits, base_bits", [(8, 1), (4, 2), (2, 4), (3, 2), (2, 3), (1, 5)])
def test_shared_prefix_length_matches_the_digit_loop_exhaustively(digits, base_bits):
    # two bits beyond the identifier width: they must be ignored, as the loop did
    span = 1 << (digits * base_bits + 2)
    for a in range(span):
        for b in range(span):
            assert shared_prefix_length(a, b, digits, base_bits) == \
                _prefix_digit_by_digit(a, b, digits, base_bits)


@pytest.mark.parametrize("bits, base_bits", [(32, 4), (32, 1), (160, 4), (160, 8)])
def test_shared_prefix_length_matches_the_digit_loop_on_wide_identifiers(bits, base_bits):
    rng = random.Random(bits * 31 + base_bits)
    digits = bits // base_bits
    for _ in range(4000):
        a = rng.getrandbits(bits)
        # mostly near pairs: identical above a random bit, noise below it
        cut = rng.randrange(bits + 1)
        b = a ^ rng.getrandbits(cut) if rng.random() < 0.9 else rng.getrandbits(bits)
        assert shared_prefix_length(a, b, digits, base_bits) == \
            _prefix_digit_by_digit(a, b, digits, base_bits)


def test_digit_at_extracts_most_significant_first():
    assert digit_at(0xAB12, 0, digits=4, base_bits=4) == 0xA
    assert digit_at(0xAB12, 1, digits=4, base_bits=4) == 0xB
    assert digit_at(0xAB12, 3, digits=4, base_bits=4) == 0x2
    # Leading zeros are real digits.
    assert digit_at(0x0012, 0, digits=4, base_bits=4) == 0
    assert digit_at(0b1101, 2, digits=4, base_bits=1) == 0


def test_digit_at_rejects_positions_beyond_the_digit_count():
    for position in (-1, 4, 100):
        with pytest.raises(ValueError):
            digit_at(0xAB12, position, digits=4, base_bits=4)


def test_prefix_helpers_agree_on_the_first_differing_digit():
    a, b = 0xAB12, 0xABF2
    prefix = shared_prefix_length(a, b, digits=4, base_bits=4)
    assert prefix == 2
    assert digit_at(a, prefix, digits=4, base_bits=4) != digit_at(
        b, prefix, digits=4, base_bits=4)


def test_numeric_distance_is_symmetric_and_wraps():
    assert numeric_distance(10, 250, 8) == 16
    assert numeric_distance(250, 10, 8) == 16
    assert numeric_distance(7, 7, 8) == 0
    assert numeric_distance(0, 128, 8) == 128  # antipodal
    assert numeric_distance(0, 129, 8) == 127
