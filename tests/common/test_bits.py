"""Tests for bit-manipulation helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import (
    bits_to_int,
    ceil_div,
    from_twos_complement,
    int_to_bits,
    is_power_of_two,
    next_power_of_two,
    to_twos_complement,
)
from repro.common.bits import (
    bitplanes_to_int,
    int_to_bitplanes,
    pack_bit_plane,
    pack_value_planes,
    packed_words,
    transpose8,
    unpack_bit_plane,
    unpack_value_planes,
)


class TestIntBitsConversion:
    def test_int_to_bits_lsb_first(self):
        bits = int_to_bits(np.array([6]), 4)
        assert list(bits[:, 0]) == [0, 1, 1, 0]

    def test_round_trip(self):
        values = np.array([0, 1, 255, 1000, 65535])
        assert np.array_equal(bits_to_int(int_to_bits(values, 16)), values)

    def test_masking_to_width(self):
        bits = int_to_bits(np.array([0x1FF]), 8)
        assert bits_to_int(bits)[0] == 0xFF

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(np.array([-1]), 8)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            int_to_bits(np.zeros((2, 2)), 8)
        with pytest.raises(ValueError):
            bits_to_int(np.zeros(4))
        with pytest.raises(ValueError):
            int_to_bits(np.array([1]), 0)


class TestTwosComplement:
    def test_encode_negative(self):
        assert to_twos_complement(np.array([-1]), 8)[0] == 255
        assert to_twos_complement(np.array([-128]), 8)[0] == 128

    def test_round_trip(self):
        values = np.array([-128, -1, 0, 1, 127])
        encoded = to_twos_complement(values, 8)
        assert np.array_equal(from_twos_complement(encoded, 8), values)

    def test_positive_unchanged(self):
        assert to_twos_complement(np.array([100]), 8)[0] == 100


class TestPowersOfTwo:
    @pytest.mark.parametrize("n,expected", [
        (1, 1), (2, 2), (3, 4), (5, 8), (128, 128), (129, 256), (1000, 1024),
    ])
    def test_next_power_of_two(self, n, expected):
        assert next_power_of_two(n) == expected

    def test_next_power_of_two_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next_power_of_two(0)

    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(1024)
        assert not is_power_of_two(0)
        assert not is_power_of_two(3)
        assert not is_power_of_two(-4)


class TestCeilDiv:
    @pytest.mark.parametrize("a,b,expected", [
        (0, 5, 0), (1, 5, 1), (5, 5, 1), (6, 5, 2), (25, 9, 3),
    ])
    def test_ceil_div(self, a, b, expected):
        assert ceil_div(a, b) == expected

    def test_rejects_nonpositive_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)


@given(st.lists(st.integers(min_value=0, max_value=2**20 - 1), min_size=1,
                max_size=64))
@settings(max_examples=50, deadline=None)
def test_bits_round_trip_property(values):
    array = np.array(values, dtype=np.int64)
    assert np.array_equal(bits_to_int(int_to_bits(array, 20)), array)


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_next_power_of_two_properties(n):
    p = next_power_of_two(n)
    assert is_power_of_two(p)
    assert p >= n
    assert p < 2 * n or n == 1


#: Ragged and whole-word column counts for the word-native converters.
CONVERTER_COLS = [1, 7, 63, 64, 100, 256, 300]


def oracle_pack(values, nbits, n_words):
    """The byte-per-bit path the word-native converters replace."""
    flat = values.reshape(-1, values.shape[-1])
    planes = pack_bit_plane(int_to_bitplanes(flat, nbits), n_words)
    return planes.reshape(*values.shape[:-1], nbits, n_words)


def oracle_unpack(words, cols):
    *lead, nbits, n_words = words.shape
    bits = unpack_bit_plane(words.reshape(-1, nbits, n_words), cols)
    return bitplanes_to_int(bits).reshape(*lead, cols)


class TestWordNativeConverters:
    """``pack_value_planes`` / ``unpack_value_planes`` against the
    ``int_to_bitplanes`` + ``pack_bit_plane`` oracle, which stays."""

    @pytest.mark.parametrize("cols", CONVERTER_COLS)
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_every_width_matches_the_bit_tensor_path(self, cols, dtype):
        rng = np.random.default_rng(cols)
        n_words = packed_words(cols)
        high = 256 if dtype == np.uint8 else 2**63 - 1
        values = rng.integers(0, high, (2, 3, cols), dtype=np.int64)
        values = values.astype(dtype)
        for nbits in range(1, 65):
            words = pack_value_planes(values, nbits, n_words)
            assert words.dtype == np.uint64
            assert words.shape == (2, 3, nbits, n_words)
            assert np.array_equal(words,
                                  oracle_pack(values, nbits, n_words))
            back = unpack_value_planes(words, cols)
            assert back.dtype == np.int64
            assert np.array_equal(back, oracle_unpack(words, cols))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_masks_to_width(self, data):
        cols = data.draw(st.sampled_from(CONVERTER_COLS))
        nbits = data.draw(st.integers(1, 64))
        seed = data.draw(st.integers(0, 2**32 - 1))
        values = np.random.default_rng(seed).integers(
            0, 2**63 - 1, (2, cols), dtype=np.int64)
        words = pack_value_planes(values, nbits, packed_words(cols))
        masked = values if nbits >= 63 else values & ((1 << nbits) - 1)
        assert np.array_equal(unpack_value_planes(words, cols), masked)

    @pytest.mark.parametrize("cols", CONVERTER_COLS)
    def test_tail_word_bits_stay_zero(self, cols):
        values = np.full((3, cols), 255, dtype=np.uint8)
        words = pack_value_planes(values, 8, packed_words(cols))
        tail = cols % 64
        if tail:
            assert not np.any(words[..., -1] >> np.uint64(tail))
        assert np.array_equal(unpack_bit_plane(words, cols),
                              np.ones((3, 8, cols), dtype=np.uint8))

    def test_extra_words_are_zero_padding(self):
        words = pack_value_planes(np.full((1, 10), 3), 2, 3)
        assert words.shape == (1, 2, 3)
        assert not np.any(words[..., 1:])

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            pack_value_planes(np.array([[1, -1]]), 8, 1)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="nbits"):
            pack_value_planes(np.zeros((1, 4), dtype=np.int64), 0, 1)
        with pytest.raises(ValueError, match="cannot hold"):
            pack_value_planes(np.zeros((1, 65), dtype=np.int64), 4, 1)
        with pytest.raises(ValueError, match="64 bits"):
            unpack_value_planes(np.zeros((65, 1), dtype=np.uint64), 8)
        with pytest.raises(ValueError, match="cannot hold"):
            unpack_value_planes(np.zeros((4, 1), dtype=np.uint64), 65)

    def test_planes_past_64_bits_are_zero(self):
        values = np.full((1, 5), 2**62 + 1, dtype=np.int64)
        words = pack_value_planes(values, 70, 1)
        assert words.shape == (1, 70, 1)
        assert np.array_equal(words, oracle_pack(values, 70, 1))
        assert not np.any(words[:, 64:])

    def test_transpose8_is_the_bit_matrix_transpose(self):
        rng = np.random.default_rng(8)
        x = rng.integers(0, 2**63, 50, dtype=np.int64).astype("<u8")
        matrix = np.unpackbits(x.view(np.uint8).reshape(50, 8), axis=-1,
                               bitorder="little").reshape(50, 8, 8)
        y = transpose8(x.copy())
        got = np.unpackbits(y.view(np.uint8).reshape(50, 8), axis=-1,
                            bitorder="little").reshape(50, 8, 8)
        assert np.array_equal(got, matrix.transpose(0, 2, 1))
        assert np.array_equal(transpose8(y), x)
