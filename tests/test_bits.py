import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from snra.bits import (bits_from_string, bits_to_string, ensure_bits, integer_array,
                       integer_setting, real_setting)
from snra.errors import DimensionError


def test_string_parsing_is_msb_first():
    assert list(bits_from_string("0101")) == [1, 0, 1, 0]
    assert list(bits_from_string("10")) == [0, 1]
    assert list(bits_from_string("1")) == [1]


def test_string_rendering_is_msb_first():
    assert bits_to_string([1, 0, 1, 0]) == "0101"
    assert bits_to_string([0, 1]) == "10"


@given(st.lists(st.integers(0, 1), min_size=1, max_size=16))
def test_string_round_trip(bits):
    assert list(bits_from_string(bits_to_string(bits))) == bits


def per_bit_string(bits):
    """The per-character rendering that the array rendering must match."""
    return "".join(str(b) for b in reversed(bits))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=1000))
def test_string_rendering_matches_per_bit_reference(bits):
    assert bits_to_string(bits) == per_bit_string(bits)
    assert bits_to_string(np.array(bits, dtype=np.uint8)) == per_bit_string(bits)


def test_string_round_trip_at_image_width():
    bits = np.random.default_rng(0).integers(0, 2, 784).astype(np.uint8)
    text = bits_to_string(bits)
    assert len(text) == 784
    parsed = bits_from_string(text)
    assert parsed.dtype == np.uint8
    assert np.array_equal(parsed, bits)


def test_parse_rejects_bad_strings():
    # Non-ASCII digits and a str-like sequence are rejected like any other
    # character outside 0/1.
    for bad in ("", "012", "ab", "1 0", "0/1", "0\x001", "0\uff11", "\u0661",
                "10\u00b9", b"01", ["0", "1"], ("1",), None, 1,
                np.array([0, 1], dtype=np.uint8)):
        with pytest.raises(ValueError,
                           match="^--v must be a non-empty string of 0/1 characters, got "):
            bits_from_string(bad, name="--v")


@pytest.mark.parametrize("bad, error", [
    ([0, 2], ValueError), (np.array([1, 2], dtype=np.uint8), ValueError),
    ([[0, 1], [1, 0]], DimensionError)])
def test_rendering_rejects_non_bit_vectors(bad, error):
    with pytest.raises(error):
        bits_to_string(bad)


def test_ensure_bits_validation():
    out = ensure_bits([1, 0, 1])
    assert out.dtype == np.uint8
    with pytest.raises(DimensionError):
        ensure_bits([[1, 0]])
    with pytest.raises(DimensionError):
        ensure_bits([1, 0], length=3)
    with pytest.raises(ValueError):
        ensure_bits([0, 2])
    with pytest.raises(ValueError):
        ensure_bits([0, -1])
    with pytest.raises(ValueError):
        ensure_bits([0.5, 0.5])


def test_ensure_bits_accepts_uint8_without_copy():
    arr = np.array([1, 0, 1], dtype=np.uint8)
    assert ensure_bits(arr) is arr


def test_integer_setting_bounds():
    assert integer_setting(np.int64(3), "n", low=3, high=3) == 3
    assert type(integer_setting(np.uint16(7), "n")) is int
    assert integer_setting(True, "n") == 1
    for value, low, high in ((-1, 0, None), (2, 3, None), (4, 0, 3), (-1, 0, 3)):
        with pytest.raises(ValueError, match="^n must (be at least|lie in)"):
            integer_setting(value, "n", low, high)


def test_real_setting_rejects_an_integer_past_the_float_range():
    # float(10**400) overflows, and the value is refused as a non-finite one is.
    with pytest.raises(ValueError, match="^x must be a finite real number"):
        real_setting(10**400, "x")


def test_integer_array_bounds():
    assert integer_array(np.array([0, 3], dtype=np.uint64), "a", 4).dtype == np.uint64
    assert integer_array([True, False], "a", 2).dtype == bool
    assert integer_array([-7, 9], "a").tolist() == [-7, 9]
    with pytest.raises(ValueError, match="^a must hold integers"):
        integer_array([1.0, 2.0], "a")
    for values in ([0, 4], [-1, 0]):
        with pytest.raises(ValueError, match=r"^a must lie in \[0, 3\]"):
            integer_array(values, "a", 4)

