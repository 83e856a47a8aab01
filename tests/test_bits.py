import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from snra.bits import bits_from_string, bits_to_string, ensure_bits
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


def test_parse_rejects_bad_strings():
    for bad in ("", "012", "ab", "1 0"):
        with pytest.raises(ValueError):
            bits_from_string(bad)


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
