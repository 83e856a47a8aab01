"""Bit-vector helpers, and the package's one rule for integers.

Bit vectors are numpy uint8 arrays of 0/1 values where index 0 is the
least significant bit.  String renderings put the most significant bit
first, so ``bits_from_string("0101")`` yields ``[1, 0, 1, 0]``.

Every count, setting, label and sample index a caller hands in goes
through ``integer_setting``, and every array of labels, state indices or
pulse directions through ``integer_array``: a float, string or other
non-integer is rejected with ``ValueError``, never truncated, and so is a
value out of range.  Line indices into a grid keep their own checks.
Real-valued settings go through ``real_setting`` and flags through
``flag_setting``, which reject a string or ``None`` alike, never parsing
it or reading its truth.
"""

import math
import numbers
import operator

import numpy as np

from .errors import DimensionError


def integer_setting(value, name, low=0, high=None):
    """``value`` as an int in [low, high] (no upper bound when ``high`` is
    None); a float, string or other non-integer is rejected, never truncated."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if number < low or high is not None and number > high:
        span = f"be at least {low}" if high is None else f"lie in [{low}, {high}]"
        raise ValueError(f"{name} must {span}, got {number}")
    return number


def real_setting(value, name):
    """``value`` as a finite float: a number, numpy scalar or bool."""
    try:
        if isinstance(value, (numbers.Real, np.bool_)) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


def flag_setting(value, name):
    """``value`` as a bool: a bool, numpy bool, or integer 0 or 1."""
    if isinstance(value, (numbers.Integral, np.bool_)) and value in (0, 1):
        return bool(value)
    raise ValueError(f"{name} must be a bool, got {value!r}")


def integer_array(values, name, bound=None):
    """``values`` as an integer array, rejected before any cast could
    truncate it; with ``bound``, every entry must lie in [0, bound)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iub":
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    if bound is not None and arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise ValueError(f"{name} must lie in [0, {bound - 1}]")
    return arr


def ensure_bits(values, length=None, name="bit vector"):
    """Validate and return ``values`` as a uint8 array of 0/1 entries."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if length is not None and arr.size != length:
        raise DimensionError(f"{name} must have length {length}, got {arr.size}")
    if arr.dtype == np.uint8:
        if arr.size and arr.max() > 1:
            raise ValueError(f"{name} entries must be 0 or 1")
        return arr
    return integer_array(arr, name, 2).astype(np.uint8)


def bits_from_string(text, name="bit string"):
    """Parse an MSB-first 0/1 string into an LSB-indexed bit vector."""
    ascii_text = text.encode("ascii") if isinstance(text, str) and text.isascii() else b""
    # Characters below '0' wrap around in uint8, so one bound rejects them all.
    bits = np.frombuffer(ascii_text, dtype=np.uint8)[::-1] - 48
    if not bits.size or bits.max() > 1:
        raise ValueError(f"{name} must be a non-empty string of 0/1 characters, got {text!r}")
    return bits


def bits_to_string(bits):
    """Render a bit vector MSB first."""
    arr = ensure_bits(bits)
    return (arr[::-1] + 48).tobytes().decode("ascii")
