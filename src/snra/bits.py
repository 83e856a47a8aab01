"""Bit-vector helpers.

Bit vectors are numpy uint8 arrays of 0/1 values where index 0 is the
least significant bit.  String renderings put the most significant bit
first, so ``bits_from_string("0101")`` yields ``[1, 0, 1, 0]``.
"""

import numpy as np

from .errors import DimensionError


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
    if arr.dtype.kind not in "iub":
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) > 1):
        raise ValueError(f"{name} entries must be 0 or 1")
    return arr.astype(np.uint8)


def bits_from_string(text, name="bit string"):
    """Parse an MSB-first 0/1 string into an LSB-indexed bit vector."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"{name} must be a non-empty string of 0/1 characters, got {text!r}")
    return np.array([int(c) for c in reversed(text)], dtype=np.uint8)


def bits_to_string(bits):
    """Render a bit vector MSB first."""
    arr = ensure_bits(bits)
    return "".join(str(int(b)) for b in arr[::-1])
