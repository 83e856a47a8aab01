"""Dataset ingestion: IDX image/label files.

One reader, ``_read_idx``, checks the header of either file of a pair
and reads exactly the items it counts.  IDX files may be plain or
gzip-compressed; compression is detected from the two-byte gzip
signature, not the file name.
"""

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .bits import ensure_bits, integer_array, integer_setting
from .errors import (BadMagicError, CountMismatchError, DimensionError,
                     IdxFormatError, TruncatedFileError)

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
IMAGE_SIDE = 28
DEFAULT_THRESHOLD = 127
_READ_CHUNK = 1 << 20


@dataclass
class LabeledBitSet:
    """Binarized images with class labels, checked before any cast could
    wrap or truncate them: pixels are integer 0/1, labels integer classes."""

    images: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        images = np.asarray(self.images)
        if images.ndim != 2:
            raise DimensionError(f"images must be 2-D, got shape {images.shape}")
        self.images = ensure_bits(images.reshape(-1), name="image pixels").reshape(images.shape)
        labels = np.asarray(self.labels)
        if labels.shape != (len(self),):
            raise DimensionError(f"{len(self)} images but {labels.size} labels")
        # An empty list arrives as float64 and holds nothing to truncate.
        if labels.size:
            labels = integer_array(labels, "labels", self.n_classes)
        self.labels = labels.astype(np.int64)

    def __len__(self):
        return self.images.shape[0]

    @property
    def width(self):
        return self.images.shape[1]


def _read_exact(stream, count, path, what, last=False):
    """Read ``count`` bytes of ``what``; if it is the ``last`` part of the
    file, read once more to check that nothing follows.  On a gzip stream
    that read runs the CRC and length check of the trailer."""
    # Read in bounded chunks: the count comes from the file's header, and a
    # single read(count) would allocate all of it before finding the end.
    wanted = count + 1 if last else count
    data = bytearray()
    while len(data) < wanted:
        try:
            chunk = stream.read(min(wanted - len(data), _READ_CHUNK))
        except EOFError:
            # A gzip stream cut short, in the data or in its trailer.
            raise TruncatedFileError(
                f"{path}: gzip stream ends before {count} bytes of {what} "
                "and its trailer") from None
        except (zlib.error, gzip.BadGzipFile) as exc:
            raise IdxFormatError(f"{path}: corrupt gzip data in {what}: {exc}") from None
        if not chunk:
            break
        data += chunk
    if len(data) < count:
        raise TruncatedFileError(
            f"{path}: expected {count} bytes of {what}, found {len(data)}")
    if len(data) > count:
        raise IdxFormatError(f"{path}: trailing data after {count} bytes of {what}")
    return data


def _open_idx(path):
    with open(path, "rb") as raw:
        signature = raw.read(2)
    if signature == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx(path, magic, what, item_shape, payload):
    """Read one IDX file of uint8 items: a big-endian u32 header (magic,
    count, then the sizes of one item) checked against ``magic`` and
    ``item_shape``, then exactly ``count`` items, as a (count, item size)
    array.  ``what`` and ``payload`` name the file's parts in errors."""
    with _open_idx(path) as stream:
        fields = 2 + len(item_shape)
        header = _read_exact(stream, 4 * fields, path, f"{what} header")
        found, count, *shape = struct.unpack(f">{fields}I", header)
        if found != magic:
            raise BadMagicError(f"{path}: {what} magic {found}, expected {magic}")
        if tuple(shape) != item_shape:
            sizes, wanted = ("x".join(map(str, dims)) for dims in (shape, item_shape))
            raise DimensionError(f"{path}: {what}s are {sizes}, expected {wanted}")
        # An explicit item size: numpy cannot infer -1 from a file of 0 items.
        size = math.prod(item_shape)
        data = _read_exact(stream, count * size, path, payload, last=True)
    return np.frombuffer(data, dtype=np.uint8).reshape(count, size)


def load_idx(images_path, labels_path, limit=None):
    """Load an IDX image/label pair into a LabeledBitSet.

    Each bit is 1 iff its pixel exceeds ``DEFAULT_THRESHOLD``.
    """
    images = _read_idx(images_path, IMAGE_MAGIC, "image", (IMAGE_SIDE, IMAGE_SIDE),
                       "pixel data")
    labels = _read_idx(labels_path, LABEL_MAGIC, "label", (), "label data")[:, 0]
    if images.shape[0] != labels.shape[0]:
        raise CountMismatchError(
            f"{images.shape[0]} images in {images_path} but "
            f"{labels.shape[0]} labels in {labels_path}")
    if limit is not None:
        limit = integer_setting(limit, "limit")
        images = images[:limit]
        labels = labels[:limit]
    if labels.size and labels.max() > 9:
        raise IdxFormatError(f"{labels_path}: labels exceed class range 0..9")
    bits = (images > DEFAULT_THRESHOLD).astype(np.uint8)
    return LabeledBitSet(bits, labels, 10)
