"""Dataset ingestion: IDX image/label files and synthetic bit patterns.

IDX files may be plain or gzip-compressed; compression is detected from
the two-byte gzip signature, not the file name.
"""

import gzip
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (BadMagicError, CountMismatchError, DimensionError,
                     IdxFormatError, TruncatedFileError)

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
IMAGE_SIDE = 28
DEFAULT_THRESHOLD = 127


@dataclass
class LabeledBitSet:
    """Binarized images with class labels."""

    images: np.ndarray
    labels: np.ndarray
    n_classes: int
    source: str

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.uint8)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2:
            raise DimensionError(f"images must be 2-D, got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise CountMismatchError(
                f"{self.images.shape[0]} images but {self.labels.size} labels")
        if self.images.size and self.images.max() > 1:
            raise ValueError("images must be binarized to 0/1")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.n_classes):
            raise ValueError(f"labels must lie in [0, {self.n_classes - 1}]")

    def __len__(self):
        return self.images.shape[0]

    @property
    def width(self):
        return self.images.shape[1]


def _read_exact(stream, count, path, what):
    data = stream.read(count)
    if len(data) != count:
        raise TruncatedFileError(
            f"{path}: expected {count} bytes of {what}, found {len(data)}")
    return data


def _open_idx(path):
    with open(path, "rb") as raw:
        signature = raw.read(2)
    if signature == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _load_images(path):
    with _open_idx(path) as stream:
        header = _read_exact(stream, 16, path, "image header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IMAGE_MAGIC:
            raise BadMagicError(f"{path}: image magic {magic}, expected {IMAGE_MAGIC}")
        if rows != IMAGE_SIDE or cols != IMAGE_SIDE:
            raise DimensionError(
                f"{path}: images are {rows}x{cols}, expected {IMAGE_SIDE}x{IMAGE_SIDE}")
        payload = _read_exact(stream, count * rows * cols, path, "pixel data")
    pixels = np.frombuffer(payload, dtype=np.uint8)
    return pixels.reshape(count, rows * cols)


def _load_labels(path):
    with _open_idx(path) as stream:
        header = _read_exact(stream, 8, path, "label header")
        magic, count = struct.unpack(">II", header)
        if magic != LABEL_MAGIC:
            raise BadMagicError(f"{path}: label magic {magic}, expected {LABEL_MAGIC}")
        payload = _read_exact(stream, count, path, "label data")
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def load_idx(images_path, labels_path, limit=None):
    """Load an IDX image/label pair into a LabeledBitSet.

    Each bit is 1 iff its pixel exceeds ``DEFAULT_THRESHOLD``.
    """
    images = _load_images(images_path)
    labels = _load_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise CountMismatchError(
            f"{images.shape[0]} images in {images_path} but "
            f"{labels.shape[0]} labels in {labels_path}")
    if limit is not None:
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        images = images[:limit]
        labels = labels[:limit]
    if labels.size and labels.max() > 9:
        raise IdxFormatError(f"{labels_path}: labels exceed class range 0..9")
    bits = (images > DEFAULT_THRESHOLD).astype(np.uint8)
    return LabeledBitSet(bits, labels, 10, f"idx:{images_path}")


def synthetic_orthogonal(width, classes, samples_per_class, noise_flip_prob=0.0,
                         seed=0):
    """Block-orthogonal patterns: class k owns bits [k*w/c, (k+1)*w/c).

    Each sample is its class prototype with bits flipped independently at
    noise_flip_prob.
    """
    if classes < 1 or width < 1:
        raise ValueError("width and classes must be positive")
    if classes > width or width % classes != 0:
        raise ValueError(f"width {width} must be a positive multiple of classes {classes}")
    if not 0.0 <= noise_flip_prob <= 1.0:
        raise ValueError(f"noise_flip_prob must be in [0, 1], got {noise_flip_prob}")
    block = width // classes
    prototypes = np.zeros((classes, width), dtype=np.uint8)
    for k in range(classes):
        prototypes[k, k * block:(k + 1) * block] = 1
    rng = np.random.default_rng(seed)
    images = np.repeat(prototypes, samples_per_class, axis=0)
    labels = np.repeat(np.arange(classes, dtype=np.int64), samples_per_class)
    if noise_flip_prob > 0.0:
        flips = rng.random(images.shape) < noise_flip_prob
        images = np.where(flips, 1 - images, images).astype(np.uint8)
    return LabeledBitSet(images, labels, classes,
                         f"synthetic:{width}x{classes}")
