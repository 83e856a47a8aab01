"""Seeded synthetic digit-like data, written as gzipped IDX pairs.

Ten random sparse binary prototypes are drawn at width 784 (28x28).  A
sample is a prototype with every pixel flipped independently at NOISE.  A
share CONFUSION of the samples takes its pixels from a uniformly drawn
prototype instead of its own class, so about 0.9 * CONFUSION of any set is
unlearnable.  That puts a floor under the error rate which does not depend
on how well a seed happened to train, and keeps the held-out error away
from both zero and chance, where it could not show drift.

Training and held-out samples come from the same prototypes: drawing them
from different prototypes gives chance error.  Pixels are written as 0/255
so that ``load_idx``'s gzip detection and threshold both run.
"""

import gzip
import struct

import numpy as np

WIDTH = 784
SIDE = 28
CLASSES = 10
DENSITY = 0.1
NOISE = 0.1
CONFUSION = 0.25
IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
# Keeps the data stream disjoint from every other seeded stream the
# benchmark derives from the same workload seed.
_DATA_TAG = 7001


def make_sets(seed, n_train, n_test):
    """Return ((train_bits, train_labels), (test_bits, test_labels))."""
    rng = np.random.default_rng([int(seed), _DATA_TAG])
    prototypes = (rng.random((CLASSES, WIDTH)) < DENSITY).astype(np.uint8)
    return _draw(rng, prototypes, n_train), _draw(rng, prototypes, n_test)


def _draw(rng, prototypes, count):
    labels = rng.integers(0, CLASSES, count)
    confused = rng.random(count) < CONFUSION
    source = np.where(confused, rng.integers(0, CLASSES, count), labels)
    bits = prototypes[source]
    flips = rng.random(bits.shape) < NOISE
    return np.where(flips, 1 - bits, bits).astype(np.uint8), labels.astype(np.uint8)


def _write_gz(path, payload):
    # mtime=0 makes the file bytes a function of the content alone.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as out:
        out.write(payload)


def write_idx_pair(directory, stem, bits, labels):
    """Write ``<stem>-images.gz`` and ``<stem>-labels.gz``; return both paths."""
    images_path = directory / f"{stem}-images.gz"
    labels_path = directory / f"{stem}-labels.gz"
    count = bits.shape[0]
    _write_gz(images_path, struct.pack(">IIII", IMAGE_MAGIC, count, SIDE, SIDE)
              + (bits * 255).astype(np.uint8).tobytes())
    _write_gz(labels_path, struct.pack(">II", LABEL_MAGIC, count)
              + labels.astype(np.uint8).tobytes())
    return images_path, labels_path
