import gzip
import struct

import numpy as np
import pytest

from snra.dataset import (DEFAULT_THRESHOLD, LabeledBitSet, load_idx,
                          synthetic_orthogonal)
from snra.errors import (BadMagicError, CountMismatchError, DimensionError,
                         IdxFormatError, TruncatedFileError)


def write_idx_pair(tmp_path, pixels, labels, compress=False, image_magic=2051,
                   label_magic=2049, side=28, image_count=None, label_count=None,
                   truncate_images=0):
    """Build an IDX image/label file pair with controllable corruption."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n = pixels.shape[0]
    image_bytes = (struct.pack(">IIII", image_magic,
                               n if image_count is None else image_count,
                               side, side)
                   + pixels.tobytes())
    if truncate_images:
        image_bytes = image_bytes[:-truncate_images]
    label_bytes = (struct.pack(">II", label_magic,
                               len(labels) if label_count is None else label_count)
                   + bytes(labels))
    suffix = ".gz" if compress else ""
    tmp_path.mkdir(parents=True, exist_ok=True)
    images_path = tmp_path / f"images-idx3-ubyte{suffix}"
    labels_path = tmp_path / f"labels-idx1-ubyte{suffix}"
    opener = gzip.open if compress else open
    with opener(images_path, "wb") as handle:
        handle.write(image_bytes)
    with opener(labels_path, "wb") as handle:
        handle.write(label_bytes)
    return images_path, labels_path


def two_sample_pixels():
    a = np.zeros(784, dtype=np.uint8)
    a[0] = 255
    a[1] = 128
    a[2] = 127
    b = np.full(784, 200, dtype=np.uint8)
    b[-1] = 0
    return np.stack([a, b])


class TestBinarize:
    def test_boundaries(self, tmp_path):
        pixels = np.zeros((1, 784), dtype=np.uint8)
        pixels[0, :4] = [0, 127, 128, 255]
        data = load_idx(*write_idx_pair(tmp_path, pixels, [0]))
        assert DEFAULT_THRESHOLD == 127
        assert data.images[0, :4].tolist() == [0, 0, 1, 1]


class TestLoadIdx:
    def test_known_pixels(self, tmp_path):
        images_path, labels_path = write_idx_pair(tmp_path, two_sample_pixels(), [3, 9])
        data = load_idx(images_path, labels_path)
        assert len(data) == 2 and data.width == 784
        assert data.images[0, :3].tolist() == [1, 1, 0]
        assert not data.images[0, 3:].any()
        assert data.images[1, :-1].all() and data.images[1, -1] == 0
        assert data.labels.tolist() == [3, 9]
        assert data.n_classes == 10

    def test_gzip_transparent(self, tmp_path):
        plain = load_idx(*write_idx_pair(tmp_path / "p", two_sample_pixels(), [1, 2]))
        packed = load_idx(*write_idx_pair(tmp_path / "g", two_sample_pixels(), [1, 2],
                                          compress=True))
        assert (plain.images == packed.images).all()
        assert (plain.labels == packed.labels).all()

    def test_limit(self, tmp_path):
        paths = write_idx_pair(tmp_path, two_sample_pixels(), [1, 2])
        assert len(load_idx(*paths, limit=1)) == 1
        assert len(load_idx(*paths, limit=0)) == 0
        assert len(load_idx(*paths, limit=50)) == 2
        with pytest.raises(ValueError):
            load_idx(*paths, limit=-1)

    def test_deterministic_reload(self, tmp_path):
        paths = write_idx_pair(tmp_path, two_sample_pixels(), [1, 2])
        first = load_idx(*paths)
        second = load_idx(*paths)
        assert (first.images == second.images).all()

    def test_bad_image_magic(self, tmp_path):
        paths = write_idx_pair(tmp_path, two_sample_pixels(), [1, 2], image_magic=2052)
        with pytest.raises(BadMagicError):
            load_idx(*paths)

    def test_bad_label_magic(self, tmp_path):
        paths = write_idx_pair(tmp_path, two_sample_pixels(), [1, 2], label_magic=2051)
        with pytest.raises(BadMagicError):
            load_idx(*paths)

    def test_wrong_dimensions(self, tmp_path):
        pixels = np.zeros((2, 196), dtype=np.uint8)
        paths = write_idx_pair(tmp_path, pixels, [1, 2], side=14)
        with pytest.raises(DimensionError):
            load_idx(*paths)

    def test_truncated_payload(self, tmp_path):
        paths = write_idx_pair(tmp_path, two_sample_pixels(), [1, 2],
                               truncate_images=10)
        with pytest.raises(TruncatedFileError):
            load_idx(*paths)

    def test_truncated_header(self, tmp_path):
        images_path = tmp_path / "broken-idx3-ubyte"
        images_path.write_bytes(b"\x00\x00")
        _, labels_path = write_idx_pair(tmp_path, two_sample_pixels(), [1, 2])
        with pytest.raises(TruncatedFileError):
            load_idx(images_path, labels_path)

    def test_count_mismatch(self, tmp_path):
        paths = write_idx_pair(tmp_path, two_sample_pixels(), [1, 2, 3])
        with pytest.raises(CountMismatchError):
            load_idx(*paths)

    def test_label_range(self, tmp_path):
        paths = write_idx_pair(tmp_path, two_sample_pixels(), [1, 11])
        with pytest.raises(IdxFormatError):
            load_idx(*paths)

    def test_missing_file(self, tmp_path):
        _, labels_path = write_idx_pair(tmp_path, two_sample_pixels(), [1, 2])
        with pytest.raises(FileNotFoundError):
            load_idx(tmp_path / "nope", labels_path)


class TestSyntheticOrthogonal:
    def test_noiseless_prototypes(self):
        data = synthetic_orthogonal(16, 4, 3)
        assert len(data) == 12 and data.width == 16 and data.n_classes == 4
        for k in range(4):
            block = data.images[data.labels == k]
            assert block.shape == (3, 16)
            expected = np.zeros(16, dtype=np.uint8)
            expected[4 * k:4 * (k + 1)] = 1
            assert (block == expected).all()

    def test_full_noise_complements(self):
        clean = synthetic_orthogonal(8, 2, 2)
        flipped = synthetic_orthogonal(8, 2, 2, noise_flip_prob=1.0)
        assert ((clean.images + flipped.images) == 1).all()

    def test_noise_level_mean_distance(self):
        data = synthetic_orthogonal(16, 4, 250, noise_flip_prob=0.1, seed=5)
        clean = synthetic_orthogonal(16, 4, 250)
        distance = (data.images != clean.images).sum(axis=1).mean()
        assert abs(distance - 1.6) < 0.5

    def test_seeded_reproducibility(self):
        a = synthetic_orthogonal(16, 4, 5, noise_flip_prob=0.2, seed=9)
        b = synthetic_orthogonal(16, 4, 5, noise_flip_prob=0.2, seed=9)
        assert (a.images == b.images).all()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            synthetic_orthogonal(10, 4, 1)
        with pytest.raises(ValueError):
            synthetic_orthogonal(4, 8, 1)
        with pytest.raises(ValueError):
            synthetic_orthogonal(16, 4, 1, noise_flip_prob=1.5)


class TestLabeledBitSet:
    def test_length_mismatch(self):
        with pytest.raises(CountMismatchError):
            LabeledBitSet(np.zeros((2, 4), dtype=np.uint8), np.array([1]), 10, "x")

    def test_value_checks(self):
        with pytest.raises(ValueError):
            LabeledBitSet(np.full((1, 4), 9, dtype=np.uint8), np.array([0]), 10, "x")
        with pytest.raises(ValueError):
            LabeledBitSet(np.zeros((1, 4), dtype=np.uint8), np.array([10]), 10, "x")
