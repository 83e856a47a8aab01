import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from snra.dataset import DEFAULT_THRESHOLD, LabeledBitSet, load_idx
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


def damage_gzip(path, damage):
    """Replace a plain IDX file by its gzip compression, then damage that."""
    if damage == "crc":
        # Level 0 stores the file in one block that ends just before the
        # 8-byte trailer, so flipping its last byte breaks only the CRC.
        packed = bytearray(gzip.compress(path.read_bytes(), compresslevel=0))
        packed[-9] ^= 0xFF
    else:
        packed = gzip.compress(path.read_bytes())
    if damage == "truncated":
        packed = packed[:len(packed) // 2]
    elif damage == "cut trailer":
        packed = packed[:-4]
    elif damage == "corrupt":
        # BTYPE 11 in the first deflate block header is reserved, so invalid.
        packed = packed[:10] + bytes([packed[10] | 0x06]) + packed[11:]
    path.write_bytes(packed)


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
        with pytest.raises(BadMagicError, match="image magic 2052, expected 2051$"):
            load_idx(*paths)

    def test_bad_label_magic(self, tmp_path):
        paths = write_idx_pair(tmp_path, two_sample_pixels(), [1, 2], label_magic=2051)
        with pytest.raises(BadMagicError, match="label magic 2051, expected 2049$"):
            load_idx(*paths)

    def test_wrong_dimensions(self, tmp_path):
        pixels = np.zeros((2, 196), dtype=np.uint8)
        paths = write_idx_pair(tmp_path, pixels, [1, 2], side=14)
        with pytest.raises(DimensionError, match="images are 14x14, expected 28x28$"):
            load_idx(*paths)

    def test_truncated_payload(self, tmp_path):
        paths = write_idx_pair(tmp_path, two_sample_pixels(), [1, 2],
                               truncate_images=10)
        with pytest.raises(TruncatedFileError,
                           match="expected 1568 bytes of pixel data, found 1558$"):
            load_idx(*paths)

    @pytest.mark.parametrize("compress", [False, True])
    def test_oversized_header_count_allocates_only_what_the_file_holds(
            self, tmp_path, compress):
        # 0x00FFFFFF images of 28x28 would be 13 GB; the file holds 100 bytes.
        paths = write_idx_pair(tmp_path, np.zeros((1, 100), dtype=np.uint8), [1],
                               compress=compress, image_count=0x00FFFFFF)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFileError, match="found 100"):
                load_idx(*paths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    @pytest.mark.parametrize("damage, error, message", [
        ("truncated", TruncatedFileError, "bytes of"),
        ("corrupt", IdxFormatError, "corrupt gzip data"),
        ("crc", IdxFormatError, "CRC check failed"),
        ("cut trailer", TruncatedFileError, "trailer")])
    @pytest.mark.parametrize("which", [0, 1])
    def test_damaged_gzip(self, tmp_path, damage, error, message, which):
        paths = write_idx_pair(tmp_path, two_sample_pixels(), [1, 2])
        damage_gzip(paths[which], damage)
        with pytest.raises(error, match=message):
            load_idx(*paths)

    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("which", [0, 1])
    def test_trailing_data(self, tmp_path, compress, which):
        paths = write_idx_pair(tmp_path, two_sample_pixels(), [1, 2])
        path = paths[which]
        padded = path.read_bytes() + b"\0"
        path.write_bytes(gzip.compress(padded) if compress else padded)
        with pytest.raises(IdxFormatError, match="trailing data"):
            load_idx(*paths)

    def test_truncated_header(self, tmp_path):
        images_path = tmp_path / "broken-idx3-ubyte"
        images_path.write_bytes(b"\x00\x00")
        _, labels_path = write_idx_pair(tmp_path, two_sample_pixels(), [1, 2])
        with pytest.raises(TruncatedFileError,
                           match="expected 16 bytes of image header, found 2$"):
            load_idx(images_path, labels_path)

    @pytest.mark.parametrize("cut, message", [
        (7, "expected 8 bytes of label header, found 3$"),
        (1, "expected 2 bytes of label data, found 1$")], ids=["header", "data"])
    def test_truncated_label_file(self, tmp_path, cut, message):
        images_path, labels_path = write_idx_pair(tmp_path, two_sample_pixels(), [1, 2])
        labels_path.write_bytes(labels_path.read_bytes()[:-cut])
        with pytest.raises(TruncatedFileError, match=message):
            load_idx(images_path, labels_path)

    @pytest.mark.parametrize("compress", [False, True])
    def test_pair_of_zero_items_loads_empty(self, tmp_path, compress):
        # numpy cannot infer a (count, -1) shape from 0 items.
        paths = write_idx_pair(tmp_path, np.zeros((0, 784), dtype=np.uint8), [],
                               compress=compress)
        data = load_idx(*paths)
        assert len(data) == 0 and data.images.shape == (0, 784)
        assert data.labels.shape == (0,) and data.labels.dtype == np.int64

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
    return LabeledBitSet(images, labels, classes)


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
        # Arrays come from no file, so the error is not an IdxFormatError.
        with pytest.raises(DimensionError) as caught:
            LabeledBitSet(np.zeros((2, 4), dtype=np.uint8), np.array([1]), 10)
        assert not isinstance(caught.value, IdxFormatError)

    def test_value_checks(self):
        with pytest.raises(ValueError):
            LabeledBitSet(np.full((1, 4), 9, dtype=np.uint8), np.array([0]), 10)
        with pytest.raises(ValueError):
            LabeledBitSet(np.zeros((1, 4), dtype=np.uint8), np.array([10]), 10)

    @pytest.mark.parametrize("pixel", [0.7, 256])
    def test_non_bit_pixels_rejected_before_the_cast(self, pixel):
        images = np.zeros((2, 4))
        images[1, 2] = pixel
        with pytest.raises(ValueError):
            LabeledBitSet(images, [0, 1], 2)

    def test_non_integer_labels_rejected_before_the_cast(self):
        with pytest.raises(ValueError, match="labels must hold integers"):
            LabeledBitSet(np.zeros((3, 4), dtype=np.uint8), [0.9, 1.7, 0.2], 2)

    def test_integer_bool_and_empty_inputs_accepted(self):
        data = LabeledBitSet(np.eye(2, 4, dtype=bool), [1, 0], 2)
        assert data.images.dtype == np.uint8 and data.labels.dtype == np.int64
        assert data.images.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
        assert len(LabeledBitSet(np.zeros((0, 4), dtype=np.uint8), [], 2)) == 0
