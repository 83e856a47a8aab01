import struct

import numpy as np
import pytest

from snra import dbn
from snra.dataset import synthetic_orthogonal
from snra.errors import ModelFormatError


def small_model(seed=3):
    return dbn.DbnModel((8, 4, 2), rng_seed=seed, levels=16, init=dbn.UNIFORM_INIT)


def training_set():
    data = synthetic_orthogonal(8, 2, 6, noise_flip_prob=0.1, seed=1)
    return data.images, data.labels


def header(sizes, version=dbn.FORMAT_VERSION):
    """A complete model header: everything before the device states."""
    return (dbn.MAGIC + struct.pack("<HH", version, len(sizes))
            + struct.pack(f"<{len(sizes)}I", *sizes)
            + struct.pack("<HH", 32, 1) + struct.pack("<ddd", 1.0, -1.0, 1.0)
            + struct.pack("<QH", 1, 1))


class TestSerialization:
    def test_round_trip(self):
        model = small_model()
        dbn.greedy_train(model, *training_set(), 1)
        data = dbn.to_bytes(model)
        copy = dbn.from_bytes(data)
        assert copy.fingerprint() == model.fingerprint()
        assert copy.topology == model.topology
        assert dbn.to_bytes(copy) == data

    def test_every_truncation_rejected(self):
        data = dbn.to_bytes(small_model())
        for end in range(len(data)):
            with pytest.raises(ModelFormatError):
                dbn.from_bytes(data[:end])

    def test_bad_magic_version_and_trailing_bytes(self):
        data = dbn.to_bytes(small_model())
        with pytest.raises(ModelFormatError):
            dbn.from_bytes(b"SNRB" + data[4:])
        with pytest.raises(ModelFormatError):
            dbn.from_bytes(data[:4] + struct.pack("<H", dbn.FORMAT_VERSION + 1) + data[6:])
        with pytest.raises(ModelFormatError):
            dbn.from_bytes(data + b"\x00")

    def test_bad_topology_rejected(self):
        for sizes in ((784,), (784, 0)):
            with pytest.raises(ModelFormatError):
                dbn.from_bytes(header(sizes))

    def test_payload_checked_before_allocation(self, monkeypatch):
        # A grid of 100000x100000 cells would need about 80 GB, so the
        # declared sizes must be rejected before any model is built.
        def no_model(*args, **kwargs):
            raise AssertionError("DbnModel built before the payload length was checked")

        monkeypatch.setattr(dbn, "DbnModel", no_model)
        with pytest.raises(ModelFormatError):
            dbn.from_bytes(header((100000, 100000)) + bytes(30))


class TestDerivedStreams:
    def test_training_independent_of_prior_evaluation(self):
        images, labels = training_set()
        plain = small_model()
        dbn.greedy_train(plain, images, labels, 1)
        evaluated = small_model()
        dbn.error_rate(evaluated, images, labels)
        assert evaluated.fingerprint() == small_model().fingerprint()  # reads only
        dbn.greedy_train(evaluated, images, labels, 1)
        assert evaluated.fingerprint() == plain.fingerprint()
        assert plain.fingerprint() != small_model().fingerprint()

    def test_predict_is_repeatable_per_sample_index(self):
        model = small_model()
        image = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        assert ([dbn.predict(model, image, k) for k in range(10)]
                == [dbn.predict(model, image, k) for k in range(10)])
