import copy
import hashlib
import pickle
import struct

import numpy as np
import pytest
from test_dataset import synthetic_orthogonal

from snra import dbn
from snra.errors import DimensionError, IdxFormatError, ModelFormatError
from snra.fsm import CdFsm, train_clock_budget


def small_model(seed=3):
    return dbn.DbnModel((8, 4, 2), rng_seed=seed, levels=16, init=dbn.UNIFORM_INIT)


def training_set():
    data = synthetic_orthogonal(8, 2, 6, noise_flip_prob=0.1, seed=1)
    return data.images, data.labels


def header(sizes, version=dbn.FORMAT_VERSION, levels=32, delta_d=1,
           input_scale=1.0, w_min=-1.0, w_max=1.0):
    """A complete model header: everything before the device states."""
    return (dbn.MAGIC + struct.pack("<HH", version, len(sizes))
            + struct.pack(f"<{len(sizes)}I", *sizes)
            + struct.pack("<HH", levels, delta_d)
            + struct.pack("<ddd", input_scale, w_min, w_max)
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

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["deepcopy", "pickle"])
    def test_copied_model_trains_as_a_loaded_one(self, clone):
        # A trained model's copy holds every state array it trains on.
        images, labels = training_set()
        model = small_model()
        dbn.greedy_train(model, images, labels, 1)
        copied, loaded = clone(model), dbn.from_bytes(dbn.to_bytes(model))
        for trained in (copied, loaded):
            dbn.greedy_train(trained, images, labels, 1)
        assert copied.fingerprint() == loaded.fingerprint() != model.fingerprint()
        for grid in (layer.grid for layer in copied.layers):
            assert grid.weights().tolist() == grid.weight(grid.states).tolist()

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

    @pytest.mark.parametrize("array, position", [
        ("states", 7), ("visible_bias_states", 9), ("hidden_bias_states", 13)])
    def test_out_of_range_state_in_the_second_layer_rejected(self, array, position):
        # The second layer of 3x2x4 is 2x4: its payload holds 8 weight
        # states, then 2 visible and 4 hidden bias states.  Each case
        # writes the last state of one of them.
        model = dbn.DbnModel((3, 2, 4), levels=8)
        data = bytearray(dbn.to_bytes(model))
        start = len(header(model.topology)) + 2 * (3 * 2 + 3 + 2) + 2 * position
        data[start:start + 2] = struct.pack("<H", 7)
        grid = model.layers[1].grid
        arrays = {name: getattr(grid, name).astype(np.int64)
                  for name in ("states", "visible_bias_states", "hidden_bias_states")}
        arrays[array].reshape(-1)[-1] = 7
        grid.load_states(**arrays)
        assert dbn.from_bytes(bytes(data)).fingerprint() == model.fingerprint()
        data[start:start + 2] = struct.pack("<H", 8)
        with pytest.raises(ModelFormatError, match="corrupt device state"):
            dbn.from_bytes(bytes(data))

    @pytest.mark.parametrize("flags, unknown", [(0x0002, "0x0002"), (0xFFFF, "0xfffe")])
    def test_unknown_flag_bits_rejected_before_any_grid(self, monkeypatch, flags, unknown):
        # Only bit 0 is defined; a model loaded past another bit would save
        # as a different file.
        data = dbn.to_bytes(dbn.DbnModel((2, 1)))
        at = len(header((2, 1))) - 2
        assert struct.unpack_from("<H", data, at) == (1,)

        def no_grid(*args, **kwargs):
            raise AssertionError("grid built before the flags were checked")

        monkeypatch.setattr(dbn, "SynapseGrid", no_grid)
        with pytest.raises(ModelFormatError, match=f"^unknown model flag bits {unknown}$"):
            dbn.from_bytes(data[:at] + struct.pack("<H", flags) + data[at + 2:])

    def test_bad_topology_rejected(self):
        for sizes in ((784,), (784, 0)):
            with pytest.raises(ModelFormatError):
                dbn.from_bytes(header(sizes))

    @pytest.mark.parametrize("config", [
        {"levels": 0}, {"levels": 1}, {"delta_d": 0}, {"input_scale": float("nan")},
        {"w_min": 1.0, "w_max": 1.0}, {"w_min": 1.0, "w_max": -1.0}])
    def test_bad_device_config_rejected(self, config):
        # a 2x1 model's all-zero states are valid at any levels >= 1
        with pytest.raises(ModelFormatError):
            dbn.from_bytes(header((2, 1), **config) + bytes(2 * (2 + 2 + 1)))

    @pytest.mark.parametrize("config", [
        {"rng_seed": 2**64}, {"levels": 0x10000}, {"delta_d": 0x10000},
        {"levels": 10**20}, {"delta_d": 10**20},
        # Non-integers are rejected, not truncated.
        {"rng_seed": 2.9}, {"levels": 32.5}, {"delta_d": 1.5},
        {"rng_seed": np.float64(7.0)}, {"levels": "32"}])
    def test_unsavable_settings_rejected_before_any_grid(self, monkeypatch, config):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built before the settings were checked")

        monkeypatch.setattr(dbn, "SynapseGrid", no_grid)
        with pytest.raises(ValueError):
            dbn.DbnModel((2, 1), **config)

    def test_trained_device_state_is_pinned(self):
        # Digests of this run recorded when the states were stored as int64:
        # float32 storage wherever it is exact, and exact nets, leave the
        # device, its fingerprint and its file byte for byte as they were.
        data = synthetic_orthogonal(12, 3, 14, noise_flip_prob=0.1, seed=2)
        model = dbn.DbnModel((12, 6, 3), rng_seed=7, levels=16, init=dbn.UNIFORM_INIT)
        report = dbn.greedy_train(model, data.images[:40], data.labels[:40], 1)
        assert [layer.pulses for layer in report.layers] == [940, 338]
        assert model.fingerprint() == (
            "8d95c0766f1cd4153504507b9a52459196d227fb8ab1ba2541e467fea42fd9a3/"
            "dc0c99ef3a4ee24c6f54b5cfdf3bd2bc35c8520e7a299a6524b8f9edb35e0531")
        assert hashlib.sha256(dbn.to_bytes(model)).hexdigest() == (
            "ba95f656eb9d1c105cb8ef562a3d722aebbf2cea24587b1222d5cc21e13e481d")
        assert dbn.error_rate(model, data.images[:40], data.labels[:40]) == 0.7

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError, match="init must be 'mid' or 'uniform'"):
            dbn.DbnModel((2, 1), init="x")

    @pytest.mark.parametrize("use_biases", [True, False])
    def test_every_setting_round_trips_in_the_field_order(self, use_biases):
        settings = {"levels": 5, "delta_d": 3, "input_scale": 1.5, "w_min": -0.5,
                    "w_max": 2.0, "rng_seed": 9}
        model = dbn.DbnModel((3, 2), use_biases=use_biases, init=dbn.UNIFORM_INIT, **settings)
        data = dbn.to_bytes(model)
        expected = header((3, 2), levels=5, delta_d=3, input_scale=1.5, w_min=-0.5, w_max=2.0)
        flags = struct.pack("<QH", 9, int(use_biases))
        assert data[:len(expected)] == expected[:-len(flags)] + flags
        copy = dbn.from_bytes(data)
        assert {name: getattr(copy, name) for name in settings} == settings
        assert copy.use_biases is use_biases
        assert copy.fingerprint() == model.fingerprint()
        assert dbn.to_bytes(copy) == data

    def test_largest_seed_round_trips(self):
        model = dbn.DbnModel((2, 1), rng_seed=2**64 - 1, levels=0xFFFF, delta_d=0xFFFF)
        copy = dbn.from_bytes(dbn.to_bytes(model))
        assert (copy.rng_seed, copy.levels, copy.delta_d) == (2**64 - 1, 0xFFFF, 0xFFFF)

    def test_payload_checked_before_allocation(self, monkeypatch):
        # A grid of 100000x100000 cells would need about 80 GB, so the
        # declared sizes must be rejected before any model is built.
        def no_model(*args, **kwargs):
            raise AssertionError("DbnModel built before the payload length was checked")

        monkeypatch.setattr(dbn, "DbnModel", no_model)
        with pytest.raises(ModelFormatError):
            dbn.from_bytes(header((100000, 100000)) + bytes(30))


LAYER_SETTINGS = ("levels", "delta_d", "w_min", "w_max", "use_biases")


def layer_record(model):
    """Each layer's shape and device settings, as its grid and neuron hold them."""
    return [(layer.n_visible, layer.n_hidden, layer.neuron.input_scale,
             *(getattr(layer.grid, name) for name in LAYER_SETTINGS))
            for layer in model.layers]


class TestModelRecord:
    def test_the_layers_are_the_only_record(self):
        model = dbn.DbnModel((4, 3, 2))
        saved = dbn.to_bytes(model)
        assert set(vars(model)) == {"rng_seed", "layers"}
        assert model.layers[0].neuron is model.layers[1].neuron
        for name, value in [("topology", (8, 2)), ("input_scale", 2.0), ("levels", 64),
                            ("delta_d", 2), ("w_min", -2.0), ("w_max", 2.0),
                            ("use_biases", False)]:
            with pytest.raises(AttributeError):
                setattr(model, name, value)
        assert dbn.to_bytes(model) == saved

    @pytest.mark.parametrize("use_biases", [True, False])
    def test_loaded_layers_hold_the_settings_of_the_saved_ones(self, use_biases):
        model = dbn.DbnModel((6, 4, 3, 2), rng_seed=5, levels=7, delta_d=2, input_scale=0.5,
                             w_min=-3.0, w_max=0.25, use_biases=use_biases,
                             init=dbn.UNIFORM_INIT)
        expected = [(n_v, n_h, 0.5, 7, 2, -3.0, 0.25, use_biases)
                    for n_v, n_h in ((6, 4), (4, 3), (3, 2))]
        assert layer_record(model) == expected
        assert layer_record(dbn.from_bytes(dbn.to_bytes(model))) == expected


def classify_alone(model, image, index):
    """The class of one image read through its own evaluation stream: the
    reference for the block read."""
    rng = dbn.derived_rng(model.rng_seed, dbn._EVAL_TAG, index)
    bits = image
    for layer in model.layers[:-1]:
        bits = layer.forward(bits, rng)
    return int(np.argmax(model.layers[-1].probabilities_forward(bits)))


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

    # Two full blocks and a partial one; three RBMs, so each sample's stream
    # continues from the first sampled layer into the second.
    COUNT = 2 * dbn._BLOCK_ROWS + 37

    def test_block_reads_equal_each_sample_read_alone(self):
        model = dbn.DbnModel((8, 6, 5, 3), rng_seed=11, levels=16, init=dbn.UNIFORM_INIT)
        rng = np.random.default_rng(4)
        images = rng.integers(0, 2, (self.COUNT, 8), dtype=np.uint8)
        labels = rng.integers(0, 3, self.COUNT)
        reference = np.array([classify_alone(model, images[k], k) for k in range(self.COUNT)])
        assert len(set(reference.tolist())) == 3
        assert [dbn.predict(model, images[k], k) for k in range(self.COUNT)] == reference.tolist()
        assert dbn.error_rate(model, images, labels) == np.mean(reference != labels)
        assert dbn.error_rate(model, images, reference) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("first", [0, 2**32 - 1, 2**32, 2**64, 2**96 + 5])
    def test_stream_rows_equal_derived_rng(self, seed, first):
        # 3 to 7 entropy words, past SeedSequence's pool of 4; the block
        # starting at 2**32 - 1 crosses from one index word to two.
        streams = dbn._SampleStreams(seed, first, 3, 13)
        drawn = np.hstack([streams.random((3, 5)), streams.random((3, 8))])
        expected = [dbn.derived_rng(seed, dbn._EVAL_TAG, first + k).random(13) for k in range(3)]
        np.testing.assert_array_equal(drawn, expected)


def per_sample_transfer_train(model, images, labels, epochs):
    """greedy_train with each sample pushed up one layer by its own forward
    call on the transfer stream: the reference for the block read."""
    data = images
    last = len(model.layers) - 1
    for index, layer in enumerate(model.layers):
        controller = CdFsm(layer.n_visible, layer.n_hidden)
        rng = dbn.derived_rng(model.rng_seed, dbn._TRAIN_TAG, index)
        for _ in range(epochs):
            for sample, label in zip(data, labels):
                clamp = dbn.one_hot(label, layer.n_hidden) if index == last else None
                controller.run_cd_iteration(layer, sample, rng, clamp)
        if index < last:
            transfer = dbn.derived_rng(model.rng_seed, dbn._XFER_TAG, index)
            data = np.stack([layer.forward(sample, transfer) for sample in data])


class TestBlockReads:
    # Two full blocks and a partial one, so a rule that restarts or
    # reorders per block shows.
    COUNT = 2 * dbn._BLOCK_ROWS + 37

    def test_error_rate_reads_each_sample_as_predict(self):
        images, labels = training_set()
        model = small_model()
        dbn.greedy_train(model, images, labels, 2)
        test = synthetic_orthogonal(8, 2, self.COUNT // 2 + 1, noise_flip_prob=0.2, seed=5)
        images, labels = test.images[:self.COUNT], test.labels[:self.COUNT]
        predicted = np.array([dbn.predict(model, images[k], k) for k in range(self.COUNT)])
        assert dbn.error_rate(model, images, labels) == np.mean(predicted != labels)
        assert dbn.error_rate(model, images, predicted) == 0.0

    def test_greedy_train_transfers_as_the_per_sample_loop(self):
        data = synthetic_orthogonal(784, 8, 40, noise_flip_prob=0.1, seed=2)
        assert len(data) > dbn._BLOCK_ROWS
        blocked = dbn.DbnModel((784, 50, 20, 10), rng_seed=6)
        dbn.greedy_train(blocked, data.images, data.labels, 1)
        reference = dbn.DbnModel((784, 50, 20, 10), rng_seed=6)
        per_sample_transfer_train(reference, data.images, data.labels, 1)
        assert blocked.fingerprint() == reference.fingerprint()

    def test_empty_training_set_leaves_every_layer_untrained(self):
        model = small_model()
        report = dbn.greedy_train(model, np.zeros((0, 8), dtype=np.uint8), [], 1)
        assert report.total_clocks == 0
        assert model.fingerprint() == small_model().fingerprint()


class TestLargestTopology:
    def test_784x800x800x10_trains_and_round_trips(self):
        # The paper's largest DBN; each layer pays its n_hidden + 3 clocks
        # per sample, and the trained device state survives serialization.
        topology = (784, 800, 800, 10)
        rng = np.random.default_rng(9)
        images = rng.integers(0, 2, (3, 784))
        labels = np.arange(3)
        model = dbn.DbnModel(topology, rng_seed=4)
        untrained = model.fingerprint()
        report = dbn.greedy_train(model, images, labels, epochs=2)
        assert [layer.shape for layer in report.layers] == list(zip(topology, topology[1:]))
        for layer in report.layers:
            assert layer.clocks == train_clock_budget(layer.shape, 3, 2)[0]
            assert layer.pulses > 0
        assert report.total_clocks == train_clock_budget(topology, 3, 2)[0]
        assert model.fingerprint() != untrained
        assert dbn.from_bytes(dbn.to_bytes(model)).fingerprint() == model.fingerprint()


class TestLabelValidation:
    @pytest.mark.parametrize("labels", [[99, -5, 7], [0, 1, 2], [-1, 0, 1]])
    @pytest.mark.parametrize("run", [
        lambda model, images, labels: dbn.greedy_train(model, images, labels, 1),
        dbn.error_rate])
    def test_labels_outside_the_top_layer_rejected(self, run, labels):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 1\]"):
            run(small_model(), np.zeros((3, 8), dtype=np.uint8), labels)

    @pytest.mark.parametrize("labels", [[0.9, 1.7, 0.2], [1.9, 0.5, 1.2],
                                        np.array([1.0, 0.0, 1.0])])
    @pytest.mark.parametrize("run", [
        lambda model, images, labels: dbn.greedy_train(model, images, labels, 1),
        dbn.error_rate])
    def test_non_integer_labels_rejected(self, run, labels):
        model = small_model()
        with pytest.raises(ValueError, match="labels must hold integers"):
            run(model, np.zeros((3, 8), dtype=np.uint8), labels)
        assert model.fingerprint() == small_model().fingerprint()

    @pytest.mark.parametrize("run", [
        lambda model, images, labels: dbn.greedy_train(model, images, labels, 1),
        dbn.error_rate])
    def test_count_mismatch(self, run):
        model = small_model()
        with pytest.raises(DimensionError, match="3 images but 2 labels") as caught:
            run(model, np.zeros((3, 8), dtype=np.uint8), [0, 1])
        assert not isinstance(caught.value, IdxFormatError)
        assert model.fingerprint() == small_model().fingerprint()

    def test_integer_label_types_train_alike(self):
        images, labels = training_set()
        reference = small_model()
        dbn.greedy_train(reference, images, labels, 1)
        for same in (labels.tolist(), labels.astype(np.uint8)):
            model = small_model()
            dbn.greedy_train(model, images, same, 1)
            assert model.fingerprint() == reference.fingerprint()
            assert dbn.error_rate(model, images, same) == dbn.error_rate(reference, images, labels)


class TestImageValidation:
    @pytest.mark.parametrize("pixel", [257, 256, 0.7])
    def test_non_bit_pixels_rejected(self, pixel):
        images, labels = training_set()
        bad = images.astype(np.float64 if isinstance(pixel, float) else np.int64)
        bad[0, 0] = pixel
        model = small_model()
        with pytest.raises(ValueError):
            dbn.greedy_train(model, bad, labels, 1)
        with pytest.raises(ValueError):
            dbn.error_rate(model, bad, labels)
        assert model.fingerprint() == small_model().fingerprint()

    @pytest.mark.parametrize("run", [
        lambda model, images, labels: dbn.greedy_train(model, images, labels, 1),
        dbn.error_rate])
    @pytest.mark.parametrize("width", [7, 9])
    def test_images_of_another_width_rejected(self, run, width):
        model = small_model()
        with pytest.raises(DimensionError, match=rf"images must have shape \(n, 8\), "
                                                 rf"got \(3, {width}\)"):
            run(model, np.zeros((3, width), dtype=np.uint8), [0, 1, 0])
        assert model.fingerprint() == small_model().fingerprint()

    def test_error_rate_of_no_images_rejected(self):
        with pytest.raises(DimensionError, match="at least one image"):
            dbn.error_rate(small_model(), np.zeros((0, 8), dtype=np.uint8), [])

    def test_bool_and_integer_images_accepted(self):
        images, labels = training_set()
        reference = small_model()
        dbn.greedy_train(reference, images, labels, 1)
        for dtype in (bool, np.int64):
            model = small_model()
            dbn.greedy_train(model, images.astype(dtype), labels, 1)
            assert model.fingerprint() == reference.fingerprint()
            assert (dbn.error_rate(model, images.astype(dtype), labels)
                    == dbn.error_rate(reference, images, labels))
