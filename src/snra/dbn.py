"""Deep belief network: stacked RBM arrays trained greedily through the
clock-stepped controller, with classification and binary persistence.

The last layer's hidden units are the class outputs.  During its training
the hidden register is clamped to the one-hot label on the feed-forward
clock; reconstruction and update clocks run unchanged.  Inter-layer
transfer uses sampled binary states, matching what the hardware links
actually carry.

Random streams are derived from the model seed plus a purpose tag and an
index, so training, layer transfer, and per-sample evaluation draw from
disjoint reproducible streams regardless of call order.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .array import RbmArray
from .bits import ensure_bits
from .device import PBit, SynapseGrid
from .errors import DimensionError, ModelFormatError
from .fsm import CLOCK_PERIOD_S, CdFsm, layer_sizes

MAGIC = b"SNRA"
FORMAT_VERSION = 1
_FLAG_USE_BIASES = 0x0001

_INIT_TAG = 0
_TRAIN_TAG = 1
_XFER_TAG = 2
_EVAL_TAG = 3

MID_INIT = "mid"
UNIFORM_INIT = "uniform"


def derived_rng(seed, tag, index=0):
    """Deterministic stream for one purpose; disjoint across tags/indices."""
    return np.random.default_rng([int(seed), int(tag), int(index)])


def one_hot(label, width):
    if not 0 <= int(label) < width:
        raise ValueError(f"label {label} outside [0, {width - 1}]")
    bits = np.zeros(width, dtype=np.uint8)
    bits[int(label)] = 1
    return bits


class DbnModel:
    """Stack of RBM arrays plus the device configuration they share."""

    def __init__(self, topology, rng_seed=1, levels=32, delta_d=1,
                 input_scale=1.0, w_min=-1.0, w_max=1.0, use_biases=True,
                 init=MID_INIT):
        sizes = layer_sizes(topology)
        if rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if init not in (MID_INIT, UNIFORM_INIT):
            raise ValueError(f"init must be {MID_INIT!r} or {UNIFORM_INIT!r}")
        self.topology = sizes
        self.rng_seed = int(rng_seed)
        self.levels = int(levels)
        self.delta_d = int(delta_d)
        self.input_scale = float(input_scale)
        self.w_min = float(w_min)
        self.w_max = float(w_max)
        self.use_biases = bool(use_biases)
        self.layers = []
        for index, (n_v, n_h) in enumerate(zip(sizes[:-1], sizes[1:])):
            if init == MID_INIT:
                grid = SynapseGrid(n_v, n_h, levels=self.levels, w_min=self.w_min,
                                   w_max=self.w_max, delta_d=self.delta_d)
            else:
                grid = SynapseGrid.uniform_random(
                    n_v, n_h, derived_rng(self.rng_seed, _INIT_TAG, index),
                    levels=self.levels, w_min=self.w_min, w_max=self.w_max,
                    delta_d=self.delta_d)
            self.layers.append(RbmArray(grid, PBit(self.input_scale),
                                        self.use_biases))

    @property
    def n_classes(self):
        return self.topology[-1]

    def fingerprint(self):
        """Digest over every layer's device state."""
        return "/".join(layer.grid.fingerprint() for layer in self.layers)


@dataclass
class LayerReport:
    """Per-layer training cost."""

    index: int
    shape: tuple
    clocks: int
    pulses: int


@dataclass
class TrainingReport:
    layers: list = field(default_factory=list)

    @property
    def total_clocks(self):
        return sum(layer.clocks for layer in self.layers)

    @property
    def seconds(self):
        """Wall time the hardware would need at the 500 MHz clock."""
        return self.total_clocks * CLOCK_PERIOD_S

    def summary_lines(self):
        lines = [
            f"layer {r.index}: {r.shape[0]}x{r.shape[1]} clocks={r.clocks} pulses={r.pulses}"
            for r in self.layers
        ]
        lines.append(f"total clocks={self.total_clocks} "
                     f"({self.seconds * 1e6:.3f} us at 500 MHz)")
        return lines


def _check_training_data(model, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 2 or images.shape[1] != model.topology[0]:
        raise DimensionError(
            f"images must have shape (n, {model.topology[0]}), got {images.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (images.shape[0],):
        raise DimensionError(
            f"{images.shape[0]} images but {labels.size} labels")
    if labels.size and (labels.min() < 0 or labels.max() >= model.n_classes):
        raise ValueError(f"labels must lie in [0, {model.n_classes - 1}]")
    return images, labels


def greedy_train(model, images, labels, epochs):
    """Layer-wise CD training over the full dataset, bottom to top.

    Lower layers are trained unsupervised, then each sample is pushed one
    layer up with sampled hidden states; the top layer trains with the
    hidden register clamped to the one-hot label.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    images, labels = _check_training_data(model, images, labels)
    data = images
    report = TrainingReport()
    last = len(model.layers) - 1
    for index, layer in enumerate(model.layers):
        controller = CdFsm(layer.n_visible, layer.n_hidden)
        rng = derived_rng(model.rng_seed, _TRAIN_TAG, index)
        pulses_before = layer.grid.pulse_count
        clamp_top = index == last
        for _ in range(epochs):
            for sample, label in zip(data, labels):
                clamp = one_hot(label, layer.n_hidden) if clamp_top else None
                controller.run_cd_iteration(layer, sample, rng, clamp)
        report.layers.append(LayerReport(
            index=index, shape=(layer.n_visible, layer.n_hidden),
            clocks=controller.clock_count,
            pulses=layer.grid.pulse_count - pulses_before))
        if not clamp_top:
            transfer = derived_rng(model.rng_seed, _XFER_TAG, index)
            if len(data):
                data = np.stack([layer.forward(sample, transfer) for sample in data])
            else:
                data = np.zeros((0, layer.n_hidden), dtype=np.uint8)
    return report


def predict(model, image, sample_index=0):
    """Class index for one image.

    Hidden states are sampled layer by layer with a stream derived from
    (model seed, evaluation tag, sample_index), then the top layer is read
    out deterministically; ties resolve to the lowest class index.
    """
    bits = ensure_bits(image, model.topology[0], "image")
    rng = derived_rng(model.rng_seed, _EVAL_TAG, sample_index)
    for layer in model.layers[:-1]:
        bits = layer.forward(bits, rng)
    probabilities = model.layers[-1].probabilities_forward(bits)
    return int(np.argmax(probabilities))


def error_rate(model, images, labels):
    """Fraction of misclassified samples."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.int64)
    if images.ndim != 2 or images.shape[0] == 0:
        raise DimensionError("test set must contain at least one image")
    if labels.shape != (images.shape[0],):
        raise DimensionError(f"{images.shape[0]} images but {labels.size} labels")
    wrong = sum(int(predict(model, images[k], k) != labels[k])
                for k in range(images.shape[0]))
    return wrong / images.shape[0]


def to_bytes(model):
    """Serialize a model.

    Layout (little-endian): magic "SNRA"; u16 format version; u16 layer
    count; u32 per layer size; u16 levels; u16 delta_d; f64 input_scale;
    f64 w_min; f64 w_max; u64 rng_seed; u16 flags (bit 0 = biases on);
    then per RBM layer the u16 state grid row-major, the u16 visible bias
    states, and the u16 hidden bias states.
    """
    if model.levels > 0xFFFF or model.delta_d > 0xFFFF:
        raise ModelFormatError("levels and delta_d must fit in 16 bits")
    sizes = model.topology
    flags = _FLAG_USE_BIASES if model.use_biases else 0
    out = [MAGIC,
           struct.pack("<HH", FORMAT_VERSION, len(sizes)),
           struct.pack(f"<{len(sizes)}I", *sizes),
           struct.pack("<HH", model.levels, model.delta_d),
           struct.pack("<ddd", model.input_scale, model.w_min, model.w_max),
           struct.pack("<QH", model.rng_seed, flags)]
    for layer in model.layers:
        grid = layer.grid
        out.append(grid.states.astype("<u2").tobytes(order="C"))
        out.append(grid.visible_bias_states.astype("<u2").tobytes())
        out.append(grid.hidden_bias_states.astype("<u2").tobytes())
    return b"".join(out)


class _Reader:
    def __init__(self, data):
        self.data = data
        self.offset = 0

    def take(self, count, what):
        end = self.offset + count
        if end > len(self.data):
            raise ModelFormatError(f"model file truncated reading {what}")
        chunk = self.data[self.offset:end]
        self.offset = end
        return chunk

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def from_bytes(data):
    """Deserialize a model; rejects bad magic, version, or sizes.

    The payload length the header's layer sizes imply is checked against
    the data before any device grid is allocated.
    """
    reader = _Reader(data)
    if reader.take(4, "magic") != MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    version, n_layers = reader.unpack("<HH", "header")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    try:
        sizes = layer_sizes(reader.unpack(f"<{n_layers}I", "topology"))
    except DimensionError as exc:
        raise ModelFormatError(f"corrupt topology: {exc}") from None
    levels, delta_d = reader.unpack("<HH", "device config")
    input_scale, w_min, w_max = reader.unpack("<ddd", "device config")
    rng_seed, flags = reader.unpack("<QH", "seed/flags")
    payload = 2 * sum(n_v * n_h + n_v + n_h for n_v, n_h in zip(sizes[:-1], sizes[1:]))
    remaining = len(data) - reader.offset
    if remaining != payload:
        raise ModelFormatError(
            f"model payload is {remaining} bytes, topology {sizes} needs {payload}")
    model = DbnModel(sizes, rng_seed=rng_seed, levels=levels, delta_d=delta_d,
                     input_scale=input_scale, w_min=w_min, w_max=w_max,
                     use_biases=bool(flags & _FLAG_USE_BIASES))
    for layer in model.layers:
        grid = layer.grid
        n_v, n_h = grid.n_visible, grid.n_hidden
        states = np.frombuffer(reader.take(2 * n_v * n_h, "state grid"),
                               dtype="<u2").astype(np.int64)
        visible = np.frombuffer(reader.take(2 * n_v, "visible bias"),
                                dtype="<u2").astype(np.int64)
        hidden = np.frombuffer(reader.take(2 * n_h, "hidden bias"),
                               dtype="<u2").astype(np.int64)
        try:
            grid.load_states(states.reshape(n_v, n_h), visible, hidden)
        except (ValueError, DimensionError) as exc:
            raise ModelFormatError(f"corrupt device state: {exc}") from None
    return model


def save_model(model, path):
    with open(path, "wb") as handle:
        handle.write(to_bytes(model))


def load_model(path):
    with open(path, "rb") as handle:
        return from_bytes(handle.read())
