"""Deep belief network: stacked RBM arrays trained greedily through the
CD controller's fused iteration (``CdFsm.run_cd_iteration``), with
classification and binary persistence.

The last layer's hidden units are the class outputs.  During its training
the hidden register is clamped to the one-hot label on the feed-forward
clock; reconstruction and update clocks run unchanged.  Inter-layer
transfer uses sampled binary states, matching what the hardware links
actually carry.

Evaluation and layer transfer read the samples in blocks of rows: each
layer's nets for a whole block come from one exact product with its
device states, read once per block, not once per sample.  ``predict`` is
the one-row case of the same read.

``derived_rng`` defines every random stream from the model seed, a purpose
tag and an index, so training, layer transfer, and per-sample evaluation
draw from disjoint reproducible streams regardless of call order.  Transfer
draws a block's rows in order from its one stream; evaluation derives a
block's per-sample streams at once, each bit for bit its ``derived_rng``
stream, so no bit depends on where the blocks start.  The first row's
SeedSequence seeds the block's one generator; the entropy of the later
rows is mixed into their SeedSequence pools in one vectorized pass, and
their generator states are hashed from the pools in another.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .array import RbmArray
from .bits import ensure_bits, integer_setting
from .dataset import LabeledBitSet
from .device import MAX_LEVELS, PBit, SynapseGrid
from .errors import DimensionError, ModelFormatError
from .fsm import CLOCK_HZ, CLOCK_PERIOD_S, CdFsm, layer_sizes

MAGIC = b"SNRA"
FORMAT_VERSION = 1
_FLAG_USE_BIASES = 0x0001

# The model file's fixed fields, little-endian, written and read by the same
# layouts: magic, format version, layer count; then, after the u32 layer
# sizes, the ``DbnModel`` settings of ``_SETTINGS`` and flags.
_HEADER = struct.Struct("<4sHH")
_CONFIG = struct.Struct("<HHdddQH")
_SETTINGS = ("levels", "delta_d", "input_scale", "w_min", "w_max", "rng_seed")

_INIT_TAG = 0
_TRAIN_TAG = 1
_XFER_TAG = 2
_EVAL_TAG = 3

MID_INIT = "mid"
UNIFORM_INIT = "uniform"

# SeedSequence.generate_state XORs output word i with _HASH[i], then
# multiplies it by _HASH[i + 1]; and PCG64's 128-bit multiplier.
_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) % (1 << 32) for i in range(9)],
                 dtype=np.uint32)
_PCG64_MULT, _U128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1

# Samples per block read.  A block's float copy and nets stay a few MB
# at 784x500 however many samples a call reads.
_BLOCK_ROWS = 256


def derived_rng(seed, tag, index=0):
    """Deterministic stream for one purpose; disjoint across tags/indices."""
    return np.random.default_rng([integer_setting(seed, "seed"), integer_setting(tag, "tag"),
                                  integer_setting(index, "index")])


def _words(n):
    """The uint32 words of ``n`` >= 0, low first, as SeedSequence reads an int."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _hashmix_constants(calls):
    """The XOR and multiplier columns of SeedSequence's hashmix ``calls``."""
    xor = np.array([[0x43B0D7E5 * pow(0x931E8875, call, 1 << 32) % (1 << 32)] for call in calls],
                   dtype=np.uint32)
    return xor, xor * np.uint32(0x931E8875)


# SeedSequence's entropy mix (seed_seq_fe, O'Neill's PCG report).  Hashmix
# call c XORs a word with 0x43B0D7E5 * 0x931E8875**c, multiplies it by the
# next such constant and folds its high half into its low one; mixing a
# hashed word y into a pool lane x gives _MIX_L * x - _MIX_R * y, folded
# alike.  Calls 0-3 fill the pool's 4 lanes, and calls 4-15 mix each source
# lane into the other three in lane order (the source lane's own column
# goes unused).  Each constant is a column over the lanes, which a block
# tiles to its width once, so every step is one ufunc over equal shapes.
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SPREAD_CALLS = [[4 + 3 * source + lane - (lane > source) for lane in range(4)]
                 for source in range(4)]
_MIX_COLUMNS = np.stack(
    [np.full((4, 1), constant, dtype=np.uint32) for constant in (_MIX_L, _MIX_R, 16)]
    + [column for calls in (range(4), *_SPREAD_CALLS) for column in _hashmix_constants(calls)])


def _hashmix(words, xor, multiplier, shift):
    hashed = words ^ xor
    hashed *= multiplier
    hashed ^= hashed >> shift
    return hashed


def _mix(pool, hashed, left, right, shift):
    mixed = left * pool
    mixed -= right * hashed
    mixed ^= mixed >> shift
    return mixed


def _mix_pools(words, lengths):
    """``np.random.SeedSequence(words[:lengths[k], k]).pool`` as column k of
    a (4, count) array, for every column at once.  ``words`` holds at least
    the pool's 4 rows of uint32, zero past each column's length."""
    left, right, shift, *columns = np.repeat(_MIX_COLUMNS, words.shape[1], axis=2)
    fill, *spread = zip(columns[::2], columns[1::2])
    pool = _hashmix(words[:4], *fill, shift)
    for source, constants in enumerate(spread):
        mixed = _mix(pool, _hashmix(pool[source], *constants, shift), left, right, shift)
        mixed[source] = pool[source]
        pool = mixed
    # Each word past the pool takes calls 4 * position + lane, one per lane,
    # in the columns that hold it.
    for position in range(4, len(words)):
        constants = _hashmix_constants(range(4 * position, 4 * position + 4))
        mixed = _mix(pool, _hashmix(words[position], *constants, shift), left, right, shift)
        np.copyto(pool, mixed, where=lengths > position)
    return pool


def _entropy_words(prefix, first, count):
    """The entropy of streams ``first`` to ``first + count - 1``: column k
    holds ``prefix + _words(first + k)`` in at least 4 rows, zero past its
    length, and ``lengths[k]`` is that length."""
    low = first & 0xFFFFFFFF
    # Index words above the low one are first's, or one more once the low word wraps.
    wrap = min(count, (1 << 32) - low)
    heads = [(prefix + _words(first >> 32 << 32), slice(0, wrap))]
    if wrap < count:
        heads.append((prefix + _words((first >> 32) + 1 << 32), slice(wrap, count)))
    words = np.zeros((max(4, len(heads[-1][0])), count), dtype=np.uint32)
    lengths = np.empty(count, dtype=np.intp)
    for head, columns in heads:
        words[:len(head), columns] = np.array(head, dtype=np.uint32)[:, np.newaxis]
        lengths[columns] = len(head)
    words[len(prefix)] = np.uint32(low) + np.arange(count, dtype=np.uint32)  # wraps at 2**32
    return words, lengths


def _pcg64_states(pools):
    """The ``(state, inc)`` of the PCG64 seeded from each pool column of
    ``_mix_pools``, the pools hashed in one step as ``generate_state`` does."""
    # Row-major copies of the pools; each pool word feeds two output words.
    hashed = pools.T.copy().reshape(-1, 1, 4) ^ _HASH[:8].reshape(2, 4)
    hashed *= _HASH[1:].reshape(2, 4)
    hashed ^= hashed >> 16
    for s_high, s_low, i_high, i_low in hashed.astype("<u4").reshape(-1, 8).view("<u8").tolist():
        inc = ((i_high << 64 | i_low) << 1 | 1) & _U128
        yield ((inc + (s_high << 64 | s_low)) * _PCG64_MULT + inc) & _U128, inc


def _blocks(count):
    """Slices of at most ``_BLOCK_ROWS`` consecutive samples covering ``count``."""
    return [slice(start, start + _BLOCK_ROWS) for start in range(0, count, _BLOCK_ROWS)]


def one_hot(label, width):
    bits = np.zeros(width, dtype=np.uint8)
    bits[integer_setting(label, "label", high=width - 1)] = 1
    return bits


class DbnModel:
    """Stack of RBM arrays and the seed of their random streams.  The layers
    are the one record of the topology and of the device settings they
    share, which the model's read-only properties of the same names view."""

    def __init__(self, topology, rng_seed=1, levels=32, delta_d=1,
                 input_scale=1.0, w_min=-1.0, w_max=1.0, use_biases=True,
                 init=MID_INIT):
        sizes = layer_sizes(topology)
        # The model file stores the seed as u64 and levels and delta_d as u16;
        # the grids and the neuron check every other setting.
        self.rng_seed = integer_setting(rng_seed, "rng_seed", high=(1 << 64) - 1)
        levels = integer_setting(levels, "levels", low=2, high=MAX_LEVELS)
        delta_d = integer_setting(delta_d, "delta_d", low=1, high=0xFFFF)
        if init not in (MID_INIT, UNIFORM_INIT):
            raise ValueError(f"init must be {MID_INIT!r} or {UNIFORM_INIT!r}")
        neuron = PBit(input_scale)
        device = dict(levels=levels, delta_d=delta_d, w_min=w_min, w_max=w_max,
                      use_biases=use_biases)
        self.layers = []
        for index, (n_v, n_h) in enumerate(zip(sizes[:-1], sizes[1:])):
            grid = (SynapseGrid(n_v, n_h, **device) if init == MID_INIT else
                    SynapseGrid.uniform_random(
                        n_v, n_h, derived_rng(self.rng_seed, _INIT_TAG, index), **device))
            self.layers.append(RbmArray(grid, neuron))

    @property
    def topology(self):
        return (self.layers[0].n_visible, *(layer.n_hidden for layer in self.layers))

    levels, delta_d, w_min, w_max, use_biases = (
        property(lambda model, name=name: getattr(model.layers[0].grid, name))
        for name in ("levels", "delta_d", "w_min", "w_max", "use_biases"))
    input_scale = property(lambda model: model.layers[0].neuron.input_scale)

    @property
    def n_classes(self):
        return self.layers[-1].n_hidden

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
        """Wall time the hardware would need at ``CLOCK_HZ``."""
        return self.total_clocks * CLOCK_PERIOD_S

    def summary_lines(self):
        lines = [
            f"layer {r.index}: {r.shape[0]}x{r.shape[1]} clocks={r.clocks} pulses={r.pulses}"
            for r in self.layers
        ]
        lines.append(f"total clocks={self.total_clocks} "
                     f"({self.seconds * 1e6:.3f} us at {CLOCK_HZ / 1e6:g} MHz)")
        return lines


def _check_labeled_data(model, images, labels):
    """Checked images as wide as the bottom layer, and labels of the top
    layer's classes; used by both training and evaluation."""
    data = LabeledBitSet(images, labels, model.n_classes)
    if data.width != model.topology[0]:
        raise DimensionError(
            f"images must have shape (n, {model.topology[0]}), got {data.images.shape}")
    return data.images, data.labels


def greedy_train(model, images, labels, epochs):
    """Layer-wise CD training over the full dataset, bottom to top.

    Lower layers are trained unsupervised, then each sample is pushed one
    layer up with sampled hidden states; the top layer trains with the
    hidden register clamped to the one-hot label.
    """
    epochs = integer_setting(epochs, "epochs")
    images, labels = _check_labeled_data(model, images, labels)
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
            hidden = np.empty((len(data), layer.n_hidden), dtype=np.uint8)
            for block in _blocks(len(data)):
                hidden[block] = layer.forward(data[block], transfer)
            data = hidden
    return report


class _SampleStreams:
    """Row k holds the first ``width`` uniforms of ``derived_rng(seed,
    _EVAL_TAG, first + k)``.  Row 0's SeedSequence seeds the block's one
    PCG64; the entropy of rows 1, 2, ... is mixed into their pools in one
    vectorized pass (``_mix_pools``), and the PCG64 is set to each later
    row's ``_pcg64_states`` state in turn, so a one-row block mixes nothing.
    ``random`` hands out the next ``shape[1]`` columns, layer after layer."""

    def __init__(self, seed, first, count, width):
        self._draws = np.empty((count, width))
        self._used = 0
        prefix = _words(seed) + _words(_EVAL_TAG)
        bit_generator = np.random.PCG64(
            np.random.SeedSequence(np.array(prefix + _words(first), dtype=np.uint32)))
        generator = np.random.Generator(bit_generator)
        generator.random(out=self._draws[0])
        if count > 1:
            pools = _mix_pools(*_entropy_words(prefix, first + 1, count - 1))
            for row, (state, inc) in zip(self._draws[1:], _pcg64_states(pools)):
                bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                       "state": {"state": state, "inc": inc}}
                generator.random(out=row)

    def random(self, shape):
        start = self._used
        self._used += shape[1]
        return self._draws[:, start:self._used]


def _classify(model, bits, first):
    """Class index of each row of a block of checked images, read as
    samples ``first``, ``first + 1``, ...

    Hidden states are sampled layer by layer, row k with the stream derived
    from (model seed, evaluation tag, first + k), then the top layer is read
    out deterministically; ties resolve to the lowest class index.
    """
    if len(model.layers) > 1:
        streams = _SampleStreams(model.rng_seed, first, bits.shape[0],
                                 sum(model.topology[1:-1]))
        for layer in model.layers[:-1]:
            bits = layer.forward(bits, streams)
    return np.argmax(model.layers[-1].probabilities_forward(bits), axis=1)


def predict(model, image, sample_index=0):
    """Class index for one image, read as sample ``sample_index``.

    The one-row case of the block read that ``error_rate`` runs.
    """
    sample_index = integer_setting(sample_index, "sample_index")
    bits = ensure_bits(image, model.topology[0], "image")
    return int(_classify(model, bits[np.newaxis], sample_index)[0])


def error_rate(model, images, labels):
    """Fraction of misclassified samples; sample k is read as
    ``predict(model, images[k], k)`` would read it."""
    images, labels = _check_labeled_data(model, images, labels)
    if images.shape[0] == 0:
        raise DimensionError("test set must contain at least one image")
    wrong = sum(int(np.count_nonzero(_classify(model, images[block], block.start)
                                     != labels[block]))
                for block in _blocks(images.shape[0]))
    return wrong / images.shape[0]


def to_bytes(model):
    """Serialize a model.

    Layout (little-endian): the ``_HEADER`` fields; u32 per layer size; the
    ``_CONFIG`` fields (flags bit 0 = biases on; no other bit is defined, and
    ``from_bytes`` refuses a file that sets one); then per RBM layer the u16
    state grid row-major, the u16 visible bias states, and the u16 hidden
    bias states.
    """
    sizes = model.topology
    flags = _FLAG_USE_BIASES if model.use_biases else 0
    out = [_HEADER.pack(MAGIC, FORMAT_VERSION, len(sizes)),
           struct.pack(f"<{len(sizes)}I", *sizes),
           _CONFIG.pack(*(getattr(model, name) for name in _SETTINGS), flags)]
    for layer in model.layers:
        grid = layer.grid
        out.append(grid.states.astype("<u2").tobytes(order="C"))
        out.append(grid.visible_bias_states.astype("<u2").tobytes())
        out.append(grid.hidden_bias_states.astype("<u2").tobytes())
    return b"".join(out)


def _unpack(layout, data, offset, what):
    """The fields of ``layout`` at ``offset`` in ``data``, and the offset after them."""
    end = offset + layout.size
    if end > len(data):
        raise ModelFormatError(f"model file truncated reading {what}")
    return layout.unpack_from(data, offset), end


def from_bytes(data):
    """Deserialize a model; rejects bad magic, version, or sizes.

    The payload length the header's layer sizes imply is checked against
    the data before any device grid is allocated.
    """
    (magic, version, n_layers), offset = _unpack(_HEADER, data, 0, "header")
    if magic != MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    sizes, offset = _unpack(struct.Struct(f"<{n_layers}I"), data, offset, "topology")
    try:
        sizes = layer_sizes(sizes)
    except DimensionError as exc:
        raise ModelFormatError(f"corrupt topology: {exc}") from None
    (*settings, flags), offset = _unpack(_CONFIG, data, offset, "device config")
    if flags & ~_FLAG_USE_BIASES:
        raise ModelFormatError(f"unknown model flag bits 0x{flags & ~_FLAG_USE_BIASES:04x}")
    payload = 2 * sum(n_v * n_h + n_v + n_h for n_v, n_h in zip(sizes[:-1], sizes[1:]))
    remaining = len(data) - offset
    if remaining != payload:
        raise ModelFormatError(
            f"model payload is {remaining} bytes, topology {sizes} needs {payload}")
    try:
        model = DbnModel(sizes, use_biases=bool(flags & _FLAG_USE_BIASES),
                         **dict(zip(_SETTINGS, settings)))
    except ValueError as exc:
        raise ModelFormatError(f"corrupt device config: {exc}") from None
    rest = np.frombuffer(data, dtype="<u2", offset=offset)
    for layer in model.layers:
        grid = layer.grid
        n_v, n_h = grid.n_visible, grid.n_hidden
        weights, visible, hidden, rest = np.split(rest, np.cumsum([n_v * n_h, n_v, n_h]))
        try:
            grid.load_states(weights.reshape(n_v, n_h), visible, hidden)
        except (ValueError, DimensionError) as exc:
            raise ModelFormatError(f"corrupt device state: {exc}") from None
    return model


def save_model(model, path):
    # Serialize first, so a model that cannot be written leaves the file alone.
    data = to_bytes(model)
    with open(path, "wb") as handle:
        handle.write(data)


def load_model(path):
    with open(path, "rb") as handle:
        return from_bytes(handle.read())
