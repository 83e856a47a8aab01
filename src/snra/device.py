"""Behavioral models of the stochastic neuron and the quantized synapse array.

The neuron fires with sigmoid probability of its net input.  Synapses hold
a discrete state index on a uniform weight grid; programming pulses move
the index up or down and saturate at the grid ends.

The state indices, stored as float32 or float64 integers, are the only
copy of a weight.  A neuron's net is summed straight from them, as the
array sums the currents of its active lines: every partial sum is an
integer below 2**24 in float32 or 2**53 in float64, so it is exact in
any order and no net depends on the BLAS kernel, its threads or the
block size.  Float weights are mapped only when ``weights()`` or a bias
read is called.

The sigmoid is scipy's ``expit``, but scipy is loaded by the first sigmoid
a neuron computes, not by ``import snra``: commands that sample nothing
(``snra power``, ``snra trace``) never load it.

Settings, state indices and directions follow the rules of ``bits``;
``line_counts`` applies its integer rule to line counts and reports a bad
one as a ``DimensionError``, as ``fsm.layer_sizes`` does a bad topology.
"""

import hashlib

import numpy as np

from .bits import ensure_bits, flag_setting, integer_array, integer_setting, real_setting
from .errors import DimensionError


def expit(x):
    """``scipy.special.expit`` of ``x``, loaded on the first call.

    The call rebinds this module's ``expit`` to scipy's ufunc, so every
    later sigmoid looks up the ufunc itself, as a module-level import would.
    """
    global expit
    from scipy.special import expit
    return expit(x)


def line_counts(n_visible, n_hidden):
    """The visible and hidden line counts of a grid or controller, each an
    integer of at least 1; any bad count raises ``DimensionError``."""
    try:
        return (integer_setting(n_visible, "n_visible", low=1),
                integer_setting(n_hidden, "n_hidden", low=1))
    except ValueError as exc:
        raise DimensionError(str(exc)) from None


def _line_indices(values, count, name):
    """Strictly increasing indices into ``count`` lines, so none is negative,
    out of range or repeated."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" or arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array of integer indices")
    if arr.size and (arr[0] < 0 or arr[-1] >= count or (arr[1:] <= arr[:-1]).any()):
        raise IndexError(f"{name} must be strictly increasing indices in [0, {count - 1}]")
    return arr


def _read_only(arr):
    arr.flags.writeable = False
    return arr


class PBit:
    """Stochastic binary neuron: P(out = 1) = sigmoid(input_scale * net)."""

    def __init__(self, input_scale=1.0):
        self.input_scale = real_setting(input_scale, "input_scale")
        if self.input_scale <= 0.0:
            raise ValueError(f"input_scale must be positive, got {input_scale!r}")

    def probability(self, net_input):
        """Firing probability for a scalar or vector of net inputs."""
        net = np.asarray(net_input)
        # The dtype is checked before the float cast, so no string is parsed.
        if net.dtype.kind not in "biuf" or not np.isfinite(net).all():
            raise ValueError("net input must be finite real numbers")
        prob = expit(self.input_scale * net.astype(np.float64, copy=False))
        return float(prob) if np.isscalar(net_input) else prob

    def sample_net(self, net, rng):
        """One bit per net input: a vector, or a block with one row per sample.

        The uniforms come from ``rng.random(net.shape)``, so a Generator
        draws a block in row-major order, exactly as it would draw the rows
        one call at a time.  Trusts ``net`` to hold finite floats.
        """
        prob = expit(self.input_scale * net)
        return (rng.random(prob.shape) < prob).astype(np.uint8)


# A u16 in the model file; nets sum exactly at any level count up to it.
MAX_LEVELS = 0xFFFF


class SynapseGrid:
    """Quantized synaptic weights plus per-unit bias devices.

    Each cell stores an integer state index d in [0, levels - 1] that maps
    linearly onto [w_min, w_max].  A programming pulse moves the index by
    delta_d in the commanded direction and clips at the ends; it never
    wraps around.  With an even ``levels`` no index maps to weight 0: the
    mid index 15 of 32 maps to -1/31.  The three state arrays hold the
    indices as C-order float integers and are the only record of a weight,
    so every read sees every change to them.  Their dtype, the one record
    of the choice, is float32 when every net sum (``max(n_visible,
    n_hidden) + 1`` cells, the bias cell too, of at most ``levels - 1``
    each) stays below 2**24, where float32 is exact, and float64 otherwise.

    ``use_biases`` says whether the bias line takes part in ``nets``; a grid
    with its line off still keeps, pulses, saves and loads its bias states.
    """

    def __init__(self, n_visible, n_hidden, levels=32, w_min=-1.0, w_max=1.0,
                 delta_d=1, use_biases=True):
        self.n_visible, self.n_hidden = line_counts(n_visible, n_hidden)
        self.levels = integer_setting(levels, "levels", low=2, high=MAX_LEVELS)
        self.delta_d = integer_setting(delta_d, "delta_d", low=1)
        self.use_biases = flag_setting(use_biases, "use_biases")
        self.w_min = real_setting(w_min, "w_min")
        self.w_max = real_setting(w_max, "w_max")
        if self.w_min >= self.w_max:
            raise ValueError(f"w_min must be below w_max, got {w_min!r} and {w_max!r}")
        self.pulse_count = 0
        mid = (self.levels - 1) // 2
        shape = (self.n_visible, self.n_hidden)
        dtype = np.float32 if (max(shape) + 1) * (self.levels - 1) < 2**24 else np.float64
        try:
            self.states = np.full(shape, mid, dtype=dtype)
        except MemoryError:
            raise DimensionError(f"cannot allocate a synapse grid of shape {shape}") from None
        self.visible_bias_states = np.full(self.n_visible, mid, dtype=dtype)
        self.hidden_bias_states = np.full(self.n_hidden, mid, dtype=dtype)

    @classmethod
    def uniform_random(cls, n_visible, n_hidden, rng, **kwargs):
        """Grid with every state index drawn uniformly from the full range:
        the weights, then the visible biases, then the hidden biases."""
        grid = cls(n_visible, n_hidden, **kwargs)
        grid.load_states(rng.integers(0, grid.levels, size=(n_visible, n_hidden)),
                         rng.integers(0, grid.levels, size=n_visible),
                         rng.integers(0, grid.levels, size=n_hidden))
        return grid

    @property
    def weight_step(self):
        """Weight change produced by moving one state index."""
        return (self.w_max - self.w_min) / (self.levels - 1)

    def weight(self, state_index):
        """Map a state index (or array of them) onto the weight grid."""
        return self.w_min + np.asarray(state_index, dtype=np.float64) * self.weight_step

    def weights(self):
        """Weight matrix, shape (n_visible, n_hidden): a read-only snapshot
        mapped from the states when called, which later writes leave as it is."""
        return _read_only(self.weight(self.states))

    def visible_bias(self):
        return _read_only(self.weight(self.visible_bias_states))

    def hidden_bias(self):
        return _read_only(self.weight(self.hidden_bias_states))

    def nets(self, bits, hidden=True):
        """Hidden nets of visible bits (a vector, or a block of rows), or with
        ``hidden`` false visible nets of hidden bits alike; the bits are
        checked as ``ensure_bits`` checks them.  A row reads
        ``weight_step * (bits @ states + bias_states) + w_min * (lines + 1)``,
        ``lines`` its active bits: the bias cell is one more line, always on,
        unless ``use_biases`` is off.  The sum is exact, so row k of a block
        equals row k read alone, bit for bit."""
        states, bias_states, side = (
            (self.states, self.hidden_bias_states, "visible") if hidden
            else (self.states.T, self.visible_bias_states, "hidden"))
        bits = np.asarray(bits)
        if bits.ndim == 2 and bits.shape[1] == states.shape[0]:
            bits = ensure_bits(bits.reshape(-1), name=f"{side} rows").reshape(bits.shape)
        else:
            bits = ensure_bits(bits, states.shape[0], f"{side} vector")
        sums = bits @ states
        if self.use_biases:
            sums += bias_states
        # The exact sums widen to float64 in the scale pass, not a pass of their own.
        sums = np.multiply(sums, self.weight_step, dtype=np.float64)
        # uint32 counts any row a model file sizes, 2-4x faster than int64.
        lines = np.add.reduce(bits, axis=-1, dtype=np.uint32, keepdims=True,
                              initial=self.use_biases)
        sums += self.w_min * lines
        return sums

    def pulse_column(self, column, directions):
        """Pulse every cell of one column; directions in {-1, 0, 1} per row."""
        self.pulse_block(np.arange(self.n_visible), [column], np.expand_dims(directions, -1))

    def pulse_block(self, rows, cols, directions):
        """Pulse the cells where ``rows`` cross ``cols`` at once.

        ``rows`` and ``cols`` are strictly increasing line indices, and
        ``directions`` holds one direction in {-1, 0, 1} per crossing,
        shape (rows.size, cols.size).  Cells outside the block are untouched.
        """
        rows = _line_indices(rows, self.n_visible, "rows")
        cols = _line_indices(cols, self.n_hidden, "cols")
        # The block's flat positions in the row-major states: a 1-D gather
        # and scatter costs about half of a 2-D np.ix_ one.
        positions = np.add.outer(rows * self.n_hidden, cols)
        self._pulse(self.states.reshape(-1), positions, directions)

    def pulse_visible_bias(self, directions):
        self._pulse(self.visible_bias_states, ..., directions)

    def pulse_hidden_bias(self, directions):
        self._pulse(self.hidden_bias_states, ..., directions)

    def _pulse(self, states, index, directions):
        """Move the state indices ``states[index]``; saturates, never wraps.

        The one check of directions, their one widening (straight to the
        dtype of the states), and the pulse count.  The step is capped at
        ``levels - 1``, which saturates exactly as any larger step does, so
        no step overflows float32.  Every nonzero direction counts as a
        pulse, even one that moves nothing.
        """
        cells = states[index]
        direction = integer_array(directions, "directions")
        if direction.shape != cells.shape:
            raise DimensionError(
                f"directions must have shape {cells.shape}, got {direction.shape}")
        if direction.size and (direction.min() < -1 or direction.max() > 1):
            raise ValueError("directions must be -1, 0, or 1")
        cells += np.multiply(direction, min(self.delta_d, self.levels - 1), dtype=cells.dtype)
        # np.minimum and np.maximum clip as np.clip does, without its
        # per-call argument handling, which dominates a small write.
        np.minimum(cells, self.levels - 1, out=cells)
        np.maximum(cells, 0, out=cells)
        # A fancy index reads a copy, which has to be written back.
        states[index] = cells
        self.pulse_count += int(np.count_nonzero(direction))

    def _checked_states(self, given, shape):
        # Row-major, so that pulse_block's flat reshape is a view, not a copy.
        arr = integer_array(given, "state indices", self.levels)
        arr = arr.astype(self.states.dtype, order="C")
        if arr.shape != shape:
            raise DimensionError(f"state array must have shape {shape}, got {arr.shape}")
        return arr

    def load_states(self, states, visible_bias_states, hidden_bias_states):
        """Overwrite every state index at once, with full range validation.

        The one way given states enter a grid: integer arrays only.  All
        three are checked before any is assigned, so a rejected load leaves
        the device as it was.
        """
        loaded = (self._checked_states(states, (self.n_visible, self.n_hidden)),
                  self._checked_states(visible_bias_states, (self.n_visible,)),
                  self._checked_states(hidden_bias_states, (self.n_hidden,)))
        self.states, self.visible_bias_states, self.hidden_bias_states = loaded

    def fingerprint(self):
        """Digest of the full device state as row-major int64, for change
        detection in tests."""
        digest = hashlib.sha256()
        for states in (self.states, self.visible_bias_states, self.hidden_bias_states):
            digest.update(states.astype(np.int64).tobytes())
        return digest.hexdigest()
