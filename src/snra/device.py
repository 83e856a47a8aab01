"""Behavioral models of the stochastic neuron and the quantized synapse array.

The neuron fires with sigmoid probability of its net input.  Synapses hold
a discrete state index on a uniform weight grid; programming pulses move
the index up or down and saturate at the grid ends.

The float weights are built once, on their first read, and each write then
refreshes only the cells it addressed with the same elementwise map, so the
cached weights always equal a full rebuild bit for bit.  Readers get
read-only arrays: the device states are the one way to change a weight.

The sigmoid is scipy's ``expit``, but scipy is loaded by the first sigmoid
a neuron computes, not by ``import snra``: commands that sample nothing
(``snra power``, ``snra trace``) never load it.
"""

import hashlib
import operator

import numpy as np

from .errors import DimensionError


def expit(x):
    """``scipy.special.expit`` of ``x``, loaded on the first call.

    The call rebinds this module's ``expit`` to scipy's ufunc, so every
    later sigmoid looks up the ufunc itself, as a module-level import would.
    """
    global expit
    from scipy.special import expit
    return expit(x)


def integer_setting(value, name):
    """``value`` as an int; a float, string or other non-integer is
    rejected, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _integers(values, name):
    """``values`` as an array, rejected before any cast could truncate it."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iub":
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    return arr


def _line_indices(values, count, name):
    """Strictly increasing indices into ``count`` lines, so none is negative,
    out of range or repeated."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" or arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array of integer indices")
    if arr.size and (arr[0] < 0 or arr[-1] >= count or (arr[1:] <= arr[:-1]).any()):
        raise IndexError(f"{name} must be strictly increasing indices in [0, {count - 1}]")
    return arr


class PBit:
    """Stochastic binary neuron: P(out = 1) = sigmoid(input_scale * net)."""

    def __init__(self, input_scale=1.0):
        scale = float(input_scale)
        if not np.isfinite(scale) or scale <= 0.0:
            raise ValueError(f"input_scale must be a positive finite number, got {input_scale!r}")
        self.input_scale = scale

    def probability(self, net_input):
        """Firing probability for a scalar or vector of net inputs."""
        net = np.asarray(net_input, dtype=np.float64)
        if not np.isfinite(net).all():
            raise ValueError("net input must be finite")
        prob = expit(self.input_scale * net)
        return float(prob) if np.isscalar(net_input) else prob

    def sample_net(self, net, rng):
        """One bit per net input: a vector, or a block with one row per sample.

        The uniforms come from ``rng.random(net.shape)``, so a Generator
        draws a block in row-major order, exactly as it would draw the rows
        one call at a time.  Trusts ``net`` to hold finite floats.
        """
        prob = expit(self.input_scale * net)
        return (rng.random(prob.shape) < prob).astype(np.uint8)


class SynapseGrid:
    """Quantized synaptic weights plus per-unit bias devices.

    Each cell stores an integer state index d in [0, levels - 1] that maps
    linearly onto [w_min, w_max].  A programming pulse moves the index by
    delta_d in the commanded direction and clips at the ends; it never
    wraps around.  With an even ``levels`` no index maps to weight 0: the
    mid index 15 of 32 maps to -1/31.  The float weights follow the pulse
    methods and ``load_states`` only, so the state arrays are changed
    through them.
    """

    def __init__(self, n_visible, n_hidden, levels=32, w_min=-1.0, w_max=1.0,
                 delta_d=1):
        if n_visible < 1 or n_hidden < 1:
            raise DimensionError("grid needs at least one visible and one hidden line")
        levels = integer_setting(levels, "levels")
        delta_d = integer_setting(delta_d, "delta_d")
        if levels < 2:
            raise ValueError(f"levels must be at least 2, got {levels}")
        if not (np.isfinite(w_min) and np.isfinite(w_max) and w_min < w_max):
            raise ValueError("weight bounds must be finite with w_min < w_max")
        if delta_d < 1:
            raise ValueError(f"delta_d must be a positive integer, got {delta_d}")
        self.n_visible = int(n_visible)
        self.n_hidden = int(n_hidden)
        self.levels = levels
        self.w_min = float(w_min)
        self.w_max = float(w_max)
        self.delta_d = delta_d
        self.pulse_count = 0
        mid = (self.levels - 1) // 2
        shape = (self.n_visible, self.n_hidden)
        try:
            self.states = np.full(shape, mid, dtype=np.int64)
        except MemoryError:
            raise DimensionError(f"cannot allocate a synapse grid of shape {shape}") from None
        self.visible_bias_states = np.full(self.n_visible, mid, dtype=np.int64)
        self.hidden_bias_states = np.full(self.n_hidden, mid, dtype=np.int64)
        self._cache = {}

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

    def _build(self, name, states):
        """Cache the read-only float weights of ``states`` on their first read."""
        cached = self.weight(states).view()
        cached.flags.writeable = False
        self._cache[name] = cached

    def weights(self):
        """Current weight matrix, shape (n_visible, n_hidden).

        A read-only live view: later writes show through it, so a caller
        that keeps the weights across a write copies them.
        """
        if "w" not in self._cache:
            self._build("w", self.states)
        return self._cache["w"]

    def visible_bias(self):
        if "vb" not in self._cache:
            self._build("vb", self.visible_bias_states)
        return self._cache["vb"]

    def hidden_bias(self):
        if "hb" not in self._cache:
            self._build("hb", self.hidden_bias_states)
        return self._cache["hb"]

    def pulse_column(self, column, directions):
        """Pulse every cell of one column; directions in {-1, 0, 1} per row."""
        if not 0 <= column < self.n_hidden:
            raise IndexError(f"column {column} outside grid")
        self._pulse("w", self.states, (slice(None), column), directions)

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
        self._pulse("w", self.states.reshape(-1), positions, directions)

    def pulse_visible_bias(self, directions):
        self._pulse("vb", self.visible_bias_states, ..., directions)

    def pulse_hidden_bias(self, directions):
        self._pulse("hb", self.hidden_bias_states, ..., directions)

    def _pulse(self, name, states, index, directions):
        """Move the state indices ``states[index]``; saturates, never wraps.

        The one check of directions, their one widening to int64, and the
        one refresh of the cached float weights ``name``: the written cells
        are mapped again with ``weight``, the same elementwise map as the
        first build, so the cache equals a full rebuild bit for bit.  Every
        nonzero direction counts as a pulse, even one that moves nothing.
        """
        cells = states[index]
        direction = _integers(directions, "directions")
        if direction.shape != cells.shape:
            raise DimensionError(
                f"directions must have shape {cells.shape}, got {direction.shape}")
        if direction.size and (direction.min() < -1 or direction.max() > 1):
            raise ValueError("directions must be -1, 0, or 1")
        cells += np.multiply(direction, self.delta_d, dtype=np.int64)
        # np.minimum and np.maximum clip as np.clip does, without its
        # per-call argument handling, which dominates a small write.
        np.minimum(cells, self.levels - 1, out=cells)
        np.maximum(cells, 0, out=cells)
        # A fancy index reads a copy, which has to be written back.
        states[index] = cells
        self.pulse_count += int(np.count_nonzero(direction))
        cached = self._cache.get(name)
        if cached is not None:
            # ``index`` addresses ``states``, which may be the flat view of
            # pulse_block, so the cache is indexed in the same shape.
            cached.base.reshape(states.shape)[index] = self.weight(cells)

    def _checked_states(self, given, shape):
        # Row-major, so that pulse_block's flat reshape is a view, not a copy.
        arr = _integers(given, "state indices").astype(np.int64, order="C")
        if arr.shape != shape:
            raise DimensionError(f"state array must have shape {shape}, got {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.levels):
            raise ValueError(f"state indices must lie in [0, {self.levels - 1}]")
        return arr

    def load_states(self, states, visible_bias_states, hidden_bias_states):
        """Overwrite every state index at once, with full range validation.

        The one way given states enter a grid.  All three arrays are checked
        before any is assigned, so a rejected load leaves the device and its
        float weights as they were; a load that succeeds has the float
        weights rebuilt on their next read.
        """
        loaded = (self._checked_states(states, (self.n_visible, self.n_hidden)),
                  self._checked_states(visible_bias_states, (self.n_visible,)),
                  self._checked_states(hidden_bias_states, (self.n_hidden,)))
        self.states, self.visible_bias_states, self.hidden_bias_states = loaded
        self._cache = {}

    def fingerprint(self):
        """Digest of the full device state, for change detection in tests."""
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.states).tobytes())
        digest.update(np.ascontiguousarray(self.visible_bias_states).tobytes())
        digest.update(np.ascontiguousarray(self.hidden_bias_states).tobytes())
        return digest.hexdigest()
