"""Behavioral models of the stochastic neuron and the quantized synapse array.

The neuron fires with sigmoid probability of its net input.  Synapses hold
a discrete state index on a uniform weight grid; programming pulses move
the index up or down and saturate at the grid ends.
"""

import hashlib

import numpy as np
from scipy.special import expit

from .errors import DimensionError


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
        """One bit per net input, drawn in ascending index order.

        Trusts ``net`` to be a finite float vector.
        """
        prob = expit(self.input_scale * net)
        return (rng.random(prob.size) < prob).astype(np.uint8)


class SynapseGrid:
    """Quantized synaptic weights plus per-unit bias devices.

    Each cell stores an integer state index d in [0, levels - 1] that maps
    linearly onto [w_min, w_max].  A programming pulse moves the index by
    delta_d in the commanded direction and clips at the ends; it never
    wraps around.
    """

    def __init__(self, n_visible, n_hidden, levels=32, w_min=-1.0, w_max=1.0,
                 delta_d=1, states=None, visible_bias_states=None,
                 hidden_bias_states=None):
        if n_visible < 1 or n_hidden < 1:
            raise DimensionError("grid needs at least one visible and one hidden line")
        if levels < 2:
            raise ValueError(f"levels must be at least 2, got {levels}")
        if not (np.isfinite(w_min) and np.isfinite(w_max) and w_min < w_max):
            raise ValueError("weight bounds must be finite with w_min < w_max")
        if delta_d < 1:
            raise ValueError(f"delta_d must be a positive integer, got {delta_d}")
        self.n_visible = int(n_visible)
        self.n_hidden = int(n_hidden)
        self.levels = int(levels)
        self.w_min = float(w_min)
        self.w_max = float(w_max)
        self.delta_d = int(delta_d)
        self.pulse_count = 0
        mid = (self.levels - 1) // 2
        self.states = self._init_states(states, (self.n_visible, self.n_hidden), mid)
        self.visible_bias_states = self._init_states(
            visible_bias_states, (self.n_visible,), mid)
        self.hidden_bias_states = self._init_states(
            hidden_bias_states, (self.n_hidden,), mid)
        self._cache = {}

    def _init_states(self, given, shape, fill):
        if given is None:
            return np.full(shape, fill, dtype=np.int64)
        arr = np.asarray(given, dtype=np.int64)
        if arr.shape != shape:
            raise DimensionError(f"state array must have shape {shape}, got {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.levels):
            raise ValueError(f"state indices must lie in [0, {self.levels - 1}]")
        return arr.copy()

    @classmethod
    def uniform_random(cls, n_visible, n_hidden, rng, **kwargs):
        """Grid with every state index drawn uniformly from the full range."""
        levels = kwargs.pop("levels", 32)
        return cls(
            n_visible, n_hidden, levels=levels,
            states=rng.integers(0, levels, size=(n_visible, n_hidden)),
            visible_bias_states=rng.integers(0, levels, size=n_visible),
            hidden_bias_states=rng.integers(0, levels, size=n_hidden),
            **kwargs,
        )

    @property
    def weight_step(self):
        """Weight change produced by moving one state index."""
        return (self.w_max - self.w_min) / (self.levels - 1)

    @property
    def eta(self):
        """Effective learning rate: weight change per programming pulse."""
        return self.weight_step * self.delta_d

    def weight(self, state_index):
        """Map a state index (or array of them) onto the weight grid."""
        return self.w_min + np.asarray(state_index, dtype=np.float64) * self.weight_step

    def weights(self):
        """Current weight matrix, shape (n_visible, n_hidden)."""
        if "w" not in self._cache:
            self._cache["w"] = self.weight(self.states)
        return self._cache["w"]

    def visible_bias(self):
        if "vb" not in self._cache:
            self._cache["vb"] = self.weight(self.visible_bias_states)
        return self._cache["vb"]

    def hidden_bias(self):
        if "hb" not in self._cache:
            self._cache["hb"] = self.weight(self.hidden_bias_states)
        return self._cache["hb"]

    def _touch(self):
        self._cache.clear()

    def pulse_column(self, column, directions):
        """Pulse every cell of one column; directions in {-1, 0, 1} per row."""
        if not 0 <= column < self.n_hidden:
            raise IndexError(f"column {column} outside grid")
        self._pulse(self.states[:, column], directions)

    def pulse_all(self, directions):
        """Pulse every cell at once; directions in {-1, 0, 1}, one per cell."""
        self._pulse(self.states, directions)

    def pulse_visible_bias(self, directions):
        self._pulse(self.visible_bias_states, directions)

    def pulse_hidden_bias(self, directions):
        self._pulse(self.hidden_bias_states, directions)

    def _pulse(self, states, directions):
        """Move a view of state indices in place; saturates, never wraps.

        Every nonzero direction counts as a pulse, even one that moves nothing.
        """
        direction = np.asarray(directions, dtype=np.int64)
        if direction.shape != states.shape:
            raise DimensionError(
                f"directions must have shape {states.shape}, got {direction.shape}")
        if direction.size and (direction.min() < -1 or direction.max() > 1):
            raise ValueError("directions must be -1, 0, or 1")
        # Drop the cached float weights before the write allocates its temporary.
        self._touch()
        states += direction * self.delta_d
        np.clip(states, 0, self.levels - 1, out=states)
        self.pulse_count += int(np.count_nonzero(direction))

    def load_states(self, states, visible_bias_states, hidden_bias_states):
        """Overwrite every state index at once, with full range validation."""
        self.states = self._init_states(states, (self.n_visible, self.n_hidden), 0)
        self.visible_bias_states = self._init_states(
            visible_bias_states, (self.n_visible,), 0)
        self.hidden_bias_states = self._init_states(
            hidden_bias_states, (self.n_hidden,), 0)
        self._touch()

    def fingerprint(self):
        """Digest of the full device state, for change detection in tests."""
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.states).tobytes())
        digest.update(np.ascontiguousarray(self.visible_bias_states).tobytes())
        digest.update(np.ascontiguousarray(self.hidden_bias_states).tobytes())
        return digest.hexdigest()
