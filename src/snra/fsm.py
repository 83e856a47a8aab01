"""Four-state contrastive-divergence controller.

One training iteration walks FeedForward, FeedBack, Reconstruct, then
n_hidden Update clocks, so it completes in n_hidden + 3 clocks.  Each
Update clock writes a single hidden column: bl_i = v_i AND h_j and
sl_i = v_bar_i AND h_bar_j realize the positive and negative phases of
the weight-change rule with per-column AND gates.

Every controller is a training controller; inference reads the array
directly (see ``dbn.predict``).  Layer stacks are validated here, in
``layer_sizes``, for every module that takes a topology.
"""

from enum import IntEnum

import numpy as np

from .array import SignalFrame
from .bits import ensure_bits
from .errors import DimensionError, ProtocolError

CLOCK_HZ = 500e6
CLOCK_PERIOD_S = 1.0 / CLOCK_HZ


class State(IntEnum):
    """2-bit controller state register."""

    FEED_FORWARD = 0b00
    FEED_BACK = 0b01
    RECONSTRUCT = 0b10
    UPDATE = 0b11


def update_frame(v, h, v_bar, h_bar, column):
    """Write frame for one Update clock, from the four sample registers."""
    v = ensure_bits(v, name="v register")
    h = ensure_bits(h, name="h register")
    v_bar = ensure_bits(v_bar, v.size, "v_bar register")
    h_bar = ensure_bits(h_bar, h.size, "h_bar register")
    if not 0 <= column < h.size:
        raise ProtocolError(f"column {column} outside [0, {h.size - 1}]")
    bl = (v & h[column]).astype(np.uint8)
    sl = (v_bar & h_bar[column]).astype(np.uint8)
    return SignalFrame.write_frame(column, bl, sl, h.size)


class CdFsm:
    """Clock-stepped controller over one RBM array."""

    def __init__(self, n_visible, n_hidden):
        if n_visible < 1 or n_hidden < 1:
            raise DimensionError("controller needs at least one visible and one hidden unit")
        self.n_visible = int(n_visible)
        self.n_hidden = int(n_hidden)
        self.state = State.FEED_FORWARD
        self.counter = 0
        self.clock_count = 0
        self.v = np.zeros(self.n_visible, dtype=np.uint8)
        self.v_bar = np.zeros(self.n_visible, dtype=np.uint8)
        self.bl_reg = np.zeros(self.n_visible, dtype=np.uint8)
        self.sl_reg = np.zeros(self.n_visible, dtype=np.uint8)
        self.h = np.zeros(self.n_hidden, dtype=np.uint8)
        self.h_bar = np.zeros(self.n_hidden, dtype=np.uint8)

    def load_registers(self, v, h, v_bar, h_bar):
        """Force the sample registers and park the controller at Update.

        Models a scan-chain load; the next n_hidden step calls then replay
        the write phase for exactly these register values.
        """
        self.v[:] = ensure_bits(v, self.n_visible, "v register")
        self.h[:] = ensure_bits(h, self.n_hidden, "h register")
        self.v_bar[:] = ensure_bits(v_bar, self.n_visible, "v_bar register")
        self.h_bar[:] = ensure_bits(h_bar, self.n_hidden, "h_bar register")
        self.state = State.UPDATE
        self.counter = 0

    def _check_array(self, array):
        if array.n_visible != self.n_visible or array.n_hidden != self.n_hidden:
            raise DimensionError(
                f"array is {array.n_visible}x{array.n_hidden}, controller is "
                f"{self.n_visible}x{self.n_hidden}")

    def step(self, array, input_bits=None, rng=None, clamp_hidden=None):
        """Advance one clock; returns the signal frame driven on that clock."""
        self._check_array(array)
        if self.state is State.FEED_FORWARD:
            if input_bits is None:
                raise ProtocolError("feed-forward state requires an input vector")
            self.v[:] = ensure_bits(input_bits, self.n_visible, "input vector")
            if clamp_hidden is not None:
                self.h[:] = ensure_bits(clamp_hidden, self.n_hidden, "clamped hidden vector")
            else:
                self.h[:] = array.forward(self.v, rng)
            frame = SignalFrame.read_frame(self.n_visible, self.n_hidden)
            self.state = State.FEED_BACK
        elif self.state is State.FEED_BACK:
            self.v_bar[:] = array.backward(self.h, rng)
            frame = SignalFrame.read_frame(self.n_visible, self.n_hidden)
            self.state = State.RECONSTRUCT
        elif self.state is State.RECONSTRUCT:
            self.h_bar[:] = array.forward(self.v_bar, rng)
            frame = SignalFrame.read_frame(self.n_visible, self.n_hidden)
            self.state = State.UPDATE
        else:
            column = self.counter
            frame = update_frame(self.v, self.h, self.v_bar, self.h_bar, column)
            self.bl_reg[:] = frame.bl
            self.sl_reg[:] = frame.sl
            array.apply_frame(frame)
            if column == 0 and array.use_biases:
                # Bias drivers fire once per iteration, in parallel with the
                # first column write, so the clock count is unchanged.
                array.grid.pulse_visible_bias(
                    np.sign(self.v.astype(np.int64) - self.v_bar.astype(np.int64)))
                array.grid.pulse_hidden_bias(
                    np.sign(self.h.astype(np.int64) - self.h_bar.astype(np.int64)))
            self.counter += 1
            if self.counter == self.n_hidden:
                self.counter = 0
                self.state = State.FEED_FORWARD
        self.clock_count += 1
        return frame

    def run_cd_iteration(self, array, input_bits, rng, clamp_hidden=None):
        """One full training iteration; returns (frames, clocks)."""
        if self.state is not State.FEED_FORWARD:
            raise ProtocolError("iteration must start from the feed-forward state")
        frames = [self.step(array, input_bits, rng, clamp_hidden)]
        while self.state is not State.FEED_FORWARD:
            frames.append(self.step(array, rng=rng))
        return frames, len(frames)

def layer_sizes(topology):
    """Validate a layer stack: a tuple of at least two positive sizes."""
    sizes = tuple(map(int, topology))
    if len(sizes) < 2 or min(sizes) < 1:
        raise DimensionError(
            f"topology must list at least two positive layer sizes, got {sizes}")
    return sizes


def parse_topology(text):
    """Parse '784x500x10' into validated layer sizes."""
    try:
        sizes = [int(p) for p in str(text).strip().lower().split("x")]
    except ValueError:
        raise DimensionError(f"cannot parse topology {text!r}") from None
    return layer_sizes(sizes)


def train_clock_budget(topology, samples, epochs):
    """Total training clocks for a layer stack, and seconds at 500 MHz.

    Each RBM stage costs samples * epochs * (n_hidden + 3) clocks.
    """
    sizes = layer_sizes(topology)
    if samples < 0 or epochs < 0:
        raise ValueError("samples and epochs must be non-negative")
    clocks = sum(samples * epochs * (n_hidden + 3) for n_hidden in sizes[1:])
    return clocks, clocks * CLOCK_PERIOD_S
