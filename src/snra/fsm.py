"""Four-state contrastive-divergence controller.

One training iteration walks FeedForward, FeedBack, Reconstruct, then
n_hidden Update clocks, so it completes in n_hidden + 3 clocks.  Each
Update clock writes a single hidden column: bl_i = v_i AND h_j and
sl_i = v_bar_i AND h_bar_j realize the positive and negative phases of
the weight-change rule with per-column AND gates.  ``update_rails`` is
that rule and ``array.rail_directions`` the decode of its rails.

``step`` is the clocked model, one clock and one signal frame per call,
behind waveforms and traces.  Training runs ``run_cd_iteration``, which
steps the three read clocks and fuses the n_hidden Update clocks into one
write of the active block: the column writes touch disjoint columns and
draw no random numbers, so together they are the CD-1 rule
clip(states + delta_d * (v h^T - v_bar h_bar^T)).  A cell can move only
where its row has v or v_bar set and its column has h or h_bar set; every
other cell sees both rails low.  So the fused write drives only the rows
and columns that are set, and leaves the device, pulse count, sample
registers and clock count exactly as the clocked model does.  The
controller keeps no rail registers: the frame ``step`` returns is the one
record of the rails driven on a clock.

Every controller is a training controller.  Evaluation and layer transfer
read the arrays directly, a block of samples per ``RbmArray.forward`` call
(see ``dbn.error_rate``).  Layer stacks are validated here, in
``layer_sizes``, for every module that takes a topology.
"""

import operator
from enum import IntEnum

import numpy as np

from .array import SignalFrame, rail_directions
from .bits import ensure_bits, integer_setting
from .device import line_counts
from .errors import DimensionError, ProtocolError

CLOCK_HZ = 500e6
CLOCK_PERIOD_S = 1.0 / CLOCK_HZ
# The model file stores each layer size as u32.
_MAX_LAYER_SIZE = 0xFFFFFFFF


class State(IntEnum):
    """2-bit controller state register."""

    FEED_FORWARD = 0b00
    FEED_BACK = 0b01
    RECONSTRUCT = 0b10
    UPDATE = 0b11


def update_rails(v, h, v_bar, h_bar):
    """The CD write rule: bl = v AND h and sl = v_bar AND h_bar.

    Whole registers give every Update clock's rails, clock j in column j;
    registers taken at some rows and columns give the rails of that block;
    h[j] and h_bar[j] give clock j's rails alone.  Trusts the registers to
    be uint8 bit vectors; they are checked where they enter.
    """
    return np.multiply.outer(v, h), np.multiply.outer(v_bar, h_bar)


def update_frame(v, h, v_bar, h_bar, column):
    """Write frame of Update clock ``column``, which is trusted to index h."""
    wwl = np.zeros(h.size, dtype=np.uint8)
    wwl[column] = 1
    return SignalFrame(0, wwl, *update_rails(v, h[column], v_bar, h_bar[column]))


class CdFsm:
    """Clock-stepped controller over one RBM array."""

    def __init__(self, n_visible, n_hidden):
        self.n_visible, self.n_hidden = line_counts(n_visible, n_hidden)
        self.state = State.FEED_FORWARD
        self.counter = 0
        self.clock_count = 0
        self.v = np.zeros(self.n_visible, dtype=np.uint8)
        self.v_bar = np.zeros(self.n_visible, dtype=np.uint8)
        self.h = np.zeros(self.n_hidden, dtype=np.uint8)
        self.h_bar = np.zeros(self.n_hidden, dtype=np.uint8)
        # Every read clock drives this one frame, which no caller can change.
        self._read_frame = SignalFrame.read_frame(self.n_visible, self.n_hidden)

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
            frame = self._read_frame
            self.state = State.FEED_BACK
        elif self.state is State.FEED_BACK:
            self.v_bar[:] = array.backward(self.h, rng)
            frame = self._read_frame
            self.state = State.RECONSTRUCT
        elif self.state is State.RECONSTRUCT:
            self.h_bar[:] = array.forward(self.v_bar, rng)
            frame = self._read_frame
            self.state = State.UPDATE
        else:
            column = self.counter
            frame = update_frame(self.v, self.h, self.v_bar, self.h_bar, column)
            array.apply_frame(frame)
            if column == 0:
                self._pulse_biases(array)
            self.counter += 1
            if self.counter == self.n_hidden:
                self.counter = 0
                self.state = State.FEED_FORWARD
        self.clock_count += 1
        return frame

    def _pulse_biases(self, array):
        # Bias pulses (rails bl = v, sl = v_bar) fire once per iteration, in
        # parallel with the first column write, so the clock count is unchanged.
        if array.grid.use_biases:
            array.grid.pulse_visible_bias(rail_directions(self.v, self.v_bar))
            array.grid.pulse_hidden_bias(rail_directions(self.h, self.h_bar))

    def run_cd_iteration(self, array, input_bits, rng, clamp_hidden=None):
        """One full training iteration with the Update clocks fused; returns its clocks.

        The three read clocks go through ``step``, so random draws keep
        their order.  The n_hidden Update clocks become one write of the
        block where rows with v or v_bar set cross columns with h or h_bar
        set, plus the bias pulses; device state, pulse count, registers,
        state, counter and clock count end exactly as after n_hidden + 3
        ``step`` calls.
        """
        if self.state is not State.FEED_FORWARD:
            raise ProtocolError("iteration must start from the feed-forward state")
        self.step(array, input_bits, rng, clamp_hidden)
        self.step(array, rng=rng)
        self.step(array, rng=rng)
        rows = np.flatnonzero(self.v | self.v_bar)
        cols = np.flatnonzero(self.h | self.h_bar)
        bl, sl = update_rails(self.v[rows], self.h[cols], self.v_bar[rows], self.h_bar[cols])
        array.grid.pulse_block(rows, cols, rail_directions(bl, sl))
        self._pulse_biases(array)
        self.state = State.FEED_FORWARD
        self.clock_count += self.n_hidden
        return self.n_hidden + 3


def layer_sizes(topology):
    """Validate a layer stack: at least two positive integer sizes, each
    small enough for the u32 size field of the model file.

    Only ``parse_topology`` reads text: a string here is rejected, not read
    digit by digit, and a float size is rejected, not truncated.
    """
    if isinstance(topology, (str, bytes, bytearray)):
        raise DimensionError(f"topology must be a sequence of layer sizes, got {topology!r}")
    try:
        sizes = tuple(map(operator.index, topology))
    except TypeError:
        raise DimensionError(
            f"topology must be a sequence of integer layer sizes, got {topology!r}") from None
    if len(sizes) < 2 or min(sizes) < 1:
        raise DimensionError(
            f"topology must list at least two positive layer sizes, got {sizes}")
    if max(sizes) > _MAX_LAYER_SIZE:
        raise DimensionError(
            f"layer sizes must not exceed {_MAX_LAYER_SIZE}, got {sizes}")
    return sizes


def parse_topology(text):
    """Parse '784x500x10' into validated layer sizes."""
    parts = str(text).strip().lower().split("x")
    try:
        # Only ASCII digits: int alone also reads other scripts' digits, '_' and signs.
        if not all(part.isascii() and part.isdecimal() for part in parts):
            raise ValueError(text)
        sizes = [int(part) for part in parts]
    except ValueError:
        raise DimensionError(f"cannot parse topology {text!r}") from None
    return layer_sizes(sizes)


def train_clock_budget(topology, samples, epochs):
    """Total training clocks for a layer stack, and seconds at 500 MHz.

    Each RBM stage costs samples * epochs * (n_hidden + 3) clocks.
    """
    sizes = layer_sizes(topology)
    samples = integer_setting(samples, "samples")
    epochs = integer_setting(epochs, "epochs")
    clocks = sum(samples * epochs * (n_hidden + 3) for n_hidden in sizes[1:])
    return clocks, clocks * CLOCK_PERIOD_S
