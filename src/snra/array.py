"""Crossbar RBM array: read-phase sampling and write-phase pulse application.

Signal frames follow the word-line / bit-line protocol: a Read frame keeps
the read word line high with the write rails parked, a Write frame selects
exactly one hidden column and encodes the pulse direction per visible row
as (bl, sl) = (1, 0) for increase and (0, 1) for decrease.
"""

from dataclasses import dataclass

import numpy as np

from .bits import ensure_bits
from .device import PBit
from .errors import DimensionError, ProtocolError

READ = "read"
WRITE = "write"


@dataclass(eq=False)
class SignalFrame:
    """One clock's worth of array control signals."""

    phase: str
    rwl: int
    wwl: np.ndarray
    bl: np.ndarray
    sl: np.ndarray

    def __post_init__(self):
        if self.phase not in (READ, WRITE):
            raise ProtocolError(f"phase must be {READ!r} or {WRITE!r}, got {self.phase!r}")
        self.wwl = ensure_bits(self.wwl, name="wwl")
        self.bl = ensure_bits(self.bl, name="bl")
        self.sl = ensure_bits(self.sl, name="sl")
        if self.bl.size != self.sl.size:
            raise DimensionError("bl and sl must have equal length")
        self.validate()

    def validate(self):
        if self.phase == READ:
            if self.rwl != 1:
                raise ProtocolError("read frame requires rwl high")
            if self.wwl.any():
                raise ProtocolError("read frame requires all wwl low")
            if self.bl.any() or self.sl.any():
                raise ProtocolError("read frame keeps bl/sl released")
        else:
            if self.rwl != 0:
                raise ProtocolError("write frame requires rwl low")
            if int(self.wwl.sum()) != 1:
                raise ProtocolError("write frame requires exactly one wwl bit set")

    @property
    def column(self):
        """Selected hidden column of a write frame."""
        if self.phase != WRITE:
            raise ProtocolError("read frames select no column")
        return int(np.flatnonzero(self.wwl)[0])

    @classmethod
    def read_frame(cls, n_visible, n_hidden):
        return cls(READ, 1, np.zeros(n_hidden, dtype=np.uint8),
                   np.zeros(n_visible, dtype=np.uint8),
                   np.zeros(n_visible, dtype=np.uint8))

    @classmethod
    def write_frame(cls, column, bl, sl, n_hidden):
        wwl = np.zeros(n_hidden, dtype=np.uint8)
        if not 0 <= column < n_hidden:
            raise ProtocolError(f"column {column} outside [0, {n_hidden - 1}]")
        wwl[column] = 1
        return cls(WRITE, 0, wwl, bl, sl)

    def __eq__(self, other):
        if not isinstance(other, SignalFrame):
            return NotImplemented
        return (self.phase == other.phase and self.rwl == other.rwl
                and np.array_equal(self.wwl, other.wwl)
                and np.array_equal(self.bl, other.bl)
                and np.array_equal(self.sl, other.sl))


class RbmArray:
    """One RBM crossbar: a synapse grid read through stochastic neurons."""

    def __init__(self, grid, neuron=None, use_biases=True):
        self.grid = grid
        self.neuron = neuron if neuron is not None else PBit()
        self.use_biases = bool(use_biases)

    @property
    def n_visible(self):
        return self.grid.n_visible

    @property
    def n_hidden(self):
        return self.grid.n_hidden

    def _net_hidden(self, v):
        v = ensure_bits(v, self.n_visible, "visible vector")
        net = v.astype(np.float64) @ self.grid.weights()
        if self.use_biases:
            net = net + self.grid.hidden_bias()
        return net

    def _net_visible(self, h):
        h = ensure_bits(h, self.n_hidden, "hidden vector")
        net = self.grid.weights() @ h.astype(np.float64)
        if self.use_biases:
            net = net + self.grid.visible_bias()
        return net

    def forward(self, v, rng):
        """Sample the hidden layer given a visible vector; n_hidden draws."""
        # Nets built from bounded device weights are finite by construction,
        # so the neuron's validation pass is skipped.
        return self.neuron.sample_net(self._net_hidden(v), rng)

    def backward(self, h, rng):
        """Sample the visible layer given a hidden vector; n_visible draws."""
        return self.neuron.sample_net(self._net_visible(h), rng)

    def probabilities_forward(self, v):
        """Per-hidden-unit firing probabilities, no sampling."""
        return self.neuron.probability(self._net_hidden(v))

    def apply_frame(self, frame):
        """Apply one signal frame to the grid.  Read frames change nothing."""
        if frame.phase == READ:
            return
        if frame.wwl.size != self.n_hidden:
            raise DimensionError(
                f"frame wwl width {frame.wwl.size} does not match {self.n_hidden} columns")
        if frame.bl.size != self.n_visible:
            raise DimensionError(
                f"frame bl/sl width {frame.bl.size} does not match {self.n_visible} rows")
        frame.validate()
        # (1,0) increases, (0,1) decreases, (0,0) and (1,1) drive no net current.
        direction = frame.bl.astype(np.int64) - frame.sl.astype(np.int64)
        self.grid.pulse_column(frame.column, direction)
