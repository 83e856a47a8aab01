"""Crossbar RBM array: read-phase sampling and write-phase pulse application.

Signal frames follow the word-line / bit-line protocol, and the read word
line says which clock a frame is: with ``rwl`` 1 it is a Read frame, whose
write rails stay parked; with ``rwl`` 0 it is a Write frame, which selects
exactly one hidden column and encodes the pulse direction per visible row
as (bl, sl) = (1, 0) for increase, (0, 1) for decrease, and (0, 0) or
(1, 1) for none.  ``fsm.update_rails`` drives the rails by the CD rule,
and ``rail_directions`` is their one decode.
"""

from dataclasses import dataclass

import numpy as np

from .bits import ensure_bits, flag_setting, integer_setting
from .device import PBit
from .errors import DimensionError, ProtocolError


def rail_directions(bl, sl):
    """int8 pulse directions bl - sl of uint8 rails; SynapseGrid checks them."""
    return bl.view(np.int8) - sl.view(np.int8)


@dataclass(frozen=True, eq=False)
class SignalFrame:
    """One clock's worth of array control signals, checked once when built.

    The frame is frozen and its rails are read-only copies, so nothing
    written through a frame, or to the caller's arrays, can make it invalid."""

    rwl: int
    wwl: np.ndarray
    bl: np.ndarray
    sl: np.ndarray

    def __post_init__(self):
        wwl = ensure_bits(self.wwl, name="wwl")
        bl = ensure_bits(self.bl, name="bl")
        sl = ensure_bits(self.sl, name="sl")
        if bl.size != sl.size:
            raise DimensionError("bl and sl must have equal length")
        try:
            rwl = integer_setting(self.rwl, "rwl", high=1)
        except ValueError:
            raise ProtocolError(
                f"rwl must be 1 (read) or 0 (write), got {self.rwl!r}") from None
        if rwl:
            if wwl.any():
                raise ProtocolError("read frame requires all wwl low")
            if bl.any() or sl.any():
                raise ProtocolError("read frame keeps bl/sl released")
        elif int(wwl.sum()) != 1:
            raise ProtocolError("write frame requires exactly one wwl bit set")
        object.__setattr__(self, "rwl", rwl)
        for name, rail in (("wwl", wwl), ("bl", bl), ("sl", sl)):
            rail = rail.copy()
            rail.flags.writeable = False
            object.__setattr__(self, name, rail)

    @property
    def column(self):
        """Selected hidden column of a write frame."""
        if self.rwl:
            raise ProtocolError("read frames select no column")
        return int(np.flatnonzero(self.wwl)[0])

    @classmethod
    def read_frame(cls, n_visible, n_hidden):
        return cls(1, np.zeros(n_hidden, dtype=np.uint8),
                   np.zeros(n_visible, dtype=np.uint8),
                   np.zeros(n_visible, dtype=np.uint8))

    @classmethod
    def write_frame(cls, column, bl, sl, n_hidden):
        try:
            column = integer_setting(column, "column", high=n_hidden - 1)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        wwl = np.zeros(n_hidden, dtype=np.uint8)
        wwl[column] = 1
        return cls(0, wwl, bl, sl)

    def __eq__(self, other):
        if not isinstance(other, SignalFrame):
            return NotImplemented
        return (self.rwl == other.rwl
                and np.array_equal(self.wwl, other.wwl)
                and np.array_equal(self.bl, other.bl)
                and np.array_equal(self.sl, other.sl))


class RbmArray:
    """One RBM crossbar: a synapse grid read through stochastic neurons."""

    def __init__(self, grid, neuron=None, use_biases=True):
        self.grid = grid
        self.neuron = neuron if neuron is not None else PBit()
        self.use_biases = flag_setting(use_biases, "use_biases")

    @property
    def n_visible(self):
        return self.grid.n_visible

    @property
    def n_hidden(self):
        return self.grid.n_hidden

    def _nets(self, bits, hidden=True):
        """Hidden nets of a visible vector, or of each row of a block of
        them; with ``hidden`` false, visible nets of hidden bits alike."""
        width, side = (self.n_visible, "visible") if hidden else (self.n_hidden, "hidden")
        bits = np.asarray(bits)
        if bits.ndim == 2 and bits.shape[1] == width:
            bits = ensure_bits(bits.reshape(-1), name=f"{side} rows").reshape(bits.shape)
        else:
            bits = ensure_bits(bits, width, f"{side} vector")
        return self.grid.nets(bits, self.use_biases, hidden)

    def forward(self, v, rng):
        """Sample the hidden layer given a visible vector, or given each row
        of a block; n_hidden draws per row, through ``PBit.sample_net``."""
        # Nets built from bounded device weights are finite by construction,
        # so the neuron's validation pass is skipped.
        return self.neuron.sample_net(self._nets(v), rng)

    def backward(self, h, rng):
        """Sample the visible layer given a hidden vector, or given each row
        of a block; n_visible draws per row, through ``PBit.sample_net``."""
        return self.neuron.sample_net(self._nets(h, hidden=False), rng)

    def probabilities_forward(self, v):
        """Per-hidden-unit firing probabilities of a visible vector, or of
        each row of a block; no sampling."""
        return self.neuron.probability(self._nets(v))

    def probabilities_backward(self, h):
        """Per-visible-unit firing probabilities of a hidden vector, or of
        each row of a block; no sampling."""
        return self.neuron.probability(self._nets(h, hidden=False))

    def apply_frame(self, frame):
        """Apply one signal frame to the grid.  Read frames change nothing."""
        if frame.rwl:
            return
        if frame.wwl.size != self.n_hidden:
            raise DimensionError(
                f"frame wwl width {frame.wwl.size} does not match {self.n_hidden} columns")
        self.grid.pulse_column(frame.column, rail_directions(frame.bl, frame.sl))
