"""Reference math for small RBM instances, and the Gibbs chain checked
against it.

Energies, distributions and CD deltas are dense and exact: they serve as
ground truth for the hardware-style modules.  The Gibbs chain samples
through the array itself, on integer register codes, and reads each side's
conditional table in one block; ``_code_bits`` is the one code decoder.
"""

import numpy as np

from .bits import ensure_bits, integer_setting
from .errors import DimensionError

# Enumeration cap: 2**20 joint states is the largest table kept exact.
MAX_EXACT_NODES = 20

# Gibbs sweeps per block of uniforms are chosen so that the block's Python
# copy stays near this many bytes: 32 bytes a float, about 180 bytes a
# sweep for its two row lists and its joint state.
_BLOCK_BYTES = 1 << 20


class DenseRbm:
    """Plain real-valued RBM: weight matrix plus per-side bias vectors."""

    def __init__(self, weights, visible_bias=None, hidden_bias=None):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2:
            raise DimensionError(f"weights must be a matrix, got shape {w.shape}")
        self.weights = w
        self.n_visible, self.n_hidden = w.shape
        self.visible_bias = self._bias(visible_bias, self.n_visible, "visible bias")
        self.hidden_bias = self._bias(hidden_bias, self.n_hidden, "hidden bias")
        if not (np.isfinite(self.weights).all()
                and np.isfinite(self.visible_bias).all()
                and np.isfinite(self.hidden_bias).all()):
            raise ValueError("RBM parameters must be finite")

    @staticmethod
    def _bias(values, length, name):
        if values is None:
            return np.zeros(length, dtype=np.float64)
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (length,):
            raise DimensionError(f"{name} must have shape ({length},), got {arr.shape}")
        return arr

    @classmethod
    def from_grid(cls, grid):
        """Snapshot a quantized synapse grid into real-valued parameters:
        the grid maps each read from its states anew, so later writes to
        the grid leave the snapshot as it is."""
        return cls(grid.weights(), grid.visible_bias(), grid.hidden_bias())


def energy(rbm, v, h):
    """Joint energy of one (visible, hidden) configuration."""
    v = ensure_bits(v, rbm.n_visible, "visible state")
    h = ensure_bits(h, rbm.n_hidden, "hidden state")
    vf = v.astype(np.float64)
    hf = h.astype(np.float64)
    return float(-(rbm.visible_bias @ vf) - (rbm.hidden_bias @ hf)
                 - vf @ rbm.weights @ hf)


def joint_index(v, h, n_visible):
    """Flat state index: visible bits are the low bits, hidden bits the high."""
    v = ensure_bits(v)
    h = ensure_bits(h)
    iv = int(v @ (1 << np.arange(v.size, dtype=np.int64)))
    ih = int(h @ (1 << np.arange(h.size, dtype=np.int64)))
    return iv + (ih << n_visible)


def _code_bits(width):
    """uint8 bits of every ``width``-bit register code, one code per row and
    bit k in column k, as in joint_index."""
    codes = np.arange(1 << width, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(codes, axis=1, count=width, bitorder="little")


def exact_distribution(rbm):
    """Boltzmann distribution over all joint states, by full enumeration.

    Index layout follows joint_index: state = int(v) + int(h) << n_visible
    with bit k of each register at integer bit k.
    """
    total = rbm.n_visible + rbm.n_hidden
    if total > MAX_EXACT_NODES:
        raise ValueError(
            f"exact enumeration limited to {MAX_EXACT_NODES} total nodes, got {total}")
    vs = _code_bits(rbm.n_visible).astype(np.float64)
    hs = _code_bits(rbm.n_hidden).astype(np.float64)
    neg_energy = (vs @ rbm.visible_bias)[:, None] + (hs @ rbm.hidden_bias)[None, :]
    neg_energy = neg_energy + vs @ rbm.weights @ hs.T
    # Subtract the max before exponentiating so the partition sum never overflows.
    table = np.exp(neg_energy - neg_energy.max())
    flat = table.T.ravel()
    return flat / flat.sum()


def tv_distance(p, q):
    """Total-variation distance between two discrete distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DimensionError(f"distributions differ in shape: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def gibbs_joint_counts(array, sweeps, rng):
    """Visit counts of (v, h) joint states along an alternating Gibbs chain.

    Starting from v = 0, each sweep samples h given v then v given h
    through the array; the recorded pair (v, h) is one draw from the chain
    whose stationary law is the Boltzmann distribution.  Index layout
    matches joint_index.

    The counts, and the state ``rng`` is left in, equal those of sampling
    each sweep with ``array.forward`` then ``array.backward``, bit for bit:

    * each side's table is read once per call, as ``probabilities_forward``
      or ``probabilities_backward`` of the block ``_code_bits(width)``; nets
      are exact sums, so row c equals the 1-D read of code c's bits;
    * the uniforms come in blocks of ``rng.random((k, n_hidden + n_visible))``,
      which a Generator fills in row-major order, so row t holds sweep t's
      n_hidden draws for h, then its n_visible draws for v;
    * a unit fires iff its uniform is below its probability, the rule of
      ``PBit.sample_net``.

    Memory is bounded by the two tables, 2**n_v * n_h + 2**n_h * n_v floats
    (about 2**19 at most), and the block of uniforms, not by ``sweeps``.
    """
    sweeps = integer_setting(sweeps, "sweeps")
    n_v, n_h = array.n_visible, array.n_hidden
    if n_v + n_h > MAX_EXACT_NODES:
        raise ValueError(
            f"joint-state counting limited to {MAX_EXACT_NODES} total nodes")
    counts = np.zeros(1 << (n_v + n_h), dtype=np.int64)
    # Rows of plain floats, zipped with one list of unit bits, stay small.
    hidden_rows = array.probabilities_forward(_code_bits(n_v)).tolist()
    visible_rows = array.probabilities_backward(_code_bits(n_h)).tolist()
    h_units = [1 << k for k in range(n_h)]
    v_units = [1 << k for k in range(n_v)]
    block = max(1, _BLOCK_BYTES // (32 * (n_v + n_h) + 180))
    v = 0
    for start in range(0, sweeps, block):
        uniforms = rng.random((min(block, sweeps - start), n_h + n_v))
        joint = []
        for u_h, u_v in zip(uniforms[:, :n_h].tolist(), uniforms[:, n_h:].tolist()):
            h = 0
            for u, p, bit in zip(u_h, hidden_rows[v], h_units):
                if u < p:
                    h |= bit
            joint.append(v | h << n_v)
            v = 0
            for u, p, bit in zip(u_v, visible_rows[h], v_units):
                if u < p:
                    v |= bit
        np.add.at(counts, joint, 1)
    return counts


def cd_delta(v, h, v_bar, h_bar, eta):
    """Single-step contrastive-divergence weight change.

    Entries are eta * (v_i h_j - v_bar_i h_bar_j), so each lies in
    {-eta, 0, +eta} for binary states.
    """
    v = ensure_bits(v)
    h = ensure_bits(h)
    v_bar = ensure_bits(v_bar, v.size, "reconstructed visible state")
    h_bar = ensure_bits(h_bar, h.size, "reconstructed hidden state")
    positive = np.outer(v, h).astype(np.float64)
    negative = np.outer(v_bar, h_bar).astype(np.float64)
    return eta * (positive - negative)
