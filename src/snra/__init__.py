"""Clock-accurate simulator of a reconfigurable spintronic training array.

The package models stochastic sigmoid neurons reading a quantized synapse
crossbar, a four-state controller that trains RBMs by contrastive
divergence in n_hidden + 3 clocks per iteration, greedy DBN stacking with
classification, exact small-instance reference math, an SRAM vs gated
non-volatile fabric power model, and VCD waveform capture.
"""

from .array import RbmArray, SignalFrame
from .dataset import LabeledBitSet, load_idx
from .dbn import DbnModel, error_rate, greedy_train, load_model, predict, save_model
from .device import PBit, SynapseGrid
from .errors import SnraError
from .fsm import CdFsm, State, train_clock_budget
from .oracle import DenseRbm, cd_delta, energy, exact_distribution
from .power import comparison_report, topology_power
from .trace import parse_vcd, write_vcd

__version__ = "0.1.0"

__all__ = [
    "CdFsm",
    "DbnModel",
    "DenseRbm",
    "LabeledBitSet",
    "PBit",
    "RbmArray",
    "SignalFrame",
    "SnraError",
    "State",
    "SynapseGrid",
    "cd_delta",
    "comparison_report",
    "energy",
    "error_rate",
    "exact_distribution",
    "greedy_train",
    "load_idx",
    "load_model",
    "parse_vcd",
    "predict",
    "save_model",
    "topology_power",
    "train_clock_budget",
    "write_vcd",
    "__version__",
]
