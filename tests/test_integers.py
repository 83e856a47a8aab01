"""Every entry point that takes a count, index or setting applies the one
integer rule of ``snra.bits``: no float or string is truncated or parsed,
and no value out of range is accepted.  Real-valued settings and flags
parse no string either."""

import numpy as np
import pytest
from test_dataset import write_idx_pair

from snra import dbn
from snra.array import RbmArray
from snra.dataset import load_idx
from snra.device import PBit, SynapseGrid
from snra.fsm import CdFsm, train_clock_budget
from snra.oracle import gibbs_joint_counts


def integer_entry_points(tmp_path):
    """Each entry point as a call of one integer argument: the call, the
    argument's name, and values out of its range."""
    model = dbn.DbnModel((8, 4, 2), levels=16)
    images, labels = np.zeros((3, 8), dtype=np.uint8), [0, 1, 0]
    idx_pair = write_idx_pair(tmp_path, np.zeros((3, 784), dtype=np.uint8), [0, 1, 2])
    crossbar = RbmArray(SynapseGrid(2, 2))
    return {
        "train_clock_budget": (lambda n: train_clock_budget((784, 10), n, 1), "samples", [-1]),
        "greedy_train": (lambda n: dbn.greedy_train(model, images, labels, n), "epochs", [-1]),
        "load_idx": (lambda n: load_idx(*idx_pair, limit=n), "limit", [-1]),
        "one_hot": (lambda n: dbn.one_hot(n, 4), "label", [-1, 4]),
        "predict": (lambda n: dbn.predict(model, images[0], n), "sample_index", [-1]),
        "gibbs_joint_counts": (lambda n: gibbs_joint_counts(crossbar, n, np.random.default_rng(0)),
                               "sweeps", [-1]),
        "SynapseGrid": (lambda n: SynapseGrid(2, 2, levels=n), "levels", [1, -3]),
        "CdFsm": (lambda n: CdFsm(2, n), "n_hidden", [0, -1]),
        "DbnModel": (lambda n: dbn.DbnModel((8, 4, 2), rng_seed=n), "rng_seed", [-1, 1 << 64]),
        "derived_rng": (lambda n: dbn.derived_rng(1, 3, n), "index", [-1]),
    }


def real_and_flag_entry_points():
    """Each real-valued setting and flag as a call of that one argument."""
    return {
        "SynapseGrid.w_min": (lambda x: SynapseGrid(2, 2, w_min=x, w_max=5.0), "w_min", -1.0),
        "SynapseGrid.w_max": (lambda x: SynapseGrid(2, 2, w_max=x), "w_max", 1.0),
        "PBit": (lambda x: PBit(x), "input_scale", 2.0),
        "DbnModel.input_scale": (lambda x: dbn.DbnModel((4, 2), input_scale=x),
                                 "input_scale", 3.0),
        "DbnModel.w_min": (lambda x: dbn.DbnModel((4, 2), w_min=x, w_max=5.0), "w_min", -1.0),
        "DbnModel.use_biases": (lambda x: dbn.DbnModel((4, 2), use_biases=x),
                                "use_biases", False),
        "SynapseGrid.use_biases": (lambda x: SynapseGrid(2, 2, use_biases=x),
                                   "use_biases", False),
    }


@pytest.mark.parametrize("entry", list(real_and_flag_entry_points()))
def test_real_settings_and_flags_rejected_not_parsed(entry):
    # A string is not parsed and None is not read by its truth; numbers,
    # numpy scalars and bools keep working.
    call, name, good = real_and_flag_entry_points()[entry]
    bad = ["no", "0", None, 2.5] if isinstance(good, bool) else [str(good), None, [good]]
    for value in bad:
        with pytest.raises(ValueError, match=f"^{name} must"):
            call(value)
    for value in ([good, np.bool_(good), int(good), np.int64(good)] if isinstance(good, bool)
                  else [good, np.float32(good), int(good), np.int64(good)]):
        call(value)


@pytest.mark.parametrize("entry", ["train_clock_budget", "greedy_train", "load_idx", "one_hot",
                                   "predict", "gibbs_joint_counts", "SynapseGrid", "CdFsm",
                                   "DbnModel", "derived_rng"])
def test_integer_arguments_rejected_not_truncated(entry, tmp_path):
    # A float, even an integral one, or a string is neither truncated nor
    # parsed, and a count, index or setting out of range is refused.
    call, name, out_of_range = integer_entry_points(tmp_path)[entry]
    for value in (2.5, np.float64(2.0), "2", *out_of_range):
        with pytest.raises(ValueError, match=f"^{name} must"):
            call(value)
