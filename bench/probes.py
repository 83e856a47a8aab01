"""Where the traced run wraps snra: one span name per public entry point.

A span's layer is the part of its name before the first dot, and names
the snra module the call goes into.  Every name listed for a module is
patched at each place a caller resolves it, so a call made through a
``from ... import`` name is caught as well as one made through the
defining module.
"""

import numpy as np

import snra
from snra import array as array_mod
from snra import bits as bits_mod
from snra import cli, dataset, dbn, fsm, oracle, power, trace
from snra.array import RbmArray, SignalFrame
from snra.device import PBit, SynapseGrid
from snra.fsm import CdFsm, State

# (span name, attribute, modules or classes that resolve it)
_FUNCTIONS = [
    ("bits.ensure_bits", "ensure_bits", (bits_mod, array_mod, fsm, dbn, trace, oracle)),
    ("bits.to_string", "bits_to_string", (bits_mod, trace)),
    ("bits.from_string", "bits_from_string", (bits_mod, trace, cli)),
    ("fsm.update_frame", "update_frame", (fsm, trace)),
    ("dbn.greedy_train", "greedy_train", (dbn, snra)),
    ("dbn.error_rate", "error_rate", (dbn, snra)),
    ("dbn.predict", "predict", (dbn, snra)),
    ("dbn.derived_rng", "derived_rng", (dbn,)),
    ("dbn.one_hot", "one_hot", (dbn,)),
    ("dbn.to_bytes", "to_bytes", (dbn,)),
    ("dbn.from_bytes", "from_bytes", (dbn,)),
    ("trace.write_vcd", "write_vcd", (trace, snra)),
    ("trace.parse_vcd", "parse_vcd", (trace, snra)),
    ("trace.steps_from_vcd", "steps_from_vcd", (trace,)),
    ("trace.iteration_steps", "iteration_steps", (trace,)),
    ("oracle.gibbs_joint_counts", "gibbs_joint_counts", (oracle, cli)),
    ("oracle.exact_distribution", "exact_distribution", (oracle, cli, snra)),
    ("oracle.tv_distance", "tv_distance", (oracle, cli)),
    ("power.load_reference", "load_reference", (power,)),
    ("power.topology_power", "topology_power", (power, snra)),
    ("power.comparison_report", "comparison_report", (power, snra)),
    ("cli.main", "main", (cli,)),
]

_METHODS = [
    ("device.weights", SynapseGrid, ("weights", "visible_bias", "hidden_bias")),
    ("device.sample_net", PBit, ("sample_net",)),
    ("device.probability", PBit, ("probability",)),
    ("array.forward", RbmArray, ("forward",)),
    ("array.backward", RbmArray, ("backward",)),
    ("array.probabilities_forward", RbmArray, ("probabilities_forward",)),
    ("array.apply_frame", RbmArray, ("apply_frame",)),
    ("array.signal_frame", SignalFrame, ("__post_init__",)),
    ("fsm.cd_iteration", CdFsm, ("run_cd_iteration",)),
]


def _clock_name(controller, *args, **kwargs):
    return "fsm.update_clock" if controller.state is State.UPDATE else "fsm.read_clock"


def _cd_iteration_name(controller, layer, *args, **kwargs):
    return f"fsm.cd_iteration:{layer.n_visible}x{layer.n_hidden}"


def _pulse_hooks(recorder, snapshot):
    """Count pulses commanded and pulses that moved a state index.

    A pulse that finds its cell at 0 or levels - 1 moves nothing: the
    write saturates, so the ratio of the two counts is the share of write
    work that was not wasted.
    """
    def before(grid, *args):
        return snapshot(grid, *args).copy()

    def after(previous, result, grid, *args):
        recorder.count("device.pulses", int(np.count_nonzero(args[-1])))
        recorder.count("device.pulses_moved",
                       int(np.count_nonzero(snapshot(grid, *args) != previous)))

    return {"before": before, "after": after}


def _idx_bytes(recorder):
    """Count the decompressed bytes each load_idx call reads."""
    def after(previous, result, images_path, labels_path, *args, **kwargs):
        recorder.count("dataset.idx_bytes",
                       _gzip_size(images_path) + _gzip_size(labels_path))
    return {"after": after}


def _gzip_size(path):
    # The gzip trailer ends with the uncompressed length modulo 2**32.
    with open(path, "rb") as handle:
        handle.seek(-4, 2)
        return int.from_bytes(handle.read(4), "little")


def install(recorder):
    """Patch every probe into snra; ``recorder.restore()`` removes them."""
    for name, attribute, owners in _FUNCTIONS:
        for owner in owners:
            recorder.patch(owner, attribute, name)
    for name, owner, attributes in _METHODS:
        for attribute in attributes:
            name_of = _cd_iteration_name if attribute == "run_cd_iteration" else None
            recorder.patch(owner, attribute, name, name_of=name_of)
    for owner in (dataset, cli, snra):
        recorder.patch(owner, "load_idx", "dataset.load_idx", **_idx_bytes(recorder))
    recorder.patch(CdFsm, "step", "fsm.step", name_of=_clock_name)
    recorder.patch(SynapseGrid, "pulse_column", "device.pulse_column",
                   **_pulse_hooks(recorder, lambda grid, column, _: grid.states[:, column]))
    recorder.patch(SynapseGrid, "pulse_visible_bias", "device.pulse_bias",
                   **_pulse_hooks(recorder, lambda grid, _: grid.visible_bias_states))
    recorder.patch(SynapseGrid, "pulse_hidden_bias", "device.pulse_bias",
                   **_pulse_hooks(recorder, lambda grid, _: grid.hidden_bias_states))
