import numpy as np
import pytest

from snra.array import RbmArray
from snra.device import SynapseGrid
from snra.errors import ProtocolError
from snra.fsm import CdFsm, State
from snra.trace import (TraceStep, iteration_steps, parse_vcd, steps_from_vcd,
                        write_vcd)


def recorded_iteration(n_visible=5, n_hidden=3, seed=4):
    """Step a controller through one CD iteration, keeping every clock."""
    rng = np.random.default_rng(seed)
    crossbar = RbmArray(SynapseGrid.uniform_random(n_visible, n_hidden, rng))
    controller = CdFsm(n_visible, n_hidden)
    v = rng.integers(0, 2, n_visible)
    steps = []
    while True:
        state, counter = controller.state, controller.counter
        frame = controller.step(crossbar, v if state is State.FEED_FORWARD else None, rng)
        steps.append(TraceStep(frame, state, counter))
        if controller.state is State.FEED_FORWARD:
            return controller, steps


def test_recorded_iteration_round_trips_through_vcd():
    controller, steps = recorded_iteration()
    assert len(steps) == controller.n_hidden + 3
    trace = parse_vcd(write_vcd(steps))
    assert len(trace.snapshots) == len(steps) + 1
    assert steps_from_vcd(trace) == steps
    assert steps == iteration_steps(controller.v, controller.h,
                                    controller.v_bar, controller.h_bar)


def test_empty_trace_rejected():
    with pytest.raises(ProtocolError):
        write_vcd([])
