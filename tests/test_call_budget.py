"""Call budgets: how many calls ``snra``'s own code makes per operation.

At small shapes host time goes to calls, not arithmetic, and a call count
does not vary between runs the way time does on a shared host.  The
counter uses only ``sys.setprofile``: it counts each ``call`` (a Python
function) and ``c_call`` (a builtin) event whose calling frame lies in one
of ``snra``'s files.  The tests pin the total, not the Python/C split, so a
NumPy release that moves a wrapper into C leaves them as they are.
Raising a budget is logged in CHANGES.md like any other bound.
"""

import os
import sys

import numpy as np

import snra
from snra.array import RbmArray
from snra.dbn import DbnModel, error_rate
from snra.device import SynapseGrid
from snra.fsm import CdFsm
from snra.oracle import gibbs_joint_counts

PACKAGE = os.path.join(os.path.dirname(snra.__file__), "")


def snra_calls(operation):
    """Calls made from ``snra``'s frames while ``operation()`` runs."""
    calls = 0

    def profile(frame, event, _):
        nonlocal calls
        if event not in ("call", "c_call"):
            return
        # A call event runs in the callee's new frame, a c_call in the caller's.
        caller = frame.f_back if event == "call" else frame
        if caller is not None and caller.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(profile)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return calls


def steady_calls(operation):
    """The count of ``operation`` after a first call, which may import or
    build what later calls reuse; the same on three repeats."""
    operation()
    counts = {snra_calls(operation) for _ in range(3)}
    assert len(counts) == 1, counts
    return counts.pop()


def test_cd_iteration_at_12x8():
    array, fsm = RbmArray(SynapseGrid(12, 8)), CdFsm(12, 8)
    rng = np.random.default_rng(1)
    image = rng.integers(0, 2, 12, dtype=np.uint8)
    assert steady_calls(lambda: fsm.run_cd_iteration(array, image, rng)) == 66


def test_clamped_cd_iteration_at_16x10():
    array, fsm = RbmArray(SynapseGrid(16, 10)), CdFsm(16, 10)
    rng = np.random.default_rng(2)
    image = rng.integers(0, 2, 16, dtype=np.uint8)
    label = np.eye(10, dtype=np.uint8)[3]
    assert steady_calls(lambda: fsm.run_cd_iteration(array, image, rng, label)) == 59


def test_error_rate_of_100_rows_at_784x16x10():
    # Each row after the first resumes one PCG64 state.
    model = DbnModel((784, 16, 10))
    rng = np.random.default_rng(3)
    images = rng.integers(0, 2, (100, 784), dtype=np.uint8)
    labels = rng.integers(0, 10, 100)
    assert steady_calls(lambda: error_rate(model, images, labels)) == 222


def test_gibbs_chain_makes_one_call_per_sweep():
    # joint.append is the chain's one call per sweep: no call per unit.
    array = RbmArray(SynapseGrid.uniform_random(4, 3, np.random.default_rng(4)))
    rng = np.random.default_rng(5)
    short, long = (steady_calls(lambda: gibbs_joint_counts(array, sweeps, rng))
                   for sweeps in (1000, 2000))
    assert long - short == 1000
