import copy
import json
import math
import os
import subprocess
import sys
from itertools import compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from snra import dbn
from snra.array import RbmArray
from snra.device import MAX_LEVELS, PBit, SynapseGrid
from snra.errors import DimensionError

finite_inputs = st.floats(min_value=-50, max_value=50,
                          allow_nan=False, allow_infinity=False)

SRC = Path(__file__).resolve().parents[1] / "src"
# Prepended to a fresh interpreter's code, makes every scipy import fail.
BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"


def fresh_python(code, *args, cwd=None):
    """Run ``code`` with ``args`` in a fresh interpreter that imports snra
    from this checkout's ``src``; stdout and stderr are captured as bytes."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, timeout=120)


def fail_large_allocations(monkeypatch):
    """Make ``np.full`` fail as an out-of-memory host would past 10**8 cells.

    The failure is simulated: a real allocation this large could succeed
    on a host that overcommits memory, and then fill it.
    """
    real_full = np.full

    def full(shape, *args, **kwargs):
        if math.prod(shape) > 10**8:
            raise MemoryError(shape)
        return real_full(shape, *args, **kwargs)

    monkeypatch.setattr(np, "full", full)


class TestPBit:
    def test_probability_midpoint(self):
        assert PBit().probability(0.0) == 0.5

    def test_probability_closed_form(self):
        # sigmoid(ln 3) = 3/4
        assert PBit().probability(math.log(3)) == pytest.approx(0.75, abs=1e-12)

    @given(finite_inputs)
    def test_probability_symmetry(self, x):
        neuron = PBit()
        assert neuron.probability(x) + neuron.probability(-x) == pytest.approx(1.0)

    @given(finite_inputs, finite_inputs)
    def test_probability_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        neuron = PBit()
        p_lo, p_hi = neuron.probability(lo), neuron.probability(hi)
        # Distinct inputs may round to one float64 probability (expit(0) ==
        # expit(2.46e-276)), so ties are allowed.  The sigmoid's slope is
        # smallest at an end of [lo, hi], which bounds the true gap from
        # below; where that bound exceeds float resolution the order must
        # be strict.
        assert p_lo <= p_hi
        slope = min(p_lo * (1.0 - p_lo), p_hi * (1.0 - p_hi))
        if (hi - lo) * slope > 4 * math.ulp(p_hi):
            assert p_lo < p_hi

    def test_input_scale_applies_before_sigmoid(self):
        assert PBit(2.0).probability(0.5 * math.log(3)) == pytest.approx(0.75)

    def test_invalid_scale(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                PBit(bad)

    def test_non_finite_input_rejected(self):
        neuron = PBit()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                neuron.probability(bad)
            with pytest.raises(ValueError):
                neuron.probability([0.0, bad])

    def test_strings_rejected_not_parsed(self):
        # Only bool, integer and real dtypes enter the sigmoid.
        neuron = PBit()
        for bad in ("0.5", ["1", "2"], np.array([b"0"]), [0.5, None]):
            with pytest.raises(ValueError, match="^net input must be finite real numbers"):
                neuron.probability(bad)
        assert neuron.probability(True) == neuron.probability(1.0)
        assert neuron.probability(np.int64(2)) == neuron.probability(2.0)
        assert neuron.probability(np.array([0, 1], dtype=np.uint8)).tolist() == (
            neuron.probability([0.0, 1.0]).tolist())
        assert neuron.probability(np.float32(0.5)) == neuron.probability(0.5)

    def test_sample_saturation(self):
        neuron = PBit()
        rng = np.random.default_rng(0)
        assert neuron.sample_net(np.full(50, 1e9), rng).all()
        assert not neuron.sample_net(np.full(50, -1e9), rng).any()

    def test_sample_consumes_one_draw(self):
        # one uniform draw per net input, no more
        for count in (1, 5):
            a = np.random.default_rng(42)
            b = np.random.default_rng(42)
            PBit().sample_net(np.full(count, 0.3), a)
            b.random(count)
            assert a.random() == b.random()

    def test_sample_matches_threshold_rule(self):
        # bit k is rng.random(n)[k] < p_k, draws taken in ascending index order
        neuron = PBit(1.5)
        nets = np.random.default_rng(3).normal(scale=2.0, size=200)
        p = neuron.probability(nets)
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        bits = neuron.sample_net(nets, a)
        assert bits.dtype == np.uint8
        assert bits.tolist() == (b.random(nets.size) < p).astype(int).tolist()

    def test_vector_path_equals_scalar_path(self):
        # The vector sampler must consume the stream in ascending index order.
        nets = np.array([0.2, -1.0, 3.0, 0.0])
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        vec = PBit().sample_net(nets, a)
        scalars = [int(PBit().sample_net(nets[k:k + 1], b)[0]) for k in range(nets.size)]
        assert vec.tolist() == scalars

    def test_block_draws_as_rows_on_one_stream(self):
        # A block takes its uniforms from the stream row after row, so it
        # samples what one call per row on the same stream samples.
        neuron = PBit(1.5)
        nets = np.random.default_rng(4).normal(scale=2.0, size=(7, 30))
        a = np.random.default_rng(8)
        b = np.random.default_rng(8)
        block = neuron.sample_net(nets, a)
        assert block.shape == nets.shape and block.dtype == np.uint8
        assert np.array_equal(block, np.stack([neuron.sample_net(row, b) for row in nets]))
        assert a.random() == b.random()

    def test_determinism(self):
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            outs.append(PBit().sample_net(np.full(100, 0.1), rng).tolist())
        assert outs[0] == outs[1]

    def test_empirical_mean_at_zero(self):
        rng = np.random.default_rng(2024)
        draws = PBit().sample_net(np.zeros(10**6), rng)
        assert abs(float(draws.mean()) - 0.5) < 0.002

    # Calls the named PBit methods in order in a fresh process, where the
    # first of them computes the first sigmoid and so loads scipy.
    FIRST_SIGMOID = """import json, sys
import numpy as np
from snra import device
loaded_at_import = "scipy" in sys.modules
bit = device.PBit(1.7)
net = np.linspace(-40.0, 40.0, 2001)
out = {}
for name in sys.argv[1:]:
    if name == "probability":
        out[name] = bit.probability(net).tobytes().hex()
    else:
        out[name] = bit.sample_net(net, np.random.default_rng(5)).tobytes().hex()
import scipy.special
print(json.dumps({"loaded_at_import": loaded_at_import,
                  "bound": device.expit is scipy.special.expit, **out}))
"""

    @pytest.mark.parametrize("order", [("probability", "sample_net"),
                                       ("sample_net", "probability")])
    def test_first_sigmoid_is_scipys_expit(self, order):
        done = fresh_python(self.FIRST_SIGMOID, *order)
        assert done.returncode == 0, done.stderr.decode()
        out = json.loads(done.stdout)
        net = np.linspace(-40.0, 40.0, 2001)
        prob = expit(1.7 * net)
        bits = (np.random.default_rng(5).random(net.shape) < prob).astype(np.uint8)
        assert out["probability"] == prob.tobytes().hex()
        assert out["sample_net"] == bits.tobytes().hex()
        assert not out["loaded_at_import"]
        assert out["bound"]


class TestSynapseGrid:
    def test_weight_mapping_endpoints(self):
        grid = SynapseGrid(2, 2, levels=32, w_min=-1.0, w_max=1.0)
        assert grid.weight(0) == -1.0
        assert grid.weight(31) == 1.0
        assert grid.weight_step == pytest.approx(2.0 / 31)

    def test_default_initial_state_is_midpoint(self):
        grid = SynapseGrid(3, 2, levels=32)
        assert (grid.states == 15).all()
        assert (grid.visible_bias_states == 15).all()
        assert (grid.hidden_bias_states == 15).all()
        # An even level count has no weight 0: the mid index sits one half
        # step below it.
        assert grid.weights() == pytest.approx(np.full((3, 2), -1 / 31), abs=1e-15)
        odd = SynapseGrid(3, 2, levels=33)
        assert (odd.states == 16).all()
        assert (odd.weights() == 0.0).all()

    def test_unallocatable_grid_raises_dimension_error(self, monkeypatch):
        fail_large_allocations(monkeypatch)
        with pytest.raises(DimensionError, match=r"\(784, 100000000\)"):
            SynapseGrid(784, 100_000_000)

    def test_apply_pulse_single_step(self):
        grid = SynapseGrid(2, 2)
        grid.states[0, 1] = 5
        grid.pulse_column(1, [1, 0])
        assert grid.states[0, 1] == 6
        grid.pulse_column(1, [-1, 0])
        assert grid.states[0, 1] == 5
        grid.pulse_column(1, [0, 0])
        assert grid.states[0, 1] == 5

    def test_saturation_no_wraparound(self):
        grid = SynapseGrid(1, 1, levels=8)
        grid.states[0, 0] = 7
        grid.pulse_column(0, [1])
        assert grid.states[0, 0] == 7
        grid.states[0, 0] = 0
        grid.pulse_column(0, [-1])
        assert grid.states[0, 0] == 0
        grid.load_states([[0]], [7], [0])
        grid.pulse_visible_bias([1])
        grid.pulse_hidden_bias([-1])
        assert grid.visible_bias_states.tolist() == [7]
        assert grid.hidden_bias_states.tolist() == [0]

    @given(st.integers(1, 30))
    def test_increase_then_decrease_round_trip(self, d):
        grid = SynapseGrid(1, 1, levels=32)
        grid.load_states([[d]], [d], [d])
        grid.pulse_column(0, [1])
        grid.pulse_visible_bias([1])
        grid.pulse_hidden_bias([1])
        grid.pulse_column(0, [-1])
        grid.pulse_visible_bias([-1])
        grid.pulse_hidden_bias([-1])
        assert grid.states[0, 0] == d
        assert grid.visible_bias_states[0] == d
        assert grid.hidden_bias_states[0] == d

    def test_out_of_range_cell(self):
        grid = SynapseGrid(2, 2)
        for column in (2, -1, 5):
            with pytest.raises(IndexError):
                grid.pulse_column(column, [0, 0])

    @pytest.mark.parametrize("column, directions", [
        (True, np.ones((2, 1, 3), dtype=np.int64)), (1.0, [1, 1])])
    def test_non_integer_column_pulses_nothing(self, column, directions):
        # numpy would read True as a mask selecting every column.
        grid = SynapseGrid(2, 3)
        with pytest.raises(ValueError):
            grid.pulse_column(column, directions)
        assert grid.pulse_count == 0 and (grid.states == 15).all()

    def test_bad_direction(self):
        grid = SynapseGrid(2, 3)
        with pytest.raises(ValueError):
            grid.pulse_column(0, [2, 0])
        with pytest.raises(ValueError):
            grid.pulse_visible_bias([0, -2])
        with pytest.raises(ValueError):
            grid.pulse_hidden_bias([0, 0, 3])
        with pytest.raises(DimensionError):
            grid.pulse_column(0, [1, 0, 0])
        with pytest.raises(DimensionError):
            grid.pulse_visible_bias([1, 0, 0])
        with pytest.raises(DimensionError):
            grid.pulse_hidden_bias([1, 0])
        # Fractions are rejected, not truncated to a direction.
        before = grid.fingerprint()
        with pytest.raises(ValueError, match="directions must hold integers"):
            grid.pulse_column(0, [0.6, -0.4])
        with pytest.raises(ValueError, match="directions must hold integers"):
            grid.pulse_block([0, 1], [0, 1, 2], np.full((2, 3), 1.0))
        with pytest.raises(ValueError):
            grid.pulse_block([0, 1], [0, 2], [[0, 2], [0, 0]])
        with pytest.raises(DimensionError):
            grid.pulse_block([0, 1], [0, 2], np.ones((2, 3), dtype=np.int8))
        with pytest.raises(ValueError, match="directions must hold integers"):
            grid.pulse_visible_bias([1.0, 0.0])
        with pytest.raises(ValueError, match="directions must hold integers"):
            grid.pulse_hidden_bias([0.9, 0, -1])
        assert grid.fingerprint() == before
        assert grid.pulse_count == 0

    @pytest.mark.parametrize("rows, cols", [
        ([0, 2], [0]), ([-1], [0]), ([1, 0], [0]), ([1, 1], [0]),
        ([0], [3]), ([0], [-3]), ([0], [2, 2]), ([0.0], [0]), ([True], [0]),
        ([[0]], [0])])
    def test_pulse_block_rejects_bad_lines(self, rows, cols):
        grid = SynapseGrid(2, 3)
        before = grid.fingerprint()
        with pytest.raises((IndexError, ValueError)):
            grid.pulse_block(rows, cols, np.ones((len(rows), len(cols)), dtype=np.int8))
        assert grid.fingerprint() == before
        assert grid.pulse_count == 0

    def test_pulse_block_writes_only_its_block(self):
        # Column-major initial states still take the write in place.
        grid = SynapseGrid(3, 4, levels=8)
        grid.load_states(np.asfortranarray(np.full((3, 4), 3)), [3, 3, 3], [3, 3, 3, 3])
        grid.weights()
        grid.pulse_block([0, 2], [1, 3], [[1, -1], [0, 1]])
        assert grid.states.tolist() == [[3, 4, 3, 2], [3, 3, 3, 3], [3, 3, 3, 4]]
        assert grid.pulse_count == 3
        assert grid.weights().tolist() == grid.weight(grid.states).tolist()
        grid.pulse_block(np.array([], dtype=np.int64), [0, 1], np.zeros((0, 2), dtype=np.int8))
        assert grid.pulse_count == 3

    def test_pulse_column(self):
        grid = SynapseGrid(3, 2, levels=8)
        grid.load_states([[7, 3], [0, 3], [3, 3]], [0, 0, 0], [0, 0])
        grid.pulse_column(0, [1, -1, 0])
        assert grid.states[:, 0].tolist() == [7, 0, 3]
        assert grid.states[:, 1].tolist() == [3, 3, 3]

    def test_pulse_count_tracks_issued_pulses(self):
        grid = SynapseGrid(2, 2, levels=4)
        grid.states[:] = 3
        assert grid.pulse_count == 0
        grid.pulse_column(0, [1, -1])
        assert grid.pulse_count == 2
        grid.pulse_column(0, [0, 0])
        assert grid.pulse_count == 2
        # saturated writes still count as issued pulses
        grid.pulse_column(0, [1, 0])
        assert grid.pulse_count == 3
        grid.pulse_visible_bias([1, 1])
        grid.pulse_hidden_bias([0, -1])
        assert grid.pulse_count == 6

    def test_reads_follow_every_pulse(self):
        grid = SynapseGrid(2, 2, levels=3, w_min=-1.0, w_max=1.0)
        assert grid.weights()[0, 0] == 0.0
        assert grid.visible_bias()[0] == 0.0 and grid.hidden_bias()[1] == 0.0
        grid.pulse_column(0, [1, 0])
        assert grid.weights()[0, 0] == 1.0
        grid.pulse_visible_bias([-1, 0])
        assert grid.visible_bias()[0] == -1.0
        grid.pulse_hidden_bias([0, 1])
        assert grid.hidden_bias()[1] == 1.0

    @pytest.mark.parametrize("delta_d", [1, 2, 5])
    def test_reads_equal_the_states_after_mixed_writes(self, delta_d):
        rng = np.random.default_rng(delta_d)
        grid = SynapseGrid.uniform_random(6, 5, rng, levels=4, delta_d=delta_d,
                                          w_min=-0.3, w_max=0.7)
        for _ in range(40):
            grid.weights(), grid.visible_bias(), grid.hidden_bias()
            rows = np.flatnonzero(rng.integers(0, 2, 6))
            cols = np.flatnonzero(rng.integers(0, 2, 5))
            grid.pulse_block(rows, cols, rng.integers(-1, 2, (rows.size, cols.size)))
            grid.pulse_column(int(rng.integers(5)), rng.integers(-1, 2, 6))
            grid.pulse_visible_bias(rng.integers(-1, 2, 6))
            grid.pulse_hidden_bias(rng.integers(-1, 2, 5))
            for read, states in ((grid.weights(), grid.states),
                                 (grid.visible_bias(), grid.visible_bias_states),
                                 (grid.hidden_bias(), grid.hidden_bias_states)):
                assert read.view(np.int64).tolist() == grid.weight(states).view(np.int64).tolist()

    def test_float_weights_are_read_only(self):
        grid = SynapseGrid(2, 2)
        for read in (grid.weights, grid.visible_bias, grid.hidden_bias):
            with pytest.raises(ValueError, match="read-only"):
                read()[0] = 0.5
        assert grid.weights().tolist() == grid.weight(grid.states).tolist()

    def test_bias_pulses(self):
        grid = SynapseGrid(2, 3, levels=8)
        grid.pulse_visible_bias([1, -1])
        assert grid.visible_bias_states.tolist() == [4, 2]
        grid.pulse_hidden_bias([0, 1, -1])
        assert grid.hidden_bias_states.tolist() == [3, 4, 2]

    def test_bias_line_off_keeps_its_states(self):
        # The line leaves the nets only: its states are still pulsed, read,
        # loaded and fingerprinted.
        on, off = SynapseGrid(2, 3, levels=3), SynapseGrid(2, 3, levels=3, use_biases=False)
        assert on.use_biases is True and off.use_biases is False
        for grid in (on, off):
            grid.pulse_visible_bias([1, -1])
            grid.pulse_hidden_bias([0, 1, -1])
        assert off.fingerprint() == on.fingerprint() and off.pulse_count == 4
        assert off.hidden_bias().tolist() == on.hidden_bias().tolist()
        v = np.array([1, 0], dtype=np.uint8)
        assert off.nets(v).tolist() == (v @ off.weights()).tolist()
        assert on.nets(v).tolist() == (v @ on.weights() + on.hidden_bias()).tolist()
        off.load_states(np.zeros((2, 3), dtype=int), [2, 2], [2, 0, 2])
        assert off.nets([1, 1, 1], hidden=False).tolist() == (off.weights() @ [1, 1, 1]).tolist()

    def test_fingerprint_changes_only_on_writes(self):
        grid = SynapseGrid(2, 2)
        before = grid.fingerprint()
        grid.weights()
        assert grid.fingerprint() == before
        grid.pulse_column(0, [1, 0])
        assert grid.fingerprint() != before

    def test_uniform_random_stays_in_range(self):
        grid = SynapseGrid.uniform_random(5, 4, np.random.default_rng(3), levels=8)
        for arr in (grid.states, grid.visible_bias_states, grid.hidden_bias_states):
            assert arr.min() >= 0 and arr.max() <= 7

    def test_uniform_random_loads_its_draws_in_order(self):
        grid = SynapseGrid.uniform_random(5, 4, np.random.default_rng(3), levels=8,
                                          delta_d=2)
        twin = np.random.default_rng(3)
        loaded = SynapseGrid(5, 4, levels=8, delta_d=2)
        loaded.load_states(twin.integers(0, 8, size=(5, 4)), twin.integers(0, 8, size=5),
                           twin.integers(0, 8, size=4))
        assert grid.fingerprint() == loaded.fingerprint()
        assert (grid.levels, grid.delta_d) == (8, 2)

    def test_constructor_validation(self):
        with pytest.raises(Exception):
            SynapseGrid(0, 2)
        with pytest.raises(ValueError):
            SynapseGrid(2, 2, levels=1)
        with pytest.raises(ValueError):
            SynapseGrid(2, 2, w_min=1.0, w_max=-1.0)
        with pytest.raises(ValueError):
            SynapseGrid(2, 2, delta_d=0)
        # Given states enter only through load_states.
        with pytest.raises(TypeError):
            SynapseGrid(2, 2, states=[[0, 0], [0, 0]])

    @pytest.mark.parametrize("setting", [
        {"levels": 2.9}, {"delta_d": 1.5}, {"levels": np.float64(32.0)}, {"delta_d": "1"},
        {"n_visible": 2.5, "n_hidden": 2.9}, {"n_hidden": 3.0},
        {"n_visible": np.float64(2.0)}, {"n_visible": "2"}])
    def test_non_integer_settings_rejected(self, setting):
        with pytest.raises(ValueError, match="must be an integer"):
            SynapseGrid(**{"n_visible": 2, "n_hidden": 2, **setting})

    def test_line_counts(self):
        grid = SynapseGrid(np.int64(2), np.uint8(3))
        assert (grid.n_visible, grid.n_hidden) == (2, 3)
        assert type(grid.n_visible) is int and grid.states.shape == (2, 3)
        for lines in ((0, 2), (2, 0), (-1, 3)):
            with pytest.raises(DimensionError):
                SynapseGrid(*lines)

    def test_load_states_validation(self):
        grid = SynapseGrid(2, 2, levels=4)
        with pytest.raises(ValueError):
            grid.load_states([[4, 0], [0, 0]], [0, 0], [0, 0])
        before = grid.fingerprint()
        with pytest.raises(ValueError, match="state indices must hold integers"):
            grid.load_states([[0.7, 1.9], [2.5, 3.2]], [0, 0], [0, 0])
        assert grid.fingerprint() == before
        with pytest.raises(ValueError, match="state indices must hold integers"):
            grid.load_states([[0, 1], [2, 3]], [0.5, 1.0], [0, 0])
        with pytest.raises(ValueError, match="state indices must hold integers"):
            grid.load_states([[0, 1], [2, 3]], [0, 0], np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="state indices must hold integers"):
            grid.load_states([[0, 1], [2, 3]], [0, 0], [0.5, 1.0])

    def test_rejected_load_changes_nothing(self):
        grid = SynapseGrid(2, 2, levels=4)
        weights = grid.weights().copy()
        before = grid.fingerprint()
        with pytest.raises(ValueError):
            grid.load_states([[0, 1], [2, 3]], [0, 0], [9, 0])
        with pytest.raises(DimensionError):
            grid.load_states([[0, 1], [2, 3]], [0, 0, 0], [0, 0])
        with pytest.raises(DimensionError):
            grid.load_states([[0, 1], [2, 3]], [1, 1], [1, 1, 1])
        assert grid.fingerprint() == before
        assert grid.weights().tolist() == weights.tolist()

    @pytest.mark.parametrize("name", ["states", "visible_bias_states", "hidden_bias_states"])
    def test_state_arrays_cannot_be_rebound(self, name):
        # Each is a view of the grid's one state array.
        grid = SynapseGrid(2, 3)
        with pytest.raises(AttributeError):
            setattr(grid, name, getattr(grid, name).copy())

    def test_reads_follow_a_load(self):
        grid = SynapseGrid(2, 2, levels=3)
        grid.weights(), grid.visible_bias(), grid.hidden_bias()
        grid.load_states([[0, 1], [2, 0]], [2, 2], [0, 1])
        assert grid.weights().tolist() == [[-1.0, 0.0], [1.0, -1.0]]
        assert grid.visible_bias().tolist() == [1.0, 1.0]
        assert grid.hidden_bias().tolist() == [-1.0, 0.0]

    def test_reads_follow_a_direct_state_write(self):
        # Nets and weights are read from the states themselves, so a write
        # made past the pulse methods shows in the next read.
        grid = SynapseGrid(2, 2, levels=3)
        crossbar = RbmArray(grid)
        assert grid.weights()[0, 0] == 0.0
        before = crossbar.probabilities_forward([1, 0])
        grid.states[0, 0] = 2
        assert grid.weights()[0, 0] == 1.0
        after = crossbar.probabilities_forward([1, 0])
        assert after[0] > before[0] and after[1] == before[1]

    def test_weights_are_a_snapshot(self):
        grid = SynapseGrid(2, 2, levels=3)
        weights = grid.weights()
        grid.pulse_column(0, [1, 0])
        assert weights[0, 0] == 0.0 and grid.weights()[0, 0] == 1.0

    def test_levels_stay_where_nets_are_exact(self):
        assert SynapseGrid(2, 2, levels=MAX_LEVELS).states[0, 0] == (MAX_LEVELS - 1) // 2
        with pytest.raises(ValueError, match="levels"):
            SynapseGrid(2, 2, levels=MAX_LEVELS + 1)

    def test_huge_step_saturates(self):
        grid = SynapseGrid(2, 1, levels=4, delta_d=2**60 + 1)
        grid.pulse_column(0, [1, -1])
        assert grid.states.tolist() == [[3.0], [0.0]]

    @pytest.mark.parametrize("levels", [4, 32, MAX_LEVELS])
    def test_float32_steps_saturate_as_exact_integer_steps(self, levels):
        # Cells at both rails, next to them and mid-range, each pulsed down,
        # not at all and up; the biases up and down.
        top, mid = levels - 1, (levels - 1) // 2
        cells = np.array([0, 1, mid, top - 1, top])
        states = np.repeat(cells[:, None], 3, axis=1)
        directions = np.tile(np.array([-1, 0, 1], dtype=np.int8), (cells.size, 1))
        hidden_bias = np.array([0, mid, top])
        # 10**40 overflows float32 and 10**400 float64, had the step no cap.
        for delta_d in (levels - 2, levels - 1, levels, 2**60 + 1, 10**40, 10**400):
            grid = SynapseGrid(cells.size, 3, levels=levels, delta_d=delta_d)
            assert grid.states.dtype == np.float32
            grid.load_states(states, cells, hidden_bias)
            grid.pulse_block(np.arange(cells.size), np.arange(3), directions)
            grid.pulse_visible_bias(np.ones(cells.size, dtype=np.int8))
            grid.pulse_hidden_bias(-np.ones(3, dtype=np.int8))
            for moved, start, step in ((grid.states, states, directions),
                                       (grid.visible_bias_states, cells, 1),
                                       (grid.hidden_bias_states, hidden_bias, -1)):
                assert moved.dtype == np.float32
                # Python ints, exact at any step.
                moves = np.asarray(step, dtype=object) * delta_d
                expected = np.clip(np.asarray(start, dtype=object) + moves, 0, top)
                assert moved.tolist() == expected.tolist()
            assert grid.pulse_count == np.count_nonzero(directions) + cells.size + 3


def python_nets(grid, columns, bias_states, bits, use_biases):
    """The nets of one row of bits by the read's formula, with the inner
    sum over active lines in Python ints; ``columns`` lists the states
    each net sums over."""
    active = bits.tolist()
    lines = sum(active) + use_biases
    return [grid.weight_step * (sum(compress(column, active)) + use_biases * bias)
            + grid.w_min * lines
            for column, bias in zip(columns, bias_states.astype(np.int64).tolist())]


class TestExactNets:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, MAX_LEVELS), st.integers(1, 800), st.integers(1, 800),
           st.booleans(), st.floats(-4.0, 1.0), st.floats(0.01, 5.0),
           st.integers(0, 2**32 - 1))
    def test_nets_follow_the_formula_and_blocks_equal_rows(
            self, levels, n_visible, n_hidden, use_biases, w_min, span, seed):
        rng = np.random.default_rng(seed)
        grid = SynapseGrid.uniform_random(n_visible, n_hidden, rng, levels=levels,
                                          w_min=w_min, w_max=w_min + span,
                                          use_biases=use_biases)
        # Rails included: a quarter of the cells sit at the top state.
        states = grid.states.astype(np.int64)
        states[rng.random(states.shape) < 0.25] = levels - 1
        grid.load_states(states, grid.visible_bias_states.astype(np.int64),
                         grid.hidden_bias_states.astype(np.int64))
        h = rng.integers(0, 2, n_hidden, dtype=np.uint8)
        assert grid.nets(h, hidden=False).tolist() == python_nets(
            grid, states.tolist(), grid.visible_bias_states, h, use_biases)
        columns = states.T.tolist()
        for rows in (1, 7, 256):
            block = (rng.random((rows, n_visible)) < rng.random()).astype(np.uint8)
            nets = grid.nets(block)
            for k in range(rows):
                row = grid.nets(block[k])
                assert nets[k].tobytes() == row.tobytes()
                if rows == 7:
                    assert row.tolist() == python_nets(
                        grid, columns, grid.hidden_bias_states, block[k], use_biases)

    @pytest.mark.parametrize("shape", [(800, 800), (2, 800), (800, 2)])
    @pytest.mark.parametrize("levels, dtype", [(20946, np.float32), (20947, np.float64)])
    def test_dtype_rule_keeps_the_largest_sums_exact(self, shape, levels, dtype):
        # At 800 lines, (800 + 1) * 20945 < 2**24 <= (800 + 1) * 20946: the
        # widest float32 grid and the narrowest float64 one, with every state
        # on the top rail and every bit set.
        model = dbn.DbnModel(shape, levels=levels)
        grid = model.layers[0].grid
        top = levels - 1
        grid.load_states(np.full(shape, top), np.full(shape[0], top), np.full(shape[1], top))
        for hidden, states, bias_states in ((True, grid.states.T, grid.hidden_bias_states),
                                            (False, grid.states, grid.visible_bias_states)):
            ones = np.ones(states.shape[1], dtype=np.uint8)
            expected = python_nets(grid, states.astype(np.int64).tolist(), bias_states,
                                   ones, use_biases=True)
            row = grid.nets(ones, hidden=hidden)
            assert row.tolist() == expected
            block = grid.nets(np.ones((256, ones.size), dtype=np.uint8), hidden=hidden)
            assert block.tolist() == [expected] * 256
            assert all(block_row.tobytes() == row.tobytes() for block_row in block)
        def state_dtypes(model):
            grid = model.layers[0].grid
            return {a.dtype for a in (grid.states, grid.visible_bias_states,
                                      grid.hidden_bias_states)}

        assert state_dtypes(model) == {np.dtype(dtype)}
        for read in (grid.weights(), grid.visible_bias(), grid.hidden_bias()):
            assert read.dtype == np.float64
        for copied in (copy.deepcopy(model), dbn.from_bytes(dbn.to_bytes(model))):
            assert state_dtypes(copied) == {np.dtype(dtype)}
            assert copied.fingerprint() == model.fingerprint()

    @pytest.mark.parametrize("bits, hidden, error, message", [
        ([2, 0, 7], True, ValueError, "visible vector must lie in"),
        ([1.0, 0.0, 1.0], True, ValueError, "visible vector must hold integers"),
        ([1, 0], True, DimensionError, "visible vector must have length 3"),
        ([[1, 0, 2]], True, ValueError, "visible rows must lie in"),
        ([[1.0, 0.0, 1.0]], True, ValueError, "visible rows must hold integers"),
        (np.zeros((4, 2), dtype=np.uint8), True, DimensionError,
         r"visible vector must be one-dimensional, got shape \(4, 2\)"),
        (np.zeros((1, 2, 3), dtype=np.uint8), True, DimensionError, "one-dimensional"),
        (np.array([0, 3], dtype=np.uint8), False, ValueError,
         "hidden vector entries must be 0 or 1"),
        (np.array([[0, 1], [1, 2]], dtype=np.uint8), False, ValueError,
         "hidden rows entries must be 0 or 1"),
        ([1, 0, 1], False, DimensionError, "hidden vector must have length 2"),
        ([[0.5, 1.0]], False, ValueError, "hidden rows must hold integers"),
    ], ids=["non-bits", "floats", "short", "non-bit-row", "float-rows", "narrow-block",
            "3-d", "uint8-non-bit", "uint8-non-bit-row", "long-hidden", "float-hidden-rows"])
    def test_nets_check_the_bits_they_read(self, bits, hidden, error, message):
        with pytest.raises(error, match=message):
            SynapseGrid(3, 2).nets(bits, hidden=hidden)

    def test_nets_take_bool_and_integer_bits_alike(self):
        grid = SynapseGrid.uniform_random(3, 2, np.random.default_rng(5))
        bits = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        for same in (bits.astype(bool), bits.astype(np.int64), bits.tolist()):
            assert grid.nets(same).tobytes() == grid.nets(bits).tobytes()
        assert grid.nets([1, 1], hidden=False).tolist() == grid.nets(
            np.ones(2, dtype=np.uint8), hidden=False).tolist()
