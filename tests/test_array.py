import math

import numpy as np
import pytest

from snra.array import READ, WRITE, RbmArray, SignalFrame
from snra.device import PBit, SynapseGrid
from snra.errors import DimensionError, ProtocolError


def zero_weight_array(n_v, n_h, levels=3):
    # odd level count puts the midpoint index exactly at weight 0
    return RbmArray(SynapseGrid(n_v, n_h, levels=levels))


class TestSignalFrame:
    def test_read_frame_shape(self):
        frame = SignalFrame.read_frame(4, 2)
        assert frame.phase == READ and frame.rwl == 1
        assert not frame.wwl.any() and not frame.bl.any() and not frame.sl.any()

    def test_write_frame_selects_one_column(self):
        frame = SignalFrame.write_frame(1, [1, 0, 0, 0], [0, 0, 1, 0], 3)
        assert frame.phase == WRITE and frame.rwl == 0
        assert frame.wwl.tolist() == [0, 1, 0]
        assert frame.column == 1

    def test_write_frame_wwl_must_be_one_hot(self):
        with pytest.raises(ProtocolError):
            SignalFrame(WRITE, 0, [0, 0], [1, 0], [0, 0])
        with pytest.raises(ProtocolError):
            SignalFrame(WRITE, 0, [1, 1], [1, 0], [0, 0])

    def test_rwl_polarity_enforced(self):
        with pytest.raises(ProtocolError):
            SignalFrame(READ, 0, [0, 0], [0, 0], [0, 0])
        with pytest.raises(ProtocolError):
            SignalFrame(WRITE, 1, [1, 0], [0, 0], [0, 0])

    def test_read_frame_keeps_rails_released(self):
        with pytest.raises(ProtocolError):
            SignalFrame(READ, 1, [0, 0], [1, 0], [0, 0])

    def test_bad_phase_and_lengths(self):
        with pytest.raises(ProtocolError):
            SignalFrame("hold", 1, [0], [0], [0])
        with pytest.raises(DimensionError):
            SignalFrame(WRITE, 0, [1], [0, 0], [0])
        with pytest.raises(ProtocolError):
            SignalFrame.write_frame(3, [0], [0], 2)

    def test_equality(self):
        a = SignalFrame.write_frame(0, [1, 0], [0, 1], 2)
        b = SignalFrame.write_frame(0, [1, 0], [0, 1], 2)
        c = SignalFrame.write_frame(1, [1, 0], [0, 1], 2)
        assert a == b and a != c


class TestSampling:
    def test_output_shapes_and_values(self):
        crossbar = zero_weight_array(5, 3)
        rng = np.random.default_rng(0)
        h = crossbar.forward([1, 0, 1, 1, 0], rng)
        v = crossbar.backward(h, rng)
        assert h.shape == (3,) and v.shape == (5,)
        assert set(h.tolist()) | set(v.tolist()) <= {0, 1}

    def test_dimension_errors(self):
        crossbar = zero_weight_array(3, 2)
        rng = np.random.default_rng(0)
        with pytest.raises(DimensionError):
            crossbar.forward([1, 0], rng)
        with pytest.raises(DimensionError):
            crossbar.backward([1, 0, 1], rng)
        with pytest.raises(DimensionError):
            crossbar.probabilities_forward([1])

    def test_zero_weights_give_half_probability(self):
        crossbar = zero_weight_array(4, 3)
        assert np.allclose(crossbar.probabilities_forward([1, 0, 1, 1]), 0.5)
        rng = np.random.default_rng(11)
        total = np.zeros(3)
        trials = 20000
        for _ in range(trials):
            total += crossbar.forward([1, 0, 1, 1], rng)
        assert np.all(np.abs(total / trials - 0.5) < 0.011)  # 3 sigma

    def test_saturated_column_with_huge_gain_is_deterministic(self):
        grid = SynapseGrid(3, 2, levels=2, w_min=-1.0, w_max=1.0)
        grid.load_states([[1, 0], [0, 0], [0, 0]], [0, 0, 0], [0, 0])
        crossbar = RbmArray(grid, PBit(input_scale=1e3), use_biases=False)
        rng = np.random.default_rng(0)
        for _ in range(50):
            h = crossbar.forward([1, 0, 0], rng)
            assert h[0] == 1 and h[1] == 0

    def test_closed_form_probability(self):
        # one synapse at exactly ln 3 with zero-weight biases
        grid = SynapseGrid(2, 1, levels=2, w_min=0.0, w_max=math.log(3))
        grid.load_states([[1], [0]], [0, 0], [0])
        crossbar = RbmArray(grid)
        assert crossbar.probabilities_forward([1, 0])[0] == pytest.approx(0.75, abs=1e-12)
        rng = np.random.default_rng(99)
        # int() keeps the sum from wrapping in the samples' uint8 dtype
        hits = sum(int(crossbar.forward([1, 0], rng)[0]) for _ in range(10**5))
        assert abs(hits / 10**5 - 0.75) < 0.004

    def test_probabilities_match_manual_net(self):
        rng = np.random.default_rng(5)
        grid = SynapseGrid.uniform_random(4, 3, rng)
        crossbar = RbmArray(grid)
        v = np.array([1, 0, 1, 1], dtype=np.uint8)
        net = v @ grid.weights() + grid.hidden_bias()
        expected = 1 / (1 + np.exp(-net))
        assert np.allclose(crossbar.probabilities_forward(v), expected)

    def test_biases_can_be_disabled(self):
        rng = np.random.default_rng(6)
        grid = SynapseGrid.uniform_random(3, 2, rng)
        bare = RbmArray(grid, use_biases=False)
        v = np.array([1, 1, 0], dtype=np.uint8)
        net = v @ grid.weights()
        assert np.allclose(bare.probabilities_forward(v), 1 / (1 + np.exp(-net)))

    def test_transpose_symmetry(self):
        states = [[3, 25]]
        a = SynapseGrid(1, 2, states=states, visible_bias_states=[7],
                        hidden_bias_states=[20, 4])
        b = SynapseGrid(2, 1, states=[[3], [25]], visible_bias_states=[20, 4],
                        hidden_bias_states=[7])
        h = np.array([1, 1], dtype=np.uint8)
        out_a = RbmArray(a).backward(h, np.random.default_rng(8))
        out_b = RbmArray(b).forward(h, np.random.default_rng(8))
        assert out_a.tolist() == out_b.tolist()

    def test_stream_positions(self):
        # forward consumes exactly n_hidden draws, backward exactly n_visible
        crossbar = zero_weight_array(4, 3)
        rng = np.random.default_rng(21)
        ref = np.random.default_rng(21)
        crossbar.forward([1, 0, 0, 1], rng)
        ref.random(3)
        assert rng.random() == ref.random()
        crossbar.backward([1, 0, 1], rng)
        ref.random(4)
        assert rng.random() == ref.random()


class TestApplyFrame:
    def test_read_frame_is_noop(self):
        crossbar = zero_weight_array(3, 2)
        before = crossbar.grid.fingerprint()
        crossbar.apply_frame(SignalFrame.read_frame(3, 2))
        assert crossbar.grid.fingerprint() == before

    def test_increase_and_decrease_rows(self):
        grid = SynapseGrid(4, 2, levels=32)
        crossbar = RbmArray(grid)
        before = grid.states.copy()
        crossbar.apply_frame(SignalFrame.write_frame(0, [1, 0, 1, 0], [0, 0, 0, 0], 2))
        delta = grid.states - before
        assert delta[:, 0].tolist() == [1, 0, 1, 0]
        assert not delta[:, 1].any()

    def test_conflicting_rails_cancel(self):
        grid = SynapseGrid(3, 2)
        crossbar = RbmArray(grid)
        before = grid.states.copy()
        crossbar.apply_frame(SignalFrame.write_frame(1, [1, 1, 0], [1, 0, 0], 2))
        delta = grid.states - before
        assert delta[:, 1].tolist() == [0, 1, 0]

    def test_only_selected_column_touched(self):
        rng = np.random.default_rng(9)
        grid = SynapseGrid.uniform_random(4, 3, rng)
        crossbar = RbmArray(grid)
        before = grid.states.copy()
        crossbar.apply_frame(SignalFrame.write_frame(2, [1, 1, 1, 1], [0, 0, 0, 0], 3))
        assert (grid.states[:, :2] == before[:, :2]).all()

    def test_frame_width_validation(self):
        crossbar = zero_weight_array(3, 2)
        with pytest.raises(DimensionError):
            crossbar.apply_frame(SignalFrame.write_frame(0, [1, 0], [0, 0], 2))
        with pytest.raises(DimensionError):
            crossbar.apply_frame(SignalFrame.write_frame(0, [1, 0, 0], [0, 0, 0], 3))
