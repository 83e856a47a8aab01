import numpy as np
import pytest

from snra.array import RbmArray, rail_directions
from snra.bits import bits_from_string
from snra.device import SynapseGrid
from snra.errors import DimensionError, ProtocolError
from snra.fsm import (CLOCK_PERIOD_S, CdFsm, State, train_clock_budget, update_frame,
                      update_rails)
from snra.oracle import cd_delta
from snra.trace import iteration_steps, parse_vcd, write_vcd


def make_array(n_v, n_h, use_biases=True, seed=None):
    if seed is None:
        grid = SynapseGrid(n_v, n_h, use_biases=use_biases)
    else:
        grid = SynapseGrid.uniform_random(n_v, n_h, np.random.default_rng(seed),
                                          use_biases=use_biases)
    return RbmArray(grid)


def park_at_update(fsm, v, h, v_bar, h_bar):
    """Set the four sample registers and park the controller at its first Update clock."""
    fsm.v[:], fsm.h[:], fsm.v_bar[:], fsm.h_bar[:] = v, h, v_bar, h_bar
    fsm.state = State.UPDATE


def step_iteration(fsm, crossbar, input_bits, rng, clamp_hidden=None):
    """One iteration driven clock by clock; returns the frame of every clock."""
    frames = [fsm.step(crossbar, input_bits, rng, clamp_hidden)]
    while fsm.state is not State.FEED_FORWARD:
        frames.append(fsm.step(crossbar, rng=rng))
    return frames


class TestStateMachine:
    def test_state_encodings(self):
        assert State.FEED_FORWARD == 0
        assert State.FEED_BACK == 1
        assert State.RECONSTRUCT == 2
        assert State.UPDATE == 3

    def test_counter_width(self):
        # the dumped COUNTER is ceil(log2(n_hidden + 1)) bits wide
        for n_hidden, width in ((1, 1), (2, 2), (4, 3), (10, 4)):
            zeros = np.zeros(n_hidden, dtype=np.uint8)
            steps = iteration_steps([1], zeros, [0], zeros)
            variables = parse_vcd(write_vcd(steps)).variables
            assert {var.name: var.width for var in variables}["COUNTER"] == width

    def test_initial_registers(self):
        fsm = CdFsm(4, 2)
        assert fsm.state is State.FEED_FORWARD
        assert fsm.counter == 0 and fsm.clock_count == 0
        assert not fsm.v.any() and not fsm.h.any()

    def test_feed_forward_requires_input(self):
        fsm = CdFsm(2, 2)
        with pytest.raises(ProtocolError):
            fsm.step(make_array(2, 2), rng=np.random.default_rng(0))

    def test_size_validation(self):
        with pytest.raises(DimensionError):
            CdFsm(0, 2)
        for sizes in ((2.5, 3.7), (2, 3.0), ("2", 3)):
            with pytest.raises(ValueError, match="must be an integer"):
                CdFsm(*sizes)
        assert (CdFsm(np.int64(2), 3).n_visible, CdFsm(2, np.int64(3)).n_hidden) == (2, 3)
        fsm = CdFsm(3, 2)
        with pytest.raises(DimensionError):
            fsm.step(make_array(2, 2), [1, 0, 1], np.random.default_rng(0))


class TestIteration:
    def test_frame_sequence(self):
        fsm = CdFsm(4, 3)
        frames = step_iteration(fsm, make_array(4, 3), [1, 0, 1, 1], np.random.default_rng(1))
        assert len(frames) == fsm.clock_count == 6
        assert [f.rwl for f in frames] == [1] * 3 + [0] * 3
        # the read clocks share one frame, which no caller can change
        assert frames[0] is frames[1] is frames[2]
        with pytest.raises(ValueError):
            frames[0].bl[0] = 1
        for column, frame in enumerate(frames[3:]):
            assert frame.column == column
        assert fsm.state is State.FEED_FORWARD and fsm.counter == 0

    def test_clock_count_accumulates(self):
        fsm = CdFsm(2, 2)
        crossbar = make_array(2, 2)
        rng = np.random.default_rng(2)
        for expected in (5, 10, 15):
            fsm.run_cd_iteration(crossbar, [1, 0], rng)
            assert fsm.clock_count == expected

    def test_iteration_needs_start_state(self):
        trainer = CdFsm(2, 2)
        park_at_update(trainer, [1, 0], [0, 1], [1, 0], [0, 1])
        with pytest.raises(ProtocolError):
            trainer.run_cd_iteration(make_array(2, 2), [1, 0], np.random.default_rng(0))

    def test_fixed_point_changes_nothing(self):
        # v = v_bar, h = h_bar: every write frame has bl == sl
        crossbar = make_array(4, 2, use_biases=False, seed=3)
        before = crossbar.grid.fingerprint()
        fsm = CdFsm(4, 2)
        park_at_update(fsm, [1, 0, 1, 0], [1, 1], [1, 0, 1, 0], [1, 1])
        for _ in range(2):
            frame = fsm.step(crossbar)
            assert frame.bl.tolist() == frame.sl.tolist()
        assert crossbar.grid.fingerprint() == before

    def test_registers_drive_frames(self):
        fsm = CdFsm(4, 2)
        crossbar = make_array(4, 2, seed=4)
        frames = step_iteration(fsm, crossbar, [1, 1, 0, 0], np.random.default_rng(7))
        for column, frame in enumerate(frames[3:]):
            expected = update_frame(fsm.v, fsm.h, fsm.v_bar, fsm.h_bar, column)
            assert frame == expected
            assert frame.bl.tolist() == (fsm.v & fsm.h[column]).tolist()
            assert frame.sl.tolist() == (fsm.v_bar & fsm.h_bar[column]).tolist()

    def test_bl_sl_registers_hold_last_write(self):
        fsm = CdFsm(4, 2)
        park_at_update(fsm, bits_from_string("0101"), bits_from_string("01"),
                       bits_from_string("0100"), bits_from_string("10"))
        crossbar = make_array(4, 2)
        frame = fsm.step(crossbar)
        assert frame.bl.tolist() == [1, 0, 1, 0]
        assert frame.sl.tolist() == [0, 0, 0, 0]
        frame = fsm.step(crossbar)
        assert frame.bl.tolist() == [0, 0, 0, 0]
        assert frame.sl.tolist() == [0, 0, 1, 0]

    def test_clamped_hidden_register(self):
        fsm = CdFsm(3, 4)
        crossbar = make_array(3, 4)
        clamp = np.array([0, 0, 1, 0], dtype=np.uint8)
        rng = np.random.default_rng(5)
        ref = np.random.default_rng(5)
        fsm.step(crossbar, [1, 0, 1], rng, clamp_hidden=clamp)
        assert fsm.h.tolist() == clamp.tolist()
        # clamping skips the hidden sampling, consuming no draws
        assert rng.random() == ref.random()


class TestFusedIteration:
    """run_cd_iteration against the clocked model it fuses."""

    @staticmethod
    def twin(n_v, n_h, levels, delta_d, use_biases):
        grid = SynapseGrid.uniform_random(n_v, n_h, np.random.default_rng(11), levels=levels,
                                          delta_d=delta_d, use_biases=use_biases)
        return RbmArray(grid), CdFsm(n_v, n_h), np.random.default_rng(12)

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("levels", [2, 32])
    @pytest.mark.parametrize("delta_d", [1, 3])
    @pytest.mark.parametrize("use_biases", [True, False])
    @pytest.mark.parametrize("shape", [(1, 1), (4, 3), (784, 16)])
    def test_equals_clocked_iterations(self, shape, use_biases, delta_d, levels, clamp):
        n_v, n_h = shape
        fused_array, fused, fused_rng = self.twin(n_v, n_h, levels, delta_d, use_biases)
        clocked_array, clocked, clocked_rng = self.twin(n_v, n_h, levels, delta_d, use_biases)
        inputs = np.random.default_rng(13)
        for _ in range(3):
            bits = inputs.integers(0, 2, n_v)
            hidden = inputs.integers(0, 2, n_h) if clamp else None
            assert fused.run_cd_iteration(fused_array, bits, fused_rng, hidden) == n_h + 3
            frames = step_iteration(clocked, clocked_array, bits, clocked_rng, hidden)
            assert len(frames) == n_h + 3
            assert fused_array.grid.fingerprint() == clocked_array.grid.fingerprint()
            assert fused_array.grid.pulse_count == clocked_array.grid.pulse_count
            assert fused.clock_count == clocked.clock_count
            for name in ("v", "h", "v_bar", "h_bar"):
                assert getattr(fused, name).tolist() == getattr(clocked, name).tolist(), name
            assert fused.state is clocked.state is State.FEED_FORWARD
            assert fused.counter == clocked.counter == 0
        assert fused_rng.random() == clocked_rng.random()

    @pytest.mark.parametrize("delta_d", [1, 2, 5])
    @pytest.mark.parametrize("levels", [2, 3])
    def test_block_write_equals_the_whole_grid_rule(self, delta_d, levels):
        # Sparse inputs and clamps leave rows with v = v_bar = 0 and columns
        # with h = h_bar = 0, which the block write skips; small levels with
        # large steps make writes saturate.
        n_v, n_h = 24, 10
        crossbar, fsm, rng = self.twin(n_v, n_h, levels, delta_d, True)
        grid = crossbar.grid
        inputs = np.random.default_rng(16)
        expected = grid.states.copy()
        vb, hb = grid.visible_bias_states.copy(), grid.hidden_bias_states.copy()
        pulses = skipped_rows = skipped_cols = 0
        for _ in range(60):
            bits = (inputs.random(n_v) < 0.2).astype(np.uint8)
            fsm.run_cd_iteration(crossbar, bits, rng, (inputs.random(n_h) < 0.2).astype(np.uint8))
            skipped_rows += int(not (fsm.v | fsm.v_bar).all())
            skipped_cols += int(not (fsm.h | fsm.h_bar).all())
            direction = rail_directions(*update_rails(fsm.v, fsm.h, fsm.v_bar, fsm.h_bar))
            bias = (rail_directions(fsm.v, fsm.v_bar), rail_directions(fsm.h, fsm.h_bar))
            for states, step in ((expected, direction), (vb, bias[0]), (hb, bias[1])):
                np.clip(states + delta_d * step.astype(np.int64), 0, levels - 1, out=states)
                pulses += int(np.count_nonzero(step))
            np.testing.assert_array_equal(grid.states, expected)
            np.testing.assert_array_equal(grid.visible_bias_states, vb)
            np.testing.assert_array_equal(grid.hidden_bias_states, hb)
            assert grid.pulse_count == pulses
            assert (grid.weights().view(np.int64) == grid.weight(grid.states).view(np.int64)).all()
        assert skipped_rows and skipped_cols

    def test_direction_columns_are_update_frames(self):
        rng = np.random.default_rng(14)
        v, v_bar = rng.integers(0, 2, (2, 6)).astype(np.uint8)
        h, h_bar = rng.integers(0, 2, (2, 5)).astype(np.uint8)
        bl, sl = update_rails(v, h, v_bar, h_bar)
        direction = rail_directions(bl, sl)
        assert direction.dtype == np.int8
        for column in range(5):
            frame = update_frame(v, h, v_bar, h_bar, column)
            assert bl[:, column].tolist() == frame.bl.tolist()
            assert sl[:, column].tolist() == frame.sl.tolist()
            expected = frame.bl.astype(np.int64) - frame.sl
            assert direction[:, column].tolist() == expected.tolist()

    def test_weight_change_is_cd_delta(self):
        # Away from the rails no write saturates, so the quantized step is
        # exactly the float CD-1 rule.
        n_v, n_h, delta_d = 20, 6, 2
        rng = np.random.default_rng(15)
        grid = SynapseGrid(n_v, n_h, levels=32, delta_d=delta_d)
        grid.load_states(rng.integers(delta_d, 32 - delta_d, (n_v, n_h)),
                         grid.visible_bias_states.astype(np.int64),
                         grid.hidden_bias_states.astype(np.int64))
        crossbar = RbmArray(grid)
        fsm = CdFsm(n_v, n_h)
        before = grid.states.copy()
        fsm.run_cd_iteration(crossbar, rng.integers(0, 2, n_v), rng)
        expected = cd_delta(fsm.v, fsm.h, fsm.v_bar, fsm.h_bar,
                            grid.weight_step * grid.delta_d)
        assert expected.any()
        # The integer moves, so the scale runs in float64 whatever the dtype
        # of the states.
        moves = (grid.states - before).astype(np.int64)
        np.testing.assert_array_equal(moves * grid.weight_step, expected)


class TestBiasTraining:
    def test_bias_pulses_on_first_update_clock(self):
        crossbar = make_array(4, 2, use_biases=True)
        grid = crossbar.grid
        fsm = CdFsm(4, 2)
        park_at_update(fsm, [1, 0, 1, 0], [1, 0], [0, 0, 1, 1], [0, 1])
        vb = grid.visible_bias_states.copy()
        hb = grid.hidden_bias_states.copy()
        fsm.step(crossbar)
        assert (grid.visible_bias_states - vb).tolist() == [1, 0, 0, -1]
        assert (grid.hidden_bias_states - hb).tolist() == [1, -1]
        vb2 = grid.visible_bias_states.copy()
        fsm.step(crossbar)
        assert (grid.visible_bias_states == vb2).all()

    def test_biases_untouched_when_disabled(self):
        crossbar = make_array(4, 2, use_biases=False)
        fsm = CdFsm(4, 2)
        park_at_update(fsm, [1, 0, 1, 0], [1, 0], [0, 0, 1, 1], [0, 1])
        before = crossbar.grid.visible_bias_states.copy()
        fsm.step(crossbar)
        fsm.step(crossbar)
        assert (crossbar.grid.visible_bias_states == before).all()


class TestClockBudget:
    def test_single_iteration_cases(self):
        assert train_clock_budget([4, 2], 1, 1) == (5, pytest.approx(10e-9))
        assert train_clock_budget([784, 10], 1000, 1)[0] == 13000
        assert train_clock_budget([784, 500, 10], 1000, 1)[0] == 516000

    def test_period_constant(self):
        assert CLOCK_PERIOD_S == pytest.approx(2e-9)

    def test_validation(self):
        with pytest.raises(DimensionError):
            train_clock_budget([784], 1, 1)
        with pytest.raises(DimensionError):
            train_clock_budget([], 1, 1)
        with pytest.raises(DimensionError):
            train_clock_budget([4, 0], 1, 1)
        with pytest.raises(ValueError):
            train_clock_budget([4, 2], -1, 1)
