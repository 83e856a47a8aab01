import numpy as np
import pytest

from snra.array import READ, WRITE, RbmArray
from snra.bits import bits_from_string
from snra.device import SynapseGrid
from snra.errors import DimensionError, ProtocolError
from snra.fsm import CLOCK_PERIOD_S, CdFsm, State, train_clock_budget, update_frame
from snra.trace import iteration_steps, parse_vcd, write_vcd


def make_array(n_v, n_h, use_biases=True, seed=None):
    if seed is None:
        grid = SynapseGrid(n_v, n_h)
    else:
        grid = SynapseGrid.uniform_random(n_v, n_h, np.random.default_rng(seed))
    return RbmArray(grid, use_biases=use_biases)


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
            assert parse_vcd(write_vcd(steps)).width("COUNTER") == width

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
        fsm = CdFsm(3, 2)
        with pytest.raises(DimensionError):
            fsm.step(make_array(2, 2), [1, 0, 1], np.random.default_rng(0))


class TestIteration:
    def test_frame_sequence(self):
        fsm = CdFsm(4, 3)
        frames, clocks = fsm.run_cd_iteration(
            make_array(4, 3), [1, 0, 1, 1], np.random.default_rng(1))
        assert clocks == 6
        assert [f.phase for f in frames] == [READ] * 3 + [WRITE] * 3
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
        trainer.load_registers([1, 0], [0, 1], [1, 0], [0, 1])
        with pytest.raises(ProtocolError):
            trainer.run_cd_iteration(make_array(2, 2), [1, 0], np.random.default_rng(0))

    def test_fixed_point_changes_nothing(self):
        # v = v_bar, h = h_bar: every write frame has bl == sl
        crossbar = make_array(4, 2, use_biases=False, seed=3)
        before = crossbar.grid.fingerprint()
        fsm = CdFsm(4, 2)
        fsm.load_registers([1, 0, 1, 0], [1, 1], [1, 0, 1, 0], [1, 1])
        for _ in range(2):
            frame = fsm.step(crossbar)
            assert frame.bl.tolist() == frame.sl.tolist()
        assert crossbar.grid.fingerprint() == before

    def test_registers_drive_frames(self):
        fsm = CdFsm(4, 2)
        crossbar = make_array(4, 2, seed=4)
        frames, _ = fsm.run_cd_iteration(crossbar, [1, 1, 0, 0],
                                         np.random.default_rng(7))
        for column, frame in enumerate(frames[3:]):
            expected = update_frame(fsm.v, fsm.h, fsm.v_bar, fsm.h_bar, column)
            assert frame == expected
            assert frame.bl.tolist() == (fsm.v & fsm.h[column]).tolist()
            assert frame.sl.tolist() == (fsm.v_bar & fsm.h_bar[column]).tolist()

    def test_bl_sl_registers_hold_last_write(self):
        fsm = CdFsm(4, 2)
        fsm.load_registers(bits_from_string("0101"), bits_from_string("01"),
                           bits_from_string("0100"), bits_from_string("10"))
        crossbar = make_array(4, 2)
        fsm.step(crossbar)
        assert fsm.bl_reg.tolist() == [1, 0, 1, 0]
        assert fsm.sl_reg.tolist() == [0, 0, 0, 0]
        fsm.step(crossbar)
        assert fsm.bl_reg.tolist() == [0, 0, 0, 0]
        assert fsm.sl_reg.tolist() == [0, 0, 1, 0]

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


class TestBiasTraining:
    def test_bias_pulses_on_first_update_clock(self):
        crossbar = make_array(4, 2, use_biases=True)
        grid = crossbar.grid
        fsm = CdFsm(4, 2)
        fsm.load_registers([1, 0, 1, 0], [1, 0], [0, 0, 1, 1], [0, 1])
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
        fsm.load_registers([1, 0, 1, 0], [1, 0], [0, 0, 1, 1], [0, 1])
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
