import math

import numpy as np
import pytest

from snra.array import RbmArray, SignalFrame
from snra.device import PBit, SynapseGrid
from snra.errors import DimensionError, ProtocolError


def zero_weight_array(n_v, n_h, levels=3):
    # odd level count puts the midpoint index exactly at weight 0
    return RbmArray(SynapseGrid(n_v, n_h, levels=levels))


class TestSignalFrame:
    def test_read_frame_shape(self):
        frame = SignalFrame.read_frame(4, 2)
        assert frame.rwl == 1
        assert not frame.wwl.any() and not frame.bl.any() and not frame.sl.any()

    def test_write_frame_selects_one_column(self):
        frame = SignalFrame.write_frame(1, [1, 0, 0, 0], [0, 0, 1, 0], 3)
        assert frame.rwl == 0
        assert frame.wwl.tolist() == [0, 1, 0]
        assert frame.column == 1

    def test_write_frame_wwl_must_be_one_hot(self):
        with pytest.raises(ProtocolError):
            SignalFrame(0, [0, 0], [1, 0], [0, 0])
        with pytest.raises(ProtocolError):
            SignalFrame(0, [1, 1], [1, 0], [0, 0])

    def test_rwl_polarity_enforced(self):
        # rwl high reads, so the one-hot wwl of a write is out of protocol;
        # rwl low writes, so a frame with no wwl bit set is too.
        with pytest.raises(ProtocolError):
            SignalFrame(1, [1, 0], [0, 0], [0, 0])
        with pytest.raises(ProtocolError):
            SignalFrame(0, [0, 0], [0, 0], [0, 0])

    def test_read_frame_keeps_rails_released(self):
        with pytest.raises(ProtocolError):
            SignalFrame(1, [0, 0], [1, 0], [0, 0])

    def test_bad_phase_and_lengths(self):
        with pytest.raises(ProtocolError, match="rwl must be 1"):
            SignalFrame(2, [0], [0], [0])
        with pytest.raises(DimensionError):
            SignalFrame(0, [1], [0, 0], [0])
        for column in (3, 1.0, np.float64(1.0)):
            with pytest.raises(ProtocolError):
                SignalFrame.write_frame(column, [0], [0], 2)

    def test_non_integer_rwl_rejected(self):
        # A float is neither truncated nor compared as if it were an integer.
        with pytest.raises(ProtocolError, match="rwl must be 1"):
            SignalFrame(1.0, [0, 0], [0, 0], [0, 0])
        with pytest.raises(ProtocolError, match="rwl must be 1"):
            SignalFrame(np.float64(0.0), [1, 0], [1, 0], [0, 0])
        with pytest.raises(ProtocolError, match="rwl must be 1"):
            SignalFrame("1", [0, 0], [0, 0], [0, 0])
        frame = SignalFrame(np.int64(0), [1, 0], [1, 0], [0, 0])
        assert frame.rwl == 0 and type(frame.rwl) is int

    def test_equality(self):
        a = SignalFrame.write_frame(0, [1, 0], [0, 1], 2)
        b = SignalFrame.write_frame(0, [1, 0], [0, 1], 2)
        c = SignalFrame.write_frame(1, [1, 0], [0, 1], 2)
        assert a == b and a != c
        assert a != "frame" and a != (0, [1, 0], [0, 1])

    def test_read_frame_selects_no_column(self):
        with pytest.raises(ProtocolError, match="read frames select no column"):
            SignalFrame.read_frame(2, 2).column

    def test_built_frame_cannot_change(self):
        frame = SignalFrame.write_frame(0, [1, 0], [0, 1], 2)
        for rail in (frame.wwl, frame.bl, frame.sl):
            with pytest.raises(ValueError):
                rail[0] ^= 1
        with pytest.raises(AttributeError):
            frame.rwl = 1

    def test_caller_array_stays_writable(self):
        bl = np.array([1, 0], dtype=np.uint8)
        frame = SignalFrame.write_frame(1, bl, np.zeros(2, dtype=np.uint8), 2)
        assert bl.flags.writeable and not frame.bl.flags.writeable
        bl[0] = 0

    def test_caller_edit_does_not_reach_a_built_frame(self):
        bl = np.array([1, 0], dtype=np.uint8)
        frame = SignalFrame.write_frame(1, bl, np.zeros(2, dtype=np.uint8), 2)
        bl[0] = 0
        assert frame.bl.tolist() == [1, 0]
        # A read frame cannot gain a driven rail after its one check.
        rails = [np.zeros(2, dtype=np.uint8) for _ in range(3)]
        frame = SignalFrame(1, *rails)
        for rail in rails:
            rail[0] = 1
        assert not (frame.wwl.any() or frame.bl.any() or frame.sl.any())

    @pytest.mark.parametrize("rail", ["bl", "sl", "wwl"])
    @pytest.mark.parametrize("bad, message", [
        (lambda bits: np.concatenate([[2], bits[1:]]).astype(np.uint8),
         "entries must be 0 or 1"),
        (lambda bits: bits.astype(np.float64), "must hold integers, got dtype float64"),
        (lambda bits: bits.reshape(1, -1), "must be one-dimensional"),
        (lambda bits: np.stack([bits, bits]), "must be one-dimensional"),
    ], ids=["two", "float64", "row", "two-rows"])
    def test_a_faulty_rail_is_rejected(self, rail, bad, message):
        # The frame is a clock's one check: write_vcd trusts the rails it holds.
        rails = {"wwl": np.array([0, 1, 0], np.uint8), "bl": np.array([1, 0, 1], np.uint8),
                 "sl": np.array([0, 1, 0], np.uint8)}
        rails[rail] = bad(rails[rail])
        with pytest.raises(ValueError, match=f"^{rail} {message}"):
            SignalFrame(0, **rails)


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
        with pytest.raises(DimensionError):
            crossbar.forward(np.zeros((4, 2), dtype=np.uint8), rng)
        with pytest.raises(ValueError):
            crossbar.probabilities_forward([[1, 0, 2]])

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
        grid = SynapseGrid(3, 2, levels=2, w_min=-1.0, w_max=1.0, use_biases=False)
        grid.load_states([[1, 0], [0, 0], [0, 0]], [0, 0, 0], [0, 0])
        crossbar = RbmArray(grid, PBit(input_scale=1e3))
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

    def test_probabilities_backward_match_manual_net(self):
        rng = np.random.default_rng(7)
        grid = SynapseGrid.uniform_random(4, 3, rng)
        crossbar = RbmArray(grid)
        h = np.array([1, 0, 1], dtype=np.uint8)
        net = grid.weights() @ h + grid.visible_bias()
        assert np.allclose(crossbar.probabilities_backward(h), 1 / (1 + np.exp(-net)))
        # The same draws, on a grid whose bias line is off.
        bare = RbmArray(SynapseGrid.uniform_random(4, 3, np.random.default_rng(7),
                                                   use_biases=False))
        assert np.allclose(bare.probabilities_backward(h), 1 / (1 + np.exp(-(grid.weights() @ h))))
        with pytest.raises(DimensionError):
            crossbar.probabilities_backward([1, 0])
        with pytest.raises(ValueError):
            crossbar.probabilities_backward([1, 0, 2])

    def test_samples_fire_below_their_probabilities(self):
        # forward and backward draw rng.random(n) and fire where the uniform
        # is below the probability read without sampling, bit for bit.
        rng = np.random.default_rng(8)
        crossbar = RbmArray(SynapseGrid.uniform_random(3, 2, rng), PBit(input_scale=0.5))
        for code in range(8):
            v = np.array([(code >> k) & 1 for k in range(3)], dtype=np.uint8)
            h = v[:2]
            draws = np.random.default_rng(code)
            p_h = crossbar.probabilities_forward(v)
            p_v = crossbar.probabilities_backward(h)
            sampler = np.random.default_rng(code)
            assert crossbar.forward(v, sampler).tolist() == (draws.random(2) < p_h).tolist()
            assert crossbar.backward(h, sampler).tolist() == (draws.random(3) < p_v).tolist()

    @pytest.mark.parametrize("use_biases", [True, False])
    def test_block_reads_equal_row_reads(self, use_biases):
        # Nets are exact sums, so a block's row k equals row k read alone,
        # bit for bit, on either side.
        rng = np.random.default_rng(12)
        crossbar = RbmArray(SynapseGrid.uniform_random(9, 5, rng, use_biases=use_biases))
        vs = rng.integers(0, 2, (33, 9), dtype=np.uint8)
        hs = rng.integers(0, 2, (33, 5), dtype=np.uint8)
        p_h = crossbar.probabilities_forward(vs)
        p_v = crossbar.probabilities_backward(hs)
        assert p_h.shape == (33, 5) and p_v.shape == (33, 9)
        for k in range(33):
            assert p_h[k].tobytes() == crossbar.probabilities_forward(vs[k]).tobytes()
            assert p_v[k].tobytes() == crossbar.probabilities_backward(hs[k]).tobytes()

    def test_backward_of_a_block_equals_row_by_row(self):
        rng = np.random.default_rng(13)
        crossbar = RbmArray(SynapseGrid.uniform_random(6, 4, rng), PBit(input_scale=0.5))
        hs = rng.integers(0, 2, (50, 4), dtype=np.uint8)
        sampler, ref = np.random.default_rng(14), np.random.default_rng(14)
        block = crossbar.backward(hs, sampler)
        assert block.shape == (50, 6)
        assert block.tolist() == [crossbar.backward(h, ref).tolist() for h in hs]
        assert sampler.random() == ref.random()
        with pytest.raises(DimensionError):
            crossbar.backward(np.zeros((3, 5), dtype=np.uint8), sampler)
        with pytest.raises(ValueError):
            crossbar.probabilities_backward([[1, 0, 2, 0]])

    def test_biases_can_be_disabled(self):
        rng = np.random.default_rng(6)
        grid = SynapseGrid.uniform_random(3, 2, rng, use_biases=False)
        bare = RbmArray(grid)
        v = np.array([1, 1, 0], dtype=np.uint8)
        net = v @ grid.weights()
        assert np.allclose(bare.probabilities_forward(v), 1 / (1 + np.exp(-net)))

    def test_transpose_symmetry(self):
        a = SynapseGrid(1, 2)
        a.load_states([[3, 25]], [7], [20, 4])
        b = SynapseGrid(2, 1)
        b.load_states([[3], [25]], [20, 4], [7])
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
