import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from snra.device import PBit, SynapseGrid
from snra.errors import DimensionError

finite_inputs = st.floats(min_value=-50, max_value=50,
                          allow_nan=False, allow_infinity=False)


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

    def test_eta_scales_with_delta_d(self):
        grid = SynapseGrid(2, 2, levels=32, delta_d=3)
        assert grid.eta == pytest.approx(3 * 2.0 / 31)

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
        assert grid.pulse_count == 0

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

    def test_weights_cache_invalidation(self):
        grid = SynapseGrid(2, 2, levels=3, w_min=-1.0, w_max=1.0)
        assert grid.weights()[0, 0] == 0.0
        assert grid.visible_bias()[0] == 0.0 and grid.hidden_bias()[1] == 0.0
        grid.pulse_column(0, [1, 0])
        assert grid.weights()[0, 0] == 1.0
        grid.pulse_visible_bias([-1, 0])
        assert grid.visible_bias()[0] == -1.0
        grid.pulse_hidden_bias([0, 1])
        assert grid.hidden_bias()[1] == 1.0

    def test_bias_pulses(self):
        grid = SynapseGrid(2, 3, levels=8)
        grid.pulse_visible_bias([1, -1])
        assert grid.visible_bias_states.tolist() == [4, 2]
        grid.pulse_hidden_bias([0, 1, -1])
        assert grid.hidden_bias_states.tolist() == [3, 4, 2]

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

    def test_constructor_validation(self):
        with pytest.raises(Exception):
            SynapseGrid(0, 2)
        with pytest.raises(ValueError):
            SynapseGrid(2, 2, levels=1)
        with pytest.raises(ValueError):
            SynapseGrid(2, 2, w_min=1.0, w_max=-1.0)
        with pytest.raises(ValueError):
            SynapseGrid(2, 2, delta_d=0)
        with pytest.raises(ValueError):
            SynapseGrid(2, 2, levels=4, states=[[9, 0], [0, 0]])

    def test_load_states_validation(self):
        grid = SynapseGrid(2, 2, levels=4)
        with pytest.raises(ValueError):
            grid.load_states([[4, 0], [0, 0]], [0, 0], [0, 0])
