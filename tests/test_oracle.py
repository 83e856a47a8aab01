import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snra.errors import DimensionError
from snra.oracle import (MAX_EXACT_NODES, DenseRbm, cd_delta, energy,
                         exact_distribution, joint_index, tv_distance)


def random_rbm(rng, n_v=3, n_h=2):
    return DenseRbm(rng.normal(size=(n_v, n_h)), rng.normal(size=n_v),
                    rng.normal(size=n_h))


class TestEnergy:
    def test_all_zero_state(self):
        rbm = random_rbm(np.random.default_rng(0))
        assert energy(rbm, [0, 0, 0], [0, 0]) == 0.0

    def test_single_weight_term(self):
        rbm = DenseRbm([[2.0]])
        assert energy(rbm, [1], [1]) == -2.0

    def test_against_double_loop(self):
        rng = np.random.default_rng(1)
        rbm = random_rbm(rng)
        for _ in range(20):
            v = rng.integers(0, 2, 3)
            h = rng.integers(0, 2, 2)
            total = 0.0
            for j in range(2):
                for i in range(3):
                    total -= v[i] * rbm.weights[i, j] * h[j]
            for i in range(3):
                total -= rbm.visible_bias[i] * v[i]
            for j in range(2):
                total -= rbm.hidden_bias[j] * h[j]
            assert energy(rbm, v, h) == pytest.approx(total, rel=1e-12)

    def test_dimension_check(self):
        rbm = random_rbm(np.random.default_rng(0))
        with pytest.raises(DimensionError):
            energy(rbm, [0, 0], [0, 0])


class TestExactDistribution:
    def test_zero_parameters_give_uniform(self):
        rbm = DenseRbm(np.zeros((3, 2)))
        dist = exact_distribution(rbm)
        assert dist.shape == (32,)
        assert np.allclose(dist, 1 / 32)

    def test_one_by_one_closed_form(self):
        rbm = DenseRbm([[math.log(2.0)]])
        dist = exact_distribution(rbm)
        # states indexed v + (h << 1): only (v=1, h=1) carries weight e^{ln 2}
        assert dist == pytest.approx([0.2, 0.2, 0.2, 0.4])

    def test_normalization(self):
        rbm = random_rbm(np.random.default_rng(2), 4, 3)
        assert abs(exact_distribution(rbm).sum() - 1.0) < 1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError):
            exact_distribution(DenseRbm(np.zeros((MAX_EXACT_NODES, 1))))

    def test_conditional_matches_sigmoid(self):
        # P(h_j = 1 | v) from the joint must equal the closed-form sigmoid.
        rng = np.random.default_rng(3)
        rbm = random_rbm(rng, 3, 2)
        dist = exact_distribution(rbm)
        for v_code in range(8):
            v = [(v_code >> k) & 1 for k in range(3)]
            for j in range(2):
                joint_on = sum(dist[joint_index(v, [(h_code >> k) & 1 for k in range(2)], 3)]
                               for h_code in range(4) if (h_code >> j) & 1)
                total = sum(dist[joint_index(v, [(h_code >> k) & 1 for k in range(2)], 3)]
                            for h_code in range(4))
                net = rbm.hidden_bias[j] + sum(v[i] * rbm.weights[i, j] for i in range(3))
                assert joint_on / total == pytest.approx(1 / (1 + math.exp(-net)), rel=1e-9)

    def test_visible_permutation_invariance(self):
        rng = np.random.default_rng(4)
        rbm = random_rbm(rng, 3, 2)
        perm = [2, 0, 1]
        permuted = DenseRbm(rbm.weights[perm], rbm.visible_bias[perm], rbm.hidden_bias)
        base = exact_distribution(rbm)
        other = exact_distribution(permuted)
        # permuted unit k is original unit perm[k], so a permuted-order state
        # v is the original-order state with v[k] at position perm[k]
        inverse = np.argsort(perm)
        for v_code in range(8):
            v = [(v_code >> k) & 1 for k in range(3)]
            pv = [v[inverse[k]] for k in range(3)]
            for h_code in range(4):
                h = [(h_code >> k) & 1 for k in range(2)]
                assert other[joint_index(v, h, 3)] == pytest.approx(
                    base[joint_index(pv, h, 3)], rel=1e-12)


class TestCdDelta:
    def test_worked_example(self):
        delta = cd_delta([1, 0, 1, 0], [1, 0], [0, 0, 1, 0], [0, 1], 1.0)
        assert delta.tolist() == [[1, 0], [0, 0], [1, -1], [0, 0]]

    def test_fixed_point_is_zero(self):
        v, h = [1, 0, 1], [0, 1]
        assert not cd_delta(v, h, v, h, 0.5).any()

    @settings(max_examples=50)
    @given(st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1), st.floats(0.01, 2.0))
    def test_against_loop_and_range(self, pos, neg, eta):
        v = [(pos >> k) & 1 for k in range(4)]
        h = [(pos >> (4 + k)) & 1 for k in range(4)]
        v_bar = [(neg >> k) & 1 for k in range(4)]
        h_bar = [(neg >> (4 + k)) & 1 for k in range(4)]
        delta = cd_delta(v, h, v_bar, h_bar, eta)
        for i in range(4):
            for j in range(4):
                expected = eta * (v[i] * h[j] - v_bar[i] * h_bar[j])
                assert delta[i, j] == pytest.approx(expected)
                assert delta[i, j] in (pytest.approx(-eta), 0.0, pytest.approx(eta))

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            cd_delta([1, 0], [1], [1], [1], 1.0)


class TestTvDistance:
    def test_identical(self):
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_shape_check(self):
        with pytest.raises(DimensionError):
            tv_distance([1.0], [0.5, 0.5])


def test_joint_index_layout():
    assert joint_index([0, 0, 0], [0, 0], 3) == 0
    assert joint_index([1, 0, 1], [0, 1], 3) == 5 + (2 << 3)
