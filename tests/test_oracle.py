import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snra.array import RbmArray
from snra.device import PBit, SynapseGrid
from snra.errors import DimensionError
from snra.oracle import (MAX_EXACT_NODES, DenseRbm, _code_bits, cd_delta, energy,
                         exact_distribution, gibbs_joint_counts, joint_index,
                         tv_distance)


def reference_chain(array, sweeps, rng):
    """The chain sampled one sweep at a time through forward and backward."""
    n_v, n_h = array.n_visible, array.n_hidden
    counts = np.zeros(1 << (n_v + n_h), dtype=np.int64)
    v = np.zeros(n_v, dtype=np.uint8)
    pow_v = 1 << np.arange(n_v, dtype=np.int64)
    pow_h = 1 << np.arange(n_h, dtype=np.int64)
    for _ in range(sweeps):
        h = array.forward(v, rng)
        counts[int(v @ pow_v) + (int(h @ pow_h) << n_v)] += 1
        v = array.backward(h, rng)
    return counts


class RecordingRng:
    """Generator stand-in that records the shape of each block of uniforms."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.shapes = []

    def random(self, size=None):
        self.shapes.append(size)
        return self.rng.random(size)


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


    @pytest.mark.parametrize("shape, digest", [
        ((4, 3), "fc666ced5a51f234fa0ee8e0a53849b104dc8969e8424b2c4664fe71e9aa33bf"),
        ((10, 10), "3ecd1942519342b582d432c451c6e3cd5fb05d7b117004f74fe3ca91a9ea6425"),
        ((19, 1), "9cfb3803f60288bcdbac25ff4701132937da28d291f1cbfe64b7579ff535fc0b"),
        ((1, 19), "4cb2c2b4035803a78b1fd6f7c3e5b1038c9a2b713a63e0b6ccdd24d0a435c062"),
    ], ids=["4x3", "10x10", "19x1", "1x19"])
    def test_grid_distribution_digest(self, shape, digest):
        # The enumeration's output is pinned bit for bit: a change to how it
        # decodes codes or orders its products must reproduce these digests.
        grid = SynapseGrid.uniform_random(*shape, np.random.default_rng(sum(shape)))
        table = exact_distribution(DenseRbm.from_grid(grid))
        assert hashlib.sha256(table.tobytes()).hexdigest() == digest


class TestCodeBits:
    @pytest.mark.parametrize("width", range(1, 13))
    def test_every_code(self, width):
        bits = _code_bits(width)
        assert bits.dtype == np.uint8 and bits.flags["C_CONTIGUOUS"]
        codes = np.arange(1 << width)
        assert np.array_equal(bits, (codes[:, None] >> np.arange(width)) & 1)

    @pytest.mark.parametrize("width", [19, 20])
    def test_sampled_codes_of_wide_registers(self, width):
        bits = _code_bits(width)
        assert bits.shape == (1 << width, width)
        assert bits.dtype == np.uint8 and bits.flags["C_CONTIGUOUS"]
        codes = [0, 1, (1 << width) - 1, 0x5A5A5 & ((1 << width) - 1),
                 *np.random.default_rng(width).integers(0, 1 << width, 64).tolist()]
        for code in codes:
            assert bits[code].tolist() == [(code >> k) & 1 for k in range(width)]


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


class TestGibbsChain:
    # A p-bit Gibbs chain samples the Boltzmann law (Camsari et al., PRX 7,
    # 031014, 2017).  0.08 is the benchmark's bound for 20 000 sweeps of a
    # 4x3 grid; the chains below read 0.02-0.04 against their own law and
    # 0.15-0.42 against the law of the same grid read the other way.
    TV_BOUND = 0.08

    def test_matches_exact_distribution(self):
        rng = np.random.default_rng(1)
        grid = SynapseGrid.uniform_random(4, 3, rng)
        counts = gibbs_joint_counts(RbmArray(grid), 20000, rng)
        assert counts.sum() == 20000
        exact = exact_distribution(DenseRbm.from_grid(grid))
        assert tv_distance(counts / counts.sum(), exact) < self.TV_BOUND

    def test_input_scale_scales_the_law(self):
        # P(h_j = 1 | v) = sigmoid(s * net) is the conditional of the RBM
        # whose weights and biases are all scaled by s.
        rng = np.random.default_rng(2)
        grid = SynapseGrid.uniform_random(4, 3, rng)
        counts = gibbs_joint_counts(RbmArray(grid, PBit(input_scale=0.5)), 20000, rng)
        rbm = DenseRbm.from_grid(grid)
        scaled = DenseRbm(0.5 * rbm.weights, 0.5 * rbm.visible_bias, 0.5 * rbm.hidden_bias)
        freq = counts / counts.sum()
        assert tv_distance(freq, exact_distribution(scaled)) < self.TV_BOUND
        assert tv_distance(freq, exact_distribution(rbm)) > self.TV_BOUND

    def test_chain_without_biases_ignores_bias_devices(self):
        rng = np.random.default_rng(3)
        grid = SynapseGrid.uniform_random(4, 3, rng)
        counts = gibbs_joint_counts(RbmArray(grid, use_biases=False), 20000, rng)
        rbm = DenseRbm.from_grid(grid)
        freq = counts / counts.sum()
        assert tv_distance(freq, exact_distribution(DenseRbm(rbm.weights))) < self.TV_BOUND
        assert tv_distance(freq, exact_distribution(rbm)) > self.TV_BOUND

    @pytest.mark.parametrize("shape, sweeps, kwargs", [
        ((1, 1), 3000, {}),
        ((4, 3), 3000, {}),
        ((3, 7), 2000, {}),
        ((10, 10), 1500, {}),
        ((MAX_EXACT_NODES - 1, 1), 1500, {}),
        ((1, MAX_EXACT_NODES - 1), 1500, {}),
        ((4, 3), 2000, {"neuron": PBit(input_scale=0.5)}),
        ((4, 3), 2000, {"use_biases": False}),
    ], ids=["1x1", "4x3", "3x7", "10x10", "19x1", "1x19", "4x3-scale0.5", "4x3-no-biases"])
    def test_equals_reference_chain(self, shape, sweeps, kwargs):
        grid = SynapseGrid.uniform_random(*shape, np.random.default_rng(4))
        crossbar = RbmArray(grid, **kwargs)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        assert np.array_equal(gibbs_joint_counts(crossbar, sweeps, rng),
                              reference_chain(crossbar, sweeps, ref))
        assert rng.random() == ref.random()

    def test_equals_reference_chain_across_blocks(self):
        grid = SynapseGrid.uniform_random(4, 3, np.random.default_rng(6))
        crossbar = RbmArray(grid)
        rng, ref = RecordingRng(7), np.random.default_rng(7)
        counts = gibbs_joint_counts(crossbar, 10000, rng)
        assert np.array_equal(counts, reference_chain(crossbar, 10000, ref))
        assert rng.random() == ref.random()
        # Several blocks of uniforms, each one row per sweep.
        blocks = rng.shapes[:-1]
        assert len(blocks) > 1
        assert all(cols == 7 for _, cols in blocks)
        assert sum(rows for rows, _ in blocks) == 10000

    def test_consecutive_calls_share_the_rng(self):
        grid = SynapseGrid.uniform_random(4, 3, np.random.default_rng(8))
        crossbar = RbmArray(grid)
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        for sweeps in (700, 1, 1300):
            assert np.array_equal(gibbs_joint_counts(crossbar, sweeps, rng),
                                  reference_chain(crossbar, sweeps, ref))
        assert rng.random() == ref.random()

    def test_sweep_count_validation(self):
        crossbar = RbmArray(SynapseGrid(2, 2))
        rng = np.random.default_rng(10)
        for sweeps in (-5, 2.5, "3"):
            with pytest.raises(ValueError, match="sweeps"):
                gibbs_joint_counts(crossbar, sweeps, rng)
        before = rng.random()
        rng = np.random.default_rng(10)
        counts = gibbs_joint_counts(crossbar, 0, rng)
        assert counts.shape == (16,) and not counts.any()
        assert rng.random() == before
        assert gibbs_joint_counts(crossbar, np.int64(3), rng).sum() == 3

    def test_size_cap(self):
        crossbar = RbmArray(SynapseGrid(MAX_EXACT_NODES, 1))
        with pytest.raises(ValueError):
            gibbs_joint_counts(crossbar, 1, np.random.default_rng(0))


def test_grid_snapshot_ignores_later_writes():
    grid = SynapseGrid(2, 3, levels=4)
    rbm = DenseRbm.from_grid(grid)
    grid.pulse_column(1, [1, -1])
    grid.pulse_visible_bias([1, 1])
    grid.pulse_hidden_bias([-1, 0, 1])
    fresh = SynapseGrid(2, 3, levels=4)
    assert rbm.weights.tolist() == fresh.weights().tolist()
    assert rbm.visible_bias.tolist() == fresh.visible_bias().tolist()
    assert rbm.hidden_bias.tolist() == fresh.hidden_bias().tolist()


def test_joint_index_layout():
    assert joint_index([0, 0, 0], [0, 0], 3) == 0
    assert joint_index([1, 0, 1], [0, 1], 3) == 5 + (2 << 3)
