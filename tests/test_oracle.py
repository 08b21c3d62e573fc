"""Shapley oracle correctness: efficiency, symmetry, MC consistency, LOO."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerval.network import MLP, Activation, evaluate_sample, param_grads
from layerval.oracle import (
    ShapleyEstimate,
    UtilityFn,
    shapley_mc,
)
from helpers import rows, toy_split
import reference
from reference import loo_influence, shapley_exact


def toy_net(seed=0, dims=(3, 4, 2), acts=("relu", "linear")):
    return MLP.initialize(list(dims), list(acts), seed=seed)


def subset_value(u, n, subset):
    """v(S) for an index subset of the game's n-sample batch, through UtilityFn.utilities."""
    mask = np.zeros((1, n), dtype=bool)
    mask[0, list(subset)] = True
    return float(u.utilities(mask)[0])


class ReferenceGame:
    """The one-step game written out on a flat parameter vector: per-sample
    flat gradients from evaluate_sample + param_grads, and a forward pass of
    its own over theta. UtilityFn's batched coalitions are checked against it.
    """

    def __init__(self, net, val, batch, learning_rate):
        self.net = net
        self.learning_rate = learning_rate
        self.val_x = val.features
        self.val_y = val.labels
        self.theta = np.concatenate(
            [np.concatenate([l.weights.ravel(), l.bias]) for l in net.layers])
        self.grads = np.stack([
            reference.flat(param_grads(evaluate_sample(net, s.features, s.label))) for s in batch])

    def val_loss(self, theta):
        """Mean softmax cross-entropy over the validation block at parameters theta."""
        a = self.val_x
        offset = 0
        for layer in self.net.layers:
            (out_dim, in_dim), act = layer.weights.shape, layer.activation
            w = theta[offset:offset + out_dim * in_dim].reshape(out_dim, in_dim)
            offset += out_dim * in_dim
            b = theta[offset:offset + out_dim]
            offset += out_dim
            s = a @ w.T + b
            if act is Activation.RELU:
                a = np.maximum(s, 0.0)
            elif act is Activation.TANH:
                a = np.tanh(s)
            else:
                a = s
        shifted = s - s.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1))
        picked = shifted[np.arange(s.shape[0]), self.val_y]
        return float(np.mean(lse - picked))

    def value(self, member):
        if not np.any(member):
            return 0.0
        step = self.grads[np.asarray(member, dtype=bool)].sum(axis=0)
        return self.val_loss(self.theta) - self.val_loss(self.theta - self.learning_rate * step)


def permutation_average_shapley(u):
    """Independent oracle: enumerate all n! orderings and average marginals."""
    n = len(u.batch)
    totals = np.zeros(n)
    count = 0
    for order in itertools.permutations(range(n)):
        mask = 0
        prev = 0.0
        for i in order:
            mask |= 1 << i
            cur = u.utility_of_mask(mask)
            totals[i] += cur - prev
            prev = cur
        count += 1
    return totals / count


def walked_pair_means(u, n, pairs, seed):
    """The (pairs, n) means of each member's marginals along an ordering and
    its reverse, for `pairs` orderings drawn one at a time and walked one
    utility_of_mask call per prefix."""
    rng = np.random.default_rng(seed)
    orders = [rng.permutation(n).tolist() for _ in range(pairs)]
    marginals = np.zeros((2, pairs, n))
    for r, order in enumerate(orders):
        for half, walk in enumerate((order, order[::-1])):
            mask, prev = 0, 0.0
            for i in walk:
                mask |= 1 << i
                cur = u.utility_of_mask(mask)
                marginals[half, r, i] = cur - prev
                prev = cur
    return (marginals[0] + marginals[1]) / 2


class TestSubsetUtility:
    def test_empty_subset_is_zero(self):
        net = toy_net()
        u = UtilityFn(net, toy_split(net, 4, seed=1), toy_split(net, 3, seed=2),
                      learning_rate=0.1)
        assert subset_value(u, 3, set()) == 0.0

    def test_tiny_learning_rate_vanishes(self):
        # eta -> 0 makes every subset worthless (the probe step goes nowhere)
        net = toy_net()
        batch = toy_split(net, 3, seed=2)
        u = UtilityFn(net, toy_split(net, 4, seed=1), batch, learning_rate=1e-300)
        for subset in ([0], [0, 1], [0, 1, 2]):
            assert subset_value(u, len(batch), subset) == pytest.approx(0.0, abs=1e-12)

    def test_singleton_matches_first_order_expansion(self):
        # v({j}) = eta * <grad_val, g_j> + O(eta^2)
        net = toy_net(seed=3)
        val = toy_split(net, 5, seed=4)
        batch = toy_split(net, 3, seed=5)
        g_val = np.mean(
            [reference.flat(param_grads(evaluate_sample(net, s.features, s.label))) for s in val],
            axis=0)
        for eta in (1e-3, 5e-4):
            u = UtilityFn(net, val, batch, learning_rate=eta)
            for j, s in enumerate(batch):
                g_j = reference.flat(param_grads(evaluate_sample(net, s.features, s.label)))
                linear = eta * float(np.dot(g_val, g_j))
                # curvature bound: generous constant times eta^2
                assert subset_value(u, len(batch), [j]) == pytest.approx(
                    linear, abs=50.0 * eta ** 2)

    def test_frozen_net_never_mutates(self):
        net = toy_net(seed=6)
        before = [l.weights.copy() for l in net.layers]
        batch = toy_split(net, 3, seed=8)
        u = UtilityFn(net, toy_split(net, 4, seed=7), batch, learning_rate=0.5)
        v1 = subset_value(u, len(batch), [0, 1])
        v2 = subset_value(u, len(batch), [0, 1])
        assert v1 == v2
        for w, layer in zip(before, net.layers):
            assert np.array_equal(w, layer.weights)


class TestBatchedUtilities:
    @given(st.integers(0, 2 ** 16),
           st.lists(st.sampled_from(["relu", "tanh", "linear"]), min_size=0, max_size=2),
           st.integers(1, 8), st.integers(1, 20), st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_flat_parameter_reference(self, seed, hidden_acts, n, m, eta):
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(1, 7, size=len(hidden_acts) + 1)] + [3]
        net = MLP.initialize(dims, hidden_acts + ["linear"], seed=seed)
        for layer in net.layers:
            layer.bias[:] = rng.normal(scale=0.3, size=layer.bias.shape)
        val = toy_split(net, int(rng.integers(1, 7)), seed=seed + 1)
        batch = toy_split(net, n, seed=seed + 2)
        masks = rng.random((m, n)) < 0.5
        u = UtilityFn(net, val, batch, learning_rate=eta)
        ref = ReferenceGame(net, val, batch, eta)
        want = [ref.value(row) for row in masks]
        np.testing.assert_allclose(u.utilities(masks), want, rtol=0, atol=1e-12)

    def test_blocks_equal_one_mask_at_a_time(self):
        net = toy_net(seed=40, dims=(3, 5, 4, 3), acts=("tanh", "relu", "linear"))
        batch = toy_split(net, 9, seed=41)
        u = UtilityFn(net, toy_split(net, 6, seed=42), batch, learning_rate=0.3)
        codes = np.random.default_rng(43).choice(1 << 9, size=2 * UtilityFn.BLOCK + 37,
                                                 replace=False)
        masks = (codes[:, None] >> np.arange(9) & 1).astype(bool)
        single = [u.utility_of_mask(int(c)) for c in codes]
        assert u.utilities(masks).tolist() == single

    def test_any_block_size_gives_identical_values(self, monkeypatch):
        net = toy_net(seed=47, dims=(3, 5, 4, 3), acts=("tanh", "relu", "linear"))
        u = UtilityFn(net, toy_split(net, 6, seed=48), toy_split(net, 9, seed=49),
                      learning_rate=0.3)
        masks = np.random.default_rng(50).random((2 * 64 + 37, 9)) < 0.5
        got = []
        for block in (1, 5, 64):
            monkeypatch.setattr(UtilityFn, "BLOCK", block)
            got.append(u.utilities(masks))
        assert got[0].tobytes() == got[1].tobytes() == got[2].tobytes()

    @pytest.mark.parametrize("dims, acts", [((8, 16, 3), ("relu", "linear")),
                                            ((8, 64, 64, 5), ("relu", "tanh", "linear"))])
    def test_matches_reference_at_fixed_shapes(self, dims, acts):
        # the shipped fidelity shape (probe 16, 60 validation samples) and a wider net
        net = toy_net(seed=51, dims=dims, acts=acts)
        rng = np.random.default_rng(52)
        for layer in net.layers:
            layer.bias[:] = rng.normal(scale=0.3, size=layer.bias.shape)
        val = toy_split(net, 60, seed=53)
        batch = toy_split(net, 16, seed=54)
        masks = np.vstack([np.ones((1, 16), dtype=bool), rng.random((150, 16)) < 0.5])
        u = UtilityFn(net, val, batch, learning_rate=0.05)
        ref = ReferenceGame(net, val, batch, 0.05)
        np.testing.assert_allclose(u.utilities(masks), [ref.value(row) for row in masks],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims, acts", [((8, 16, 3), ("relu", "linear")),
                                            ((8, 64, 64, 5), ("relu", "tanh", "linear"))])
    def test_row_placement_invariant(self, dims, acts):
        # a coalition's value is the same bits wherever its row sits in the matrix
        net = toy_net(seed=55, dims=dims, acts=acts)
        u = UtilityFn(net, toy_split(net, 60, seed=56), toy_split(net, 16, seed=57),
                      learning_rate=0.05)
        rng = np.random.default_rng(58)
        masks = rng.random((3 * UtilityFn.BLOCK + 29, 16)) < 0.5
        p = rng.permutation(len(masks))
        assert u.utilities(masks[p]).tobytes() == u.utilities(masks)[p].tobytes()

    @pytest.mark.parametrize("block", [1, 5, 64])
    @pytest.mark.parametrize("dims, acts", [
        ((8, 16, 3), ("relu", "linear")),  # the shipped fidelity shape
        ((8, 64, 64, 5), ("relu", "tanh", "linear")),
        ((8, 64, 64, 5), ("tanh", "linear", "linear")),
        ((8, 64, 64, 5), ("linear", "relu", "linear")),
        ((8, 16, 1), ("relu", "linear")),  # one and two classes: the shortest class reductions
        ((8, 16, 2), ("tanh", "linear")),
        ((8, 16, 10), ("relu", "linear"))])  # past numpy's 8-way unrolled sums
    def test_bits_equal_stacked_reference(self, monkeypatch, dims, acts, block):
        monkeypatch.setattr(UtilityFn, "BLOCK", block)
        net = toy_net(seed=59, dims=dims, acts=acts)
        rng = np.random.default_rng(60)
        for layer in net.layers:
            layer.bias[:] = rng.normal(scale=0.3, size=layer.bias.shape)
        u = UtilityFn(net, toy_split(net, 60, seed=61), toy_split(net, 16, seed=62),
                      learning_rate=0.05)
        masks = np.vstack([np.ones((1, 16), dtype=bool),
                           rng.random((3 * 64 + 28, 16)) < 0.5])  # 3 blocks of 64 and 29 rows
        assert u.utilities(masks).tobytes() == reference.utilities_stacked(u, masks).tobytes()

    @pytest.mark.parametrize("layout", ["fortran", "sliced"])
    def test_bits_equal_stacked_reference_on_strided_validation(self, layout):
        net = toy_net(seed=63, dims=(8, 16, 3), acts=("relu", "linear"))
        rng = np.random.default_rng(64)
        X = rng.normal(size=(120, 16))
        features = np.asfortranarray(X[:60, :8]) if layout == "fortran" else X[::2, 3:11]
        val = rows(features, rng.integers(3, size=60))
        assert not val.features.flags.c_contiguous
        u = UtilityFn(net, val, toy_split(net, 16, seed=65), learning_rate=0.05)
        masks = rng.random((2 * 64 + 7, 16)) < 0.5
        assert u.utilities(masks).tobytes() == reference.utilities_stacked(u, masks).tobytes()

    def test_empty_coalition_exactly_zero(self):
        net = toy_net(seed=44)
        u = UtilityFn(net, toy_split(net, 4, seed=45), toy_split(net, 3, seed=46),
                      learning_rate=0.5)
        masks = np.array([[False] * 3, [True] * 3, [False] * 3])
        v = u.utilities(masks)
        assert v[0] == 0.0 and v[2] == 0.0 and v[1] != 0.0


class TestBoundary:
    def val_with(self, net, features=None, label=0):
        """Three validation rows whose row 1 has the given features and label."""
        val = toy_split(net, 3, seed=50)
        X, y = val.features.copy(), val.labels.copy()
        if features is not None:
            X[1] = features
        y[1] = label
        return rows(X, y)

    # a negative label or a non-finite feature stops at the Split, before the utility
    def test_val_label_minus_one_rejected(self):
        net = toy_net()
        with pytest.raises(ValueError, match="row 1: negative label -1"):
            UtilityFn(net, self.val_with(net, label=-1), toy_split(net, 1, seed=0),
                      learning_rate=0.1)

    def test_val_nan_feature_rejected(self):
        net = toy_net()
        with pytest.raises(ValueError, match="row 1: non-finite feature"):
            UtilityFn(net, self.val_with(net, features=np.array([0.0, np.nan, 1.0])),
                      toy_split(net, 1, seed=0), learning_rate=0.1)

    def test_val_label_past_last_logit_rejected(self):
        net = toy_net()
        with pytest.raises(ValueError, match="label 2 in row 1"):
            UtilityFn(net, self.val_with(net, label=net.out_dim), toy_split(net, 1, seed=0),
                      learning_rate=0.1)

    def test_bad_batch_sample_rejected(self):
        net = toy_net()
        with pytest.raises(ValueError, match="label 5 in row 0"):
            UtilityFn(net, toy_split(net, 3, seed=51), rows(np.zeros((1, 3)), [5]),
                      learning_rate=0.1)

    def test_mask_bits_outside_batch_rejected(self):
        net = toy_net()
        u = UtilityFn(net, toy_split(net, 3, seed=52), toy_split(net, 1, seed=53),
                      learning_rate=0.1)
        for mask in (0b11, 0b10, -1):
            with pytest.raises(ValueError, match="outside the 1-sample batch"):
                u.utility_of_mask(mask)

    def test_membership_matrix_shape_and_dtype_checked(self):
        net = toy_net()
        u = UtilityFn(net, toy_split(net, 3, seed=54), toy_split(net, 1, seed=55),
                      learning_rate=0.1)
        for masks in (np.ones((2, 2), dtype=bool), np.ones(1, dtype=bool), np.ones((2, 1))):
            with pytest.raises(ValueError, match="boolean membership matrix"):
                u.utilities(masks)


class TestShapleyExact:
    def test_duplicate_samples_symmetry(self):
        net = toy_net(seed=9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=net.in_dim)
        batch = rows([x, x, rng.normal(size=net.in_dim)], [1, 1, 0])
        u = UtilityFn(net, toy_split(net, 5, seed=11), batch, learning_rate=0.1)
        est = shapley_exact(u)
        assert est.values[0] == pytest.approx(est.values[1], abs=1e-12)

    def test_null_player_near_zero(self):
        # a sample whose logit margin is huge has a numerically zero gradient
        net = MLP.initialize([2, 2], ["linear"], seed=0)
        net.layers[0].weights[:] = np.array([[20.0, 0.0], [-20.0, 0.0]])
        net.layers[0].bias[:] = np.zeros(2)
        # row 0 is the null player: margin 80
        batch = rows([[2.0, 0.0], [0.05, 0.2], [-0.1, 0.4]], [0, 1, 0])
        u = UtilityFn(net, batch[1:], batch, learning_rate=1e-3)
        est = shapley_exact(u)
        assert abs(est.values[0]) < 1e-6

    def test_matches_permutation_enumeration_oracle(self):
        net = toy_net(seed=12)
        batch = toy_split(net, 4, seed=13)
        u = UtilityFn(net, toy_split(net, 6, seed=14), batch, learning_rate=0.2)
        est = shapley_exact(u)
        oracle = permutation_average_shapley(u)
        np.testing.assert_allclose(est.values, oracle, atol=1e-9)

    def test_efficiency_axiom(self):
        net = toy_net(seed=15)
        batch = toy_split(net, 6, seed=16)
        u = UtilityFn(net, toy_split(net, 5, seed=17), batch, learning_rate=0.3)
        est = shapley_exact(u)
        assert est.values.sum() == pytest.approx(
            subset_value(u, len(batch), range(6)), abs=1e-9)

    def test_batch_too_large(self):
        net = toy_net()
        u = UtilityFn(net, toy_split(net, 3, seed=0), toy_split(net, 11, seed=1),
                      learning_rate=0.1)
        with pytest.raises(ValueError):
            shapley_exact(u)


class TestShapleyMC:
    def test_exhaustive_equals_exact(self):
        net = toy_net(seed=18)
        batch = toy_split(net, 3, seed=19)
        u = UtilityFn(net, toy_split(net, 5, seed=20), batch, learning_rate=0.2)
        exact = shapley_exact(u)
        mc = shapley_mc(u, permutations=6, seed=0, exhaustive=True)
        np.testing.assert_allclose(mc.values, exact.values, atol=1e-9)
        assert mc.permutations_used == math.factorial(3)

    def test_exhaustive_past_eight_rejected_before_any_work(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("orderings enumerated")

        monkeypatch.setattr(itertools, "permutations", unreachable)
        net = toy_net()
        u = UtilityFn(net, toy_split(net, 3, seed=0), toy_split(net, 9, seed=1),
                      learning_rate=0.1)
        with pytest.raises(ValueError, match="limited to 8 samples, got 9"):
            shapley_mc(u, permutations=1, seed=0, exhaustive=True)

    def test_duplicates_within_three_stderr(self):
        net = toy_net(seed=21)
        rng = np.random.default_rng(22)
        x = rng.normal(size=net.in_dim)
        rest = toy_split(net, 3, seed=23)
        batch = rows(np.vstack([x, x, rest.features]), np.append([0, 0], rest.labels))
        u = UtilityFn(net, toy_split(net, 5, seed=24), batch, learning_rate=0.2)
        est = shapley_mc(u, permutations=400, seed=25)
        gap = abs(est.values[0] - est.values[1])
        assert gap <= 3.0 * (est.stderr[0] + est.stderr[1]) + 1e-12

    def test_mc_close_to_exact_on_batch_six(self):
        # the rows this tolerance was set on, drawn a label and then the
        # features at a time: their Shapley spread is ~220 MC stderrs, where
        # toy_split's block draw at these seeds gives a game of ~18
        def drawn_per_sample(n, seed):
            rng = np.random.default_rng(seed)
            labels, features = zip(*[(rng.integers(net.out_dim), rng.normal(size=net.in_dim))
                                     for _ in range(n)])
            return rows(features, labels)

        net = toy_net(seed=26)
        batch = drawn_per_sample(6, seed=27)
        u = UtilityFn(net, drawn_per_sample(6, seed=28), batch, learning_rate=0.2)
        exact = shapley_exact(u)
        spread = exact.values.max() - exact.values.min()
        mc = shapley_mc(u, permutations=1000, seed=29)
        assert np.max(np.abs(mc.values - exact.values)) <= 0.05 * spread

    def test_mc_within_four_stderr_of_exact_on_block_draws(self):
        # games of every width: toy_split's block draw gives some as narrow
        # as ~18 MC stderrs, where a tolerance in the exact values' range fails
        for k in range(12):
            s = 26 + 4 * k
            net = toy_net(seed=s)
            batch = toy_split(net, 6, seed=s + 1)
            u = UtilityFn(net, toy_split(net, 6, seed=s + 2), batch, learning_rate=0.2)
            exact = shapley_exact(u)
            mc = shapley_mc(u, permutations=1000, seed=s + 3)
            assert np.all(np.abs(mc.values - exact.values) <= 4.0 * mc.stderr), s

    def test_mc_within_five_percent_of_range_on_block_draws(self):
        # the games of the 4-stderr test, held to test_mc_close_to_exact_on_batch_six's
        # bound: the plain draw of 1000 orderings missed it by up to 12% of the range
        for k in range(12):
            s = 26 + 4 * k
            net = toy_net(seed=s)
            batch = toy_split(net, 6, seed=s + 1)
            u = UtilityFn(net, toy_split(net, 6, seed=s + 2), batch, learning_rate=0.2)
            exact = shapley_exact(u)
            spread = exact.values.max() - exact.values.min()
            mc = shapley_mc(u, permutations=1000, seed=s + 3)
            assert np.max(np.abs(mc.values - exact.values)) <= 0.05 * spread, s

    def test_equals_one_permutation_at_a_time(self):
        # the deduplicated prefix evaluation reproduces the sequential walk of
        # each drawn ordering and its reverse bit for bit
        net = toy_net(seed=60)
        batch = toy_split(net, 5, seed=61)
        u = UtilityFn(net, toy_split(net, 4, seed=62), batch, learning_rate=0.3)
        est = shapley_mc(u, permutations=30, seed=63)
        pair_means = walked_pair_means(u, 5, pairs=15, seed=63)
        assert np.array_equal(est.values, pair_means.mean(axis=0))
        assert np.array_equal(est.stderr, pair_means.std(axis=0, ddof=1) / math.sqrt(15))
        assert est.permutations_used == 30

    def test_equals_one_permutation_at_a_time_sixteen(self):
        # the same walk at the shipped probe size, where prefixes share blocks
        net = toy_net(seed=64, dims=(8, 16, 3))
        batch = toy_split(net, 16, seed=65)
        u = UtilityFn(net, toy_split(net, 60, seed=66), batch, learning_rate=0.05)
        est = shapley_mc(u, permutations=40, seed=67)
        pair_means = walked_pair_means(u, 16, pairs=20, seed=67)
        assert np.array_equal(est.values, pair_means.mean(axis=0))
        assert np.array_equal(est.stderr, pair_means.std(axis=0, ddof=1) / math.sqrt(20))

    def test_odd_count_rounds_up_to_whole_pairs(self):
        net = toy_net(seed=76)
        batch = toy_split(net, 5, seed=77)
        u = UtilityFn(net, toy_split(net, 4, seed=78), batch, learning_rate=0.3)
        odd = shapley_mc(u, permutations=7, seed=79)
        even = shapley_mc(u, permutations=8, seed=79)
        assert odd.permutations_used == even.permutations_used == 8
        assert odd.values.tobytes() == even.values.tobytes()
        assert odd.stderr.tobytes() == even.stderr.tobytes()
        pair_means = walked_pair_means(u, 5, pairs=4, seed=79)
        assert np.array_equal(odd.values, pair_means.mean(axis=0))

    @pytest.mark.parametrize("permutations", [1, 2])
    def test_one_or_two_permutations_are_one_pair_with_zero_stderr(self, permutations):
        net = toy_net(seed=80)
        batch = toy_split(net, 5, seed=81)
        u = UtilityFn(net, toy_split(net, 4, seed=82), batch, learning_rate=0.3)
        est = shapley_mc(u, permutations=permutations, seed=83)
        assert est.permutations_used == 2
        assert np.array_equal(est.values, walked_pair_means(u, 5, pairs=1, seed=83)[0])
        assert np.array_equal(est.stderr, np.zeros(5))

    def test_exhaustive_bits_unchanged_by_the_paired_draw(self):
        # sha256 of values then stderr bytes, taken with the plain per-ordering
        # estimate the paired draw replaced; every ordering is still visited once
        net = toy_net(seed=72, dims=(8, 16, 3))
        batch = toy_split(net, 6, seed=73)
        u = UtilityFn(net, toy_split(net, 30, seed=74), batch, learning_rate=0.05)
        est = shapley_mc(u, permutations=1, seed=75, exhaustive=True)
        assert est.permutations_used == math.factorial(6)
        digest = hashlib.sha256(est.values.tobytes() + est.stderr.tobytes()).hexdigest()
        assert digest[:16] == "a9328814217c48db"

    @pytest.mark.parametrize("n, exhaustive", [(16, False), (70, False), (5, True)])
    def test_bitmask_dedupe_equals_packbits_reference(self, n, exhaustive):
        # past 64 members a prefix code spans two words
        net = toy_net(seed=68, dims=(8, 16, 3))
        batch = toy_split(net, n, seed=69)
        u = UtilityFn(net, toy_split(net, 30, seed=70), batch, learning_rate=0.05)
        got = shapley_mc(u, permutations=25, seed=71, exhaustive=exhaustive)
        want = reference.shapley_mc(u, permutations=25, seed=71, exhaustive=exhaustive)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.stderr.tobytes() == want.stderr.tobytes()
        assert got.permutations_used == want.permutations_used

    def test_seed_determinism(self):
        net = toy_net(seed=30)
        batch = toy_split(net, 4, seed=31)
        u = UtilityFn(net, toy_split(net, 4, seed=32), batch, learning_rate=0.1)
        a = shapley_mc(u, permutations=50, seed=33)
        b = shapley_mc(u, permutations=50, seed=33)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.stderr, b.stderr)

    def test_empty_batch_rejected(self):
        net = toy_net()
        with pytest.raises(ValueError, match="empty batch"):
            UtilityFn(net, toy_split(net, 3, seed=0), toy_split(net, 0, seed=0),
                      learning_rate=0.1)


class TestLeaveOneOut:
    def test_single_member(self):
        net = toy_net(seed=34)
        batch = toy_split(net, 1, seed=35)
        u = UtilityFn(net, toy_split(net, 4, seed=36), batch, learning_rate=0.2)
        loo = loo_influence(u)
        assert loo[0] == pytest.approx(subset_value(u, len(batch), [0]), abs=1e-15)

    def test_zero_gradient_member(self):
        net = MLP.initialize([2, 2], ["linear"], seed=0)
        net.layers[0].weights[:] = np.array([[20.0, 0.0], [-20.0, 0.0]])
        net.layers[0].bias[:] = np.zeros(2)
        batch = rows([[2.0, 0.0], [0.05, 0.2], [-0.1, 0.4]], [0, 1, 0])
        u = UtilityFn(net, batch[1:], batch, learning_rate=1e-3)
        loo = loo_influence(u)
        assert abs(loo[0]) < 1e-6

    def test_matches_direct_differencing(self):
        net = toy_net(seed=37)
        batch = toy_split(net, 5, seed=38)
        u = UtilityFn(net, toy_split(net, 5, seed=39), batch, learning_rate=0.25)
        loo = loo_influence(u)
        full = subset_value(u, len(batch), range(5))
        for i in range(5):
            rest = [k for k in range(5) if k != i]
            assert loo[i] == pytest.approx(full - subset_value(u, len(batch), rest), abs=1e-15)
