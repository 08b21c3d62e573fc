"""Estimator identities, preconditioning, and the depth-gap diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerval.influence import (
    Estimator,
    bound_diagnostics,
    pair_matrix,
    pair_similarities,
    update_preconditioner,
    variance_diagnostic,
)
from layerval.network import (
    MLP,
    Activation,
    BatchTaps,
    Layer,
    LayerSpec,
    backward_taps,
    batch_taps,
    evaluate_sample,
    forward,
    param_grads,
)
from helpers import toy_split
import reference
from reference import (
    ghost_influence,
    ip_influence,
    lai_influence,
    lli_influence,
    preconditioned_score,
)


SCORED = [Estimator.IP, Estimator.GHOST, Estimator.LAI, Estimator.LLI, Estimator.PRECOND_LAI]


def identity_net(dim=2):
    spec = LayerSpec(dim, dim, Activation.LINEAR)
    return MLP(layers=[Layer(np.eye(dim), np.zeros(dim), spec)])


def taps_for(net, x, label):
    return evaluate_sample(net, np.asarray(x, dtype=float), label)


def manual_taps(net, x, gl):
    """Taps with a caller-chosen output gradient (for hand-built cases)."""
    _, taps = forward(net, np.asarray(x, dtype=float))
    return backward_taps(net, taps, np.asarray(gl, dtype=float))


class TestPairSimilarities:
    def test_self_similarity_with_augmentation(self):
        taps = manual_taps(identity_net(), [1.0, 2.0], [0.1, -0.1])
        sims = pair_similarities(taps, taps)
        assert sims.alpha[0] == pytest.approx(1 + 4 + 1, abs=1e-15)

    def test_orthogonal_inputs_keep_augmentation_floor(self):
        net = identity_net()
        tz = manual_taps(net, [1.0, 0.0], [-0.5, 0.5])
        tj = manual_taps(net, [0.0, 1.0], [-0.5, 0.5])
        sims = pair_similarities(tz, tj)
        assert sims.alpha[0] == pytest.approx(1.0, abs=1e-15)
        assert sims.beta[0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("acts", [["relu", "linear"], ["tanh", "linear"]])
    def test_alpha_beta_equals_param_grad_inner_product(self, acts):
        # alpha(l)*beta(l) must equal the weight+bias gradient dot at layer l
        rng = np.random.default_rng(3)
        net = MLP.initialize([3, 4, 3], acts, seed=3)
        tz = taps_for(net, rng.normal(size=3), 0)
        tj = taps_for(net, rng.normal(size=3), 1)
        sims = pair_similarities(tz, tj)
        pz, pj = param_grads(tz), param_grads(tj)
        for l in range(net.depth):
            direct = np.dot(pz.weight_grads[l].ravel(), pj.weight_grads[l].ravel()) \
                + np.dot(pz.bias_grads[l], pj.bias_grads[l])
            assert sims.alpha[l] * sims.beta[l] == pytest.approx(direct, abs=1e-12)

    def test_beta_anchor_matches_output_grads(self):
        net = MLP.initialize([2, 3, 2], ["relu", "linear"], seed=9)
        tz = taps_for(net, [0.4, 0.1], 0)
        tj = taps_for(net, [-0.2, 0.6], 1)
        sims = pair_similarities(tz, tj)
        assert sims.beta[-1] == pytest.approx(
            float(np.dot(tz.output_grad, tj.output_grad)), abs=1e-12)

    def test_incomplete_taps_rejected(self):
        _, partial = forward(identity_net(), np.array([1.0, 0.0]))
        full = manual_taps(identity_net(), [1.0, 0.0], [0.5, -0.5])
        with pytest.raises(ValueError):
            pair_similarities(partial, full)


class TestEstimators:
    def standing_pair(self):
        net = identity_net()
        tz = manual_taps(net, [1.0, 0.0], [-0.5, 0.5])
        tj = manual_taps(net, [0.0, 1.0], [-0.5, 0.5])
        return tz, tj

    def test_ip_hand_computed_single_layer(self):
        tz, tj = self.standing_pair()
        score = ip_influence(param_grads(tz), param_grads(tj))
        assert score == pytest.approx(-0.5, abs=1e-15)

    def test_ip_self_pair_nonpositive(self):
        net = MLP.initialize([3, 4, 2], ["tanh", "linear"], seed=1)
        taps = taps_for(net, [0.3, -0.1, 0.2], 0)
        pg = param_grads(taps)
        assert ip_influence(pg, pg) <= 0.0

    def test_ip_matches_brute_force_flatten(self):
        rng = np.random.default_rng(2)
        net = MLP.initialize([3, 5, 4, 2], ["relu", "tanh", "linear"], seed=2)
        for _ in range(10):
            tz = taps_for(net, rng.normal(size=3), int(rng.integers(2)))
            tj = taps_for(net, rng.normal(size=3), int(rng.integers(2)))
            pz, pj = param_grads(tz), param_grads(tj)
            brute = -float(np.dot(pz.flatten(), pj.flatten()))
            assert ip_influence(pz, pj) == pytest.approx(brute, rel=1e-12, abs=1e-15)

    def test_ghost_depth_one_equals_ip(self):
        tz, tj = self.standing_pair()
        sims = pair_similarities(tz, tj)
        assert ghost_influence(sims) == pytest.approx(-0.5, abs=1e-15)

    def test_ghost_zero_betas(self):
        sims = pair_similarities(*self.standing_pair())
        sims.beta[:] = 0.0
        assert ghost_influence(sims) == 0.0

    @pytest.mark.parametrize("depth_dims,acts", [
        ([3, 4, 2], ["linear", "linear"]),
        ([3, 4, 4, 2], ["linear", "linear", "linear"]),
        ([2, 3, 3, 3, 2], ["linear", "linear", "linear", "linear"]),
    ])
    def test_ghost_equals_ip_on_linear_nets(self, depth_dims, acts):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            net = MLP.initialize(depth_dims, acts, seed=seed)
            tz = taps_for(net, rng.normal(size=depth_dims[0]), 0)
            tj = taps_for(net, rng.normal(size=depth_dims[0]), 1)
            ip = ip_influence(param_grads(tz), param_grads(tj))
            ghost = ghost_influence(pair_similarities(tz, tj))
            assert abs(ghost - ip) / max(abs(ip), 1e-12) < 1e-10

    def test_ghost_equals_ip_any_activation(self):
        # tap-based beta already includes activation derivatives: identity is exact
        for seed in range(25):
            rng = np.random.default_rng(100 + seed)
            net = MLP.initialize([3, 5, 4, 3], ["relu", "tanh", "linear"], seed=seed)
            tz = taps_for(net, rng.normal(size=3), int(rng.integers(3)))
            tj = taps_for(net, rng.normal(size=3), int(rng.integers(3)))
            ip = ip_influence(param_grads(tz), param_grads(tj))
            ghost = ghost_influence(pair_similarities(tz, tj))
            assert abs(ghost - ip) / max(abs(ip), 1e-12) < 1e-10

    def test_lai_depth_one_collapse(self):
        tz, tj = self.standing_pair()
        sims = pair_similarities(tz, tj)
        assert lai_influence(sims) == pytest.approx(-0.5, abs=1e-15)
        assert lli_influence(sims) == pytest.approx(-0.5, abs=1e-15)

    def test_lai_zero_output_beta(self):
        sims = pair_similarities(*self.standing_pair())
        sims.beta[-1] = 0.0
        assert lai_influence(sims) == 0.0

    def test_lai_recomputed_from_raw_taps(self):
        net = MLP.initialize([2, 3, 2], ["linear", "linear"], seed=4)
        tz = taps_for(net, [0.2, -0.4], 0)
        tj = taps_for(net, [0.5, 0.1], 1)
        sims = pair_similarities(tz, tj)
        a1 = np.dot(tz.activations[0], tj.activations[0]) + 1.0
        a2 = np.dot(tz.activations[1], tj.activations[1]) + 1.0
        b2 = np.dot(tz.layer_grads[1], tj.layer_grads[1])
        assert lai_influence(sims) == pytest.approx(-(a1 + a2) * b2, abs=1e-14)

    def test_lli_equals_final_layer_ip(self):
        net = MLP.initialize([3, 4, 4, 2], ["relu", "tanh", "linear"], seed=5)
        tz = taps_for(net, [0.1, 0.3, -0.2], 0)
        tj = taps_for(net, [-0.4, 0.2, 0.6], 1)
        sims = pair_similarities(tz, tj)
        pz, pj = param_grads(tz), param_grads(tj)
        final_ip = -(np.dot(pz.weight_grads[-1].ravel(), pj.weight_grads[-1].ravel())
                     + np.dot(pz.bias_grads[-1], pj.bias_grads[-1]))
        assert lli_influence(sims) == pytest.approx(final_ip, abs=1e-12)

    def test_depth_one_full_collapse(self):
        rng = np.random.default_rng(6)
        net = MLP.initialize([4, 3], ["linear"], seed=6)
        for _ in range(10):
            tz = taps_for(net, rng.normal(size=4), int(rng.integers(3)))
            tj = taps_for(net, rng.normal(size=4), int(rng.integers(3)))
            sims = pair_similarities(tz, tj)
            ip = ip_influence(param_grads(tz), param_grads(tj))
            for score in (ghost_influence(sims), lai_influence(sims), lli_influence(sims)):
                assert abs(score - ip) < 1e-12


class TestPreconditioning:
    def make_sims(self):
        net = MLP.initialize([2, 3, 2], ["relu", "linear"], seed=8)
        tz = taps_for(net, [0.5, -0.1], 0)
        tj = taps_for(net, [0.2, 0.7], 1)
        return tz, tj, pair_similarities(tz, tj)

    def test_identity_preconditioner_matches_lai(self):
        tz, tj, sims = self.make_sims()
        d = np.ones(2)
        score = preconditioned_score(tz.output_grad, tj.output_grad, sims, d)
        assert score == pytest.approx(lai_influence(sims), rel=1e-12)

    def test_uniform_scaling_rescales_and_preserves_ranking(self):
        net = MLP.initialize([2, 3, 2], ["relu", "linear"], seed=8)
        rng = np.random.default_rng(0)
        pairs = [(taps_for(net, rng.normal(size=2), 0), taps_for(net, rng.normal(size=2), 1))
                 for _ in range(6)]
        c = 3.7
        base, scaled = [], []
        for tz, tj in pairs:
            sims = pair_similarities(tz, tj)
            base.append(lai_influence(sims))
            d = np.full(2, c)
            scaled.append(preconditioned_score(tz.output_grad, tj.output_grad, sims, d))
        np.testing.assert_allclose(scaled, np.array(base) / c, rtol=1e-12)
        assert list(np.argsort(base)) == list(np.argsort(scaled))

    def test_anisotropic_hand_case(self):
        # D=[4,1], both gradients [1,1]: beta~ = 1/4 + 1 = 1.25
        gl = np.array([1.0, 1.0])
        sims = pair_similarities(
            manual_taps(identity_net(), [1.0, 0.0], gl),
            manual_taps(identity_net(), [1.0, 0.0], gl))
        d = np.array([4.0, 1.0])
        score = preconditioned_score(gl, gl, sims, d)
        assert score == pytest.approx(-sims.alpha.sum() * 1.25, rel=1e-14)

    def test_update_decay_one_is_identity(self):
        d2 = update_preconditioner(np.array([2.0, 3.0]), np.array([[5.0, 5.0]]), 1.0, 1e-8)
        np.testing.assert_array_equal(d2, [2.0, 3.0])

    def test_update_decay_zero_replaces_with_floor(self):
        d2 = update_preconditioner(np.array([2.0, 3.0]), np.array([[2.0, 0.0]]), 0.0, 1e-8)
        np.testing.assert_array_equal(d2, [4.0, 1e-8])

    def test_update_matches_closed_form_geometric_sum(self):
        decay = 0.9
        d = np.array([1.0])
        batches = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
        for g in batches:
            d = update_preconditioner(d, g[None, :], decay, 1e-12)
        expected = decay ** 3 * 1.0 + (1 - decay) * (
            decay ** 2 * 1.0 + decay * 4.0 + 9.0)
        assert d[0] == pytest.approx(expected, rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            update_preconditioner(np.ones(2), np.empty((0, 2)), 0.9, 1e-8)


def scaled_orthogonal_net(dims, scale, seed):
    """All-linear net with every weight matrix a scaled orthogonal block."""
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(dims) - 1):
        m = rng.normal(size=(max(dims[i + 1], dims[i]), max(dims[i + 1], dims[i])))
        q, _ = np.linalg.qr(m)
        w = scale * q[:dims[i + 1], :dims[i]]
        layers.append(Layer(w, np.zeros(dims[i + 1]),
                            LayerSpec(dims[i], dims[i + 1], Activation.LINEAR)))
    return MLP(layers=layers, seed=seed)


def row_taps(net, *rows):
    """Full-backward batch taps of (x, label) rows, in order."""
    return batch_taps(net, np.array([x for x, _ in rows], dtype=float),
                      np.array([label for _, label in rows]), backward=True)


class TestBoundDiagnostics:
    def test_depth_one_gap_and_bound_zero(self):
        taps = row_taps(identity_net(), ([0.5, 0.2], 0))
        report = bound_diagnostics(taps, taps)
        assert report.measured_rel_gap == 0.0
        assert report.bound_value == 0.0

    def test_contractive_linear_self_pair_within_bound(self):
        net = scaled_orthogonal_net([3, 3, 3], scale=0.9, seed=0)
        taps = row_taps(net, ([0.2, -0.1, 0.3], 1))
        report = bound_diagnostics(taps, taps)
        assert report.assumptions_hold
        assert report.rho_hat < 1.0
        assert report.measured_rel_gap <= report.bound_value

    def test_relu_alignment_reversal_flags_assumptions(self):
        # rank-1 output layer collapses lower-layer gradients onto one direction,
        # so lower-layer alignment exceeds the output-layer alignment
        h = 3
        w1 = np.eye(h, 2)
        b1 = np.full(h, 5.0)  # keep every ReLU active
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.3, 0.4, 0.5])
        w2 = np.outer(u, v)
        net = MLP(layers=[
            Layer(w1, b1, LayerSpec(2, h, Activation.RELU)),
            Layer(w2, np.zeros(3), LayerSpec(h, 3, Activation.LINEAR)),
        ])
        tz = row_taps(net, ([0.9, 0.1], 1))
        tj = row_taps(net, ([-0.3, 0.8], 2))
        cos_out, cos_low = (
            float(gz[0] @ gj[0]) / (np.linalg.norm(gz[0]) * np.linalg.norm(gj[0]))
            for gz, gj in ((tz.grads[-1], tj.grads[-1]), (tz.grads[0], tj.grads[0])))
        assert cos_low > cos_out + 1e-6  # the constructed reversal is real
        report = bound_diagnostics(tz, tj)
        assert not report.assumptions_hold
        assert report.bound_value >= 0.0  # still reported

    def test_zero_lai_reports_undefined_gap(self):
        # a zero output gradient, as from a perfectly fit sample
        taps = BatchTaps(acts=[np.array([[1.0, 0.0, 1.0]])], grads=[np.zeros((1, 2))],
                         losses=np.zeros(1), logits=np.array([[1.0, 0.0]]))
        report = bound_diagnostics(taps, taps)
        assert report.measured_rel_gap is None

    def test_unpaired_or_partial_taps_rejected(self):
        net = MLP.initialize([3, 4, 2], ["relu", "linear"], seed=2)
        X, y = np.ones((2, 3)), np.array([0, 1])
        full = batch_taps(net, X, y, backward=True)
        with pytest.raises(ValueError, match="one j row per z row"):
            bound_diagnostics(full, batch_taps(net, X[:1], y[:1], backward=True))
        with pytest.raises(ValueError, match="full backward"):
            bound_diagnostics(full, batch_taps(net, X, y, backward=False))


def random_net_and_rows(data, rows):
    """A seeded net of depth 1-3 (relu/tanh/linear hidden layers) and `rows` random samples."""
    depth = data.draw(st.integers(1, 3), label="depth")
    dims = data.draw(st.lists(st.integers(2, 5), min_size=depth + 1, max_size=depth + 1),
                     label="dims")
    acts = data.draw(st.lists(st.sampled_from(["relu", "tanh", "linear"]),
                              min_size=depth - 1, max_size=depth - 1), label="acts")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    net = MLP.initialize(dims, acts + ["linear"], seed=seed)
    return net, toy_split(net, rows, seed)


def assert_close(got, want):
    """Equal within 1e-12 relative, or 1e-24 absolute for pure rounding noise."""
    assert got == want or abs(got - want) <= max(1e-12 * abs(want), 1e-24), (got, want)


class TestBatchedDiagnosticsMatchReference:
    @given(st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_bound_diagnostics(self, data):
        pairs = data.draw(st.integers(1, 6), label="pairs")
        net, samples = random_net_and_rows(data, 2 * pairs)
        z_rows, j_rows = samples[:pairs], samples[pairs:]
        got = bound_diagnostics(*(batch_taps(net, rows.features, rows.labels, backward=True)
                                  for rows in (z_rows, j_rows)))
        want = reference.bound_diagnostics(
            [(evaluate_sample(net, z.features, z.label), evaluate_sample(net, j.features, j.label))
             for z, j in zip(z_rows, j_rows)])
        for name in ("rho_hat", "ca_hat", "alpha_bar", "bound_value"):
            assert_close(getattr(got, name), getattr(want, name))
        assert (got.measured_rel_gap is None) == (want.measured_rel_gap is None)
        if want.measured_rel_gap is not None:
            assert_close(got.measured_rel_gap, want.measured_rel_gap)
        assert got.assumptions_hold == want.assumptions_hold
        assert got.depth == want.depth

    @given(st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_variance_diagnostic(self, data):
        pool_size = data.draw(st.integers(2, 10), label="pool")
        net, samples = random_net_and_rows(data, pool_size + 1)
        subset_size = data.draw(st.integers(1, pool_size), label="subset")
        resamples = data.draw(st.integers(2, 20), label="resamples")
        args = (net, (samples[1:2], samples[:1]), samples[1:], resamples, subset_size, 7)
        for got, want in zip(variance_diagnostic(*args), reference.variance_diagnostic(*args)):
            assert_close(got, want)


class TestVarianceDiagnostic:
    def pool(self, net, n, seed):
        return toy_split(net, n, seed)

    def test_full_pool_subsets_give_zero_variance(self):
        net = MLP.initialize([2, 3, 2], ["relu", "linear"], seed=0)
        pool = self.pool(net, 6, seed=1)
        vg, vl = variance_diagnostic(net, (pool[:1], pool[1:2]), pool,
                                     resamples=8, subset_size=6, seed=3)
        assert vg == 0.0 and vl == 0.0

    def test_depth_one_variances_equal(self):
        net = MLP.initialize([3, 3], ["linear"], seed=2)
        pool = self.pool(net, 10, seed=4)
        vg, vl = variance_diagnostic(net, (pool[:1], pool[1:2]), pool,
                                     resamples=40, subset_size=3, seed=5)
        assert vg == pytest.approx(vl, rel=1e-12)

    def test_depth_three_run_reports_finite_variances(self):
        net = MLP.initialize([4, 8, 8, 3], ["relu", "relu", "linear"], seed=6)
        pool = self.pool(net, 64, seed=7)
        vg, vl = variance_diagnostic(net, (pool[:1], pool[1:2]), pool,
                                     resamples=200, subset_size=8, seed=8)
        assert np.isfinite(vg) and np.isfinite(vl)
        assert vg >= 0.0 and vl >= 0.0
        # var(LAI) <= var(Ghost) is an empirical observation, recorded not asserted

    def test_anchor_and_probe_must_be_one_row(self):
        net = MLP.initialize([2, 3, 2], ["relu", "linear"], seed=0)
        pool = self.pool(net, 6, seed=1)
        for pair in ((pool[:2], pool[2:3]), (pool[:1], pool[1:1])):
            with pytest.raises(ValueError, match="one row each"):
                variance_diagnostic(net, pair, pool, resamples=4, subset_size=2, seed=3)

    def test_determinism(self):
        net = MLP.initialize([2, 4, 2], ["tanh", "linear"], seed=9)
        pool = self.pool(net, 12, seed=10)
        a = variance_diagnostic(net, (pool[:1], pool[1:2]), pool, 20, 4, seed=11)
        b = variance_diagnostic(net, (pool[:1], pool[1:2]), pool, 20, 4, seed=11)
        assert a == b


class TestPairMatrix:
    @pytest.mark.parametrize("acts", [["linear", "linear", "linear"],
                                      ["relu", "tanh", "linear"],
                                      ["tanh", "relu", "linear"]])
    def test_entries_match_per_pair_estimators(self, acts):
        rng = np.random.default_rng(17)
        net = MLP.initialize([3, 5, 4, 3], acts, seed=17)
        Xz, yz = rng.normal(size=(4, 3)), rng.integers(3, size=4)
        Xj, yj = rng.normal(size=(5, 3)), rng.integers(3, size=5)
        z_taps = batch_taps(net, Xz, yz, backward=True)
        j_taps = batch_taps(net, Xj, yj, backward=True)
        precond = np.array([1.5, 0.5, 2.0])
        per_pair = {
            Estimator.IP: lambda tz, tj, sims: ip_influence(param_grads(tz), param_grads(tj)),
            Estimator.GHOST: lambda tz, tj, sims: ghost_influence(sims),
            Estimator.LAI: lambda tz, tj, sims: lai_influence(sims),
            Estimator.LLI: lambda tz, tj, sims: lli_influence(sims),
            Estimator.PRECOND_LAI: lambda tz, tj, sims: preconditioned_score(
                tz.output_grad, tj.output_grad, sims, precond),
        }
        for est, score in per_pair.items():
            got = pair_matrix(est, z_taps, j_taps, precond)
            assert got.shape == (4, 5)
            for z in range(4):
                tz = evaluate_sample(net, Xz[z], int(yz[z]))
                for j in range(5):
                    tj = evaluate_sample(net, Xj[j], int(yj[j]))
                    want = -score(tz, tj, pair_similarities(tz, tj))
                    assert got[z, j] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_ghost_and_ip_need_full_backward(self):
        net = MLP.initialize([3, 4, 2], ["relu", "linear"], seed=2)
        X, y = np.ones((2, 3)), np.array([0, 1])
        partial = batch_taps(net, X, y, backward=False)
        full = batch_taps(net, X, y, backward=True)
        for est in (Estimator.GHOST, Estimator.IP):
            with pytest.raises(ValueError, match="full backward"):
                pair_matrix(est, full, partial)
        pair_matrix(Estimator.LAI, full, partial)  # LAI needs g(L) only

    def test_full_backward_is_ghost_and_ip(self):
        assert {e for e in Estimator if e.full_backward} == {Estimator.GHOST, Estimator.IP}

    @pytest.mark.parametrize("estimator", SCORED)
    def test_forward_only_taps_rejected_exactly_when_full_backward(self, estimator):
        net = MLP.initialize([3, 5, 4, 2], ["relu", "tanh", "linear"], seed=6)
        data = toy_split(net, 3, seed=7)
        full = batch_taps(net, data.features, data.labels, backward=True)
        partial = batch_taps(net, data.features, data.labels, backward=False)
        precond = np.array([0.5, 2.0])
        mixed = ((full, partial), (partial, full), (partial, partial))
        if estimator.full_backward:
            for z, j in mixed:
                with pytest.raises(ValueError, match="full backward"):
                    pair_matrix(estimator, z, j, precond)
        else:  # the LAI family reads g(L) alone: the same bits from forward-only taps
            want = pair_matrix(estimator, full, full, precond)
            for z, j in mixed:
                assert np.array_equal(pair_matrix(estimator, z, j, precond), want)

    def test_precond_requires_preconditioner(self):
        net = MLP.initialize([3, 2], ["linear"], seed=2)
        taps = batch_taps(net, np.ones((2, 3)), np.array([0, 1]), backward=False)
        with pytest.raises(ValueError, match="preconditioner"):
            pair_matrix(Estimator.PRECOND_LAI, taps, taps)
