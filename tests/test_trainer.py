"""Validation cache, curation decisions, SGD, cost ledger, and the train loop."""

import dataclasses
import math

import numpy as np
import pytest

from layerval.data import make_noisy_blob_bundle
from layerval.influence import Estimator, pair_similarities
from layerval.network import (
    MLP,
    Activation,
    BatchTaps,
    Layer,
    LayerSpec,
    batch_taps,
    evaluate_sample,
    param_grads,
)
from layerval import network, serialize, trainer
from layerval.evaluation import emit_reports
from layerval.oracle import UtilityFn
from layerval.trainer import (
    CostLedger,
    CurationMode,
    EmptyBatchPolicy,
    NonFiniteGradientError,
    StaleCacheError,
    TrainerConfig,
    backward_extra_macs,
    batch_cost,
    build_validation_cache,
    cache_reals_per_sample,
    checkpoint_steps,
    curate_batch,
    pair_macs,
    sgd_step,
    train,
)
from helpers import rows, toy_split
from reference import (
    ghost_influence,
    ip_influence,
    lai_influence,
    lli_influence,
    preconditioned_score,
)


SCORED = [Estimator.IP, Estimator.GHOST, Estimator.LAI, Estimator.LLI, Estimator.PRECOND_LAI]


def toy_net(dims=(3, 4, 2), acts=("relu", "linear"), seed=0):
    return MLP.initialize(list(dims), list(acts), seed=seed)


def taps_of(net, split, estimator=Estimator.LAI):
    """One pass over a split's rows, with a full backward pass where the estimator needs one."""
    return batch_taps(net, split.features, split.labels, backward=estimator.full_backward)


def no_taps(net):
    return batch_taps(net, np.empty((0, net.in_dim)), np.empty(0, dtype=np.int64), False)


def cfg_with(**kw):
    base = dict(learning_rate=0.05, momentum=0.0, batch_size=4, epochs=2,
                warmup_epochs=0, estimator=Estimator.LAI,
                mode=CurationMode.VALIDATION, threshold=0.0,
                val_fraction_per_batch=0.5, cache_refresh_steps=1, seed=0)
    base.update(kw)
    return TrainerConfig(**base)


def benefit_by_pairwise_ops(net, sample, val_subset, estimator, precond=None,
                            calibrate=False):
    """Independent recomputation through the per-pair influence operations."""
    taps_j = evaluate_sample(net, sample.features, sample.label)
    pg_j = param_grads(taps_j)
    scores = []
    for z in val_subset:
        taps_z = evaluate_sample(net, z.features, z.label)
        sims = pair_similarities(taps_z, taps_j, calibrate=calibrate)
        if estimator is Estimator.IP:
            scores.append(ip_influence(param_grads(taps_z), pg_j))
        elif estimator is Estimator.GHOST:
            scores.append(ghost_influence(sims))
        elif estimator is Estimator.LAI:
            scores.append(lai_influence(sims))
        elif estimator is Estimator.LLI:
            scores.append(lli_influence(sims))
        else:
            scores.append(preconditioned_score(taps_z.output_grad, taps_j.output_grad,
                                               sims, precond))
    return -math.fsum(scores)


class TestValidationCache:
    def test_identity_net_contents(self):
        spec = LayerSpec(2, 2, Activation.LINEAR)
        net = MLP(layers=[Layer(np.eye(2), np.zeros(2), spec)])
        x = np.array([0.3, -0.7])
        cache = build_validation_cache(net, taps_of(net, rows([x], [0])), Estimator.LAI)
        np.testing.assert_array_equal(cache.taps.acts[0][0], np.append(x, 1.0))
        from layerval.network import forward, loss_and_output_grad

        logits, _ = forward(net, x)
        _, gl = loss_and_output_grad(logits, 0)
        np.testing.assert_array_equal(cache.taps.grads[-1][0], gl)

    def test_rebuild_bit_identical(self):
        net = toy_net(seed=1)
        val = toy_split(net, 5, seed=2)
        a = build_validation_cache(net, taps_of(net, val, Estimator.GHOST), Estimator.GHOST,
                                   step_id=3)
        b = build_validation_cache(net, taps_of(net, val, Estimator.GHOST), Estimator.GHOST,
                                   step_id=3)
        for xa, xb in zip(a.taps.acts + a.taps.grads, b.taps.acts + b.taps.grads):
            assert np.array_equal(xa, xb)

    def test_concat_dot_equals_layerwise_alpha_sum(self):
        net = toy_net(dims=(3, 5, 4, 2), acts=("relu", "tanh", "linear"), seed=4)
        zs = toy_split(net, 1, seed=5)
        z, j = zs[0], toy_split(net, 1, seed=6)[0]
        cache = build_validation_cache(net, taps_of(net, zs), Estimator.LAI)
        taps_j = evaluate_sample(net, j.features, j.label)
        concat_j = np.concatenate([np.append(a, 1.0) for a in taps_j.activations])
        concat_z = np.concatenate([block[0] for block in cache.taps.acts])
        taps_z = evaluate_sample(net, z.features, z.label)
        sims = pair_similarities(taps_z, taps_j)
        assert float(concat_z @ concat_j) == pytest.approx(
            float(sims.alpha.sum()), abs=1e-12)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            build_validation_cache(toy_net(), no_taps(toy_net()), Estimator.LAI)

    @pytest.mark.parametrize("estimator", [Estimator.GHOST, Estimator.IP])
    def test_partial_taps_rejected_for_full_backward_estimators(self, estimator):
        net = toy_net(seed=1)
        with pytest.raises(ValueError, match="full backward"):
            build_validation_cache(net, taps_of(net, toy_split(net, 2, seed=2)), estimator)

    @pytest.mark.parametrize("estimator", SCORED)
    def test_forward_only_taps_rejected_exactly_when_full_backward(self, estimator):
        net = toy_net(dims=(3, 5, 4, 2), acts=("relu", "tanh", "linear"), seed=3)
        val = toy_split(net, 2, seed=4)
        partial = batch_taps(net, val.features, val.labels, backward=False)
        if estimator.full_backward:
            with pytest.raises(ValueError, match="full backward"):
                build_validation_cache(net, partial, estimator)
        else:
            assert build_validation_cache(net, partial, estimator).taps is partial


class TestCurateBatch:
    def test_all_positive_all_kept(self):
        # one tight same-label cluster: every pairwise alignment is positive
        net = toy_net(seed=7)
        rng = np.random.default_rng(8)
        center = np.array([0.5, -0.3, 0.8])
        batch = rows(center + 0.01 * rng.normal(size=(4, 3)), [1] * 4)
        cache = build_validation_cache(net, taps_of(net, batch), Estimator.LAI)
        decision = curate_batch(net, taps_of(net, batch), cache, cfg_with(estimator=Estimator.LAI))
        assert all(b > 0 for b in decision.benefit_scores)
        assert all(decision.kept_mask)

    def test_zero_gradient_sample_kept_at_boundary(self):
        # margin 1600 underflows softmax residues: the gradient is exactly zero
        net = MLP.initialize([2, 2], ["linear"], seed=0)
        net.layers[0].weights = np.array([[400.0, 0.0], [-400.0, 0.0]])
        net.layers[0].bias = np.zeros(2)
        batch = rows([[2.0, 0.0], [0.1, 0.5]], [0, 1])  # row 0 is the null sample
        cache = build_validation_cache(net, taps_of(net, batch[1:]), Estimator.LAI)
        decision = curate_batch(net, taps_of(net, batch), cache,
                                cfg_with(batch_size=2, threshold=0.0))
        assert decision.benefit_scores[0] == 0.0
        assert decision.kept_mask[0]

    def test_flipped_label_dropped_after_warmup_matches_utility_sign(self):
        bundle = make_noisy_blob_bundle(2, 40, 4, 0.25, flip_rate=0.0,
                                        fractions=(0.6, 0.2, 0.2), seed=10)
        net = toy_net(dims=(4, 8, 2), acts=("relu", "linear"), seed=10)
        cfg = cfg_with(mode=CurationMode.OFF, epochs=3, warmup_epochs=3,
                       batch_size=8, learning_rate=0.3)
        _, net = train(net, cfg, bundle)
        batch = bundle.train[np.r_[1:8, 0]]
        batch.labels[-1] = 1 - batch.labels[-1]  # row 0 again, its label flipped
        cache = build_validation_cache(net, taps_of(net, bundle.validation), Estimator.LAI)
        decision = curate_batch(net, taps_of(net, batch), cache, cfg_with(batch_size=8))
        assert decision.benefit_scores[-1] < 0.0
        assert not decision.kept_mask[-1]
        u = UtilityFn(net, bundle.validation, batch[-1:], learning_rate=1e-3)
        assert u.utilities(np.ones((1, 1), dtype=bool))[0] < 0.0  # one-step utility agrees

    @pytest.mark.parametrize("estimator", [Estimator.IP, Estimator.GHOST,
                                           Estimator.LAI, Estimator.LLI,
                                           Estimator.PRECOND_LAI])
    def test_cache_scoring_matches_pairwise_ops(self, estimator):
        net = toy_net(dims=(3, 5, 3), acts=("tanh", "linear"), seed=11)
        batch = toy_split(net, 3, seed=12)
        val = toy_split(net, 4, seed=13)
        precond = np.array([1.5, 0.5, 2.0]) \
            if estimator is Estimator.PRECOND_LAI else None
        cache = build_validation_cache(net, taps_of(net, val, estimator), estimator)
        decision = curate_batch(net, taps_of(net, batch, estimator), cache,
                                cfg_with(estimator=estimator), preconditioner=precond)
        for got, s in zip(decision.benefit_scores, batch):
            want = benefit_by_pairwise_ops(net, s, val, estimator, precond)
            assert got == pytest.approx(want, abs=1e-12, rel=1e-12)

    def test_stale_cache_rejected(self):
        net = toy_net(seed=14)
        batch = toy_split(net, 2, seed=15)
        cache = build_validation_cache(net, taps_of(net, batch), Estimator.LAI, step_id=0)
        with pytest.raises(StaleCacheError):
            curate_batch(net, taps_of(net, batch), cache, cfg_with(cache_refresh_steps=1),
                         step_id=1)

    def test_estimator_none_rejected(self):
        net = toy_net(seed=14)
        batch = toy_split(net, 2, seed=15)
        cache = build_validation_cache(net, taps_of(net, batch), Estimator.LAI, step_id=0)
        cfg = cfg_with(mode=CurationMode.OFF)
        cfg.estimator = Estimator.NONE
        with pytest.raises(ValueError):
            curate_batch(net, taps_of(net, batch), cache, cfg)

    def test_threshold_monotonicity_nested_kept_sets(self):
        net = toy_net(seed=16)
        batch = toy_split(net, 8, seed=17)
        val = toy_split(net, 5, seed=18)
        cache = build_validation_cache(net, taps_of(net, val), Estimator.LAI)
        kept_sets = []
        for thr in (-0.1, 0.0, 0.1):
            decision = curate_batch(net, taps_of(net, batch), cache, cfg_with(threshold=thr))
            kept_sets.append({i for i, k in enumerate(decision.kept_mask) if k})
        assert kept_sets[0] >= kept_sets[1] >= kept_sets[2]


class TestLayerCalibration:
    """layer_calibration divides alpha(l) by dim(a~(l-1)) for the LAI family only."""

    NET_DIMS, NET_ACTS = (3, 6, 4, 3), ("tanh", "relu", "linear")
    PRECOND = np.array([1.5, 0.5, 2.0])

    @pytest.mark.parametrize("estimator", [Estimator.LAI, Estimator.LLI,
                                           Estimator.PRECOND_LAI])
    def test_curate_batch_matches_calibrated_pairwise_ops(self, estimator):
        net = toy_net(dims=self.NET_DIMS, acts=self.NET_ACTS, seed=50)
        batch = toy_split(net, 4, seed=51)
        val = toy_split(net, 5, seed=52)
        cache = build_validation_cache(net, taps_of(net, val, estimator), estimator)
        decision = curate_batch(net, taps_of(net, batch, estimator), cache,
                                cfg_with(estimator=estimator, layer_calibration=True),
                                preconditioner=self.PRECOND)
        for got, s in zip(decision.benefit_scores, batch):
            want = benefit_by_pairwise_ops(net, s, val, estimator, self.PRECOND,
                                           calibrate=True)
            assert got == pytest.approx(want, abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("estimator", [Estimator.LAI, Estimator.LLI,
                                           Estimator.PRECOND_LAI])
    def test_self_influence_matches_calibrated_pairwise_ops(self, estimator):
        net = toy_net(dims=self.NET_DIMS, acts=self.NET_ACTS, seed=53)
        batch = toy_split(net, 5, seed=54)
        decision = curate_batch(
            net, taps_of(net, batch, estimator), None,
            cfg_with(estimator=estimator, mode=CurationMode.SELF, layer_calibration=True),
            preconditioner=self.PRECOND)
        for i, s in enumerate(batch):
            rest = batch[np.arange(len(batch)) != i]
            want = benefit_by_pairwise_ops(net, s, rest, estimator, self.PRECOND,
                                           calibrate=True)
            assert decision.benefit_scores[i] == pytest.approx(want, abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("estimator", [Estimator.GHOST, Estimator.IP])
    def test_ghost_and_ip_ignore_calibration(self, estimator):
        net = toy_net(dims=self.NET_DIMS, acts=self.NET_ACTS, seed=55)
        batch = toy_split(net, 4, seed=56)
        cache = build_validation_cache(net, taps_of(net, toy_split(net, 5, seed=57), estimator),
                                       estimator)
        taps = taps_of(net, batch, estimator)
        for mode, scoring_cache in ((CurationMode.VALIDATION, cache), (CurationMode.SELF, None)):
            scores = []
            for calibrate in (False, True):
                cfg = cfg_with(estimator=estimator, mode=mode, layer_calibration=calibrate)
                scores.append(curate_batch(net, taps, scoring_cache, cfg).benefit_scores)
            assert np.array_equal(scores[0], scores[1])


class TestSelfInfluence:
    """curate_batch with cache=None scores each member against the rest of its batch."""

    def test_identical_members_all_kept(self):
        net = toy_net(seed=19)
        x = np.array([0.4, -0.2, 0.9])
        batch = rows([x] * 4, [1] * 4)
        decision = curate_batch(net, taps_of(net, batch), None, cfg_with(mode=CurationMode.SELF))
        assert all(decision.kept_mask)
        assert all(b == pytest.approx(decision.benefit_scores[0], rel=1e-12)
                   for b in decision.benefit_scores)
        assert decision.benefit_scores[0] > 0.0

    def test_batch_of_one_kept_and_ledgered(self):
        # a lone row has no other row to be scored against: kept at any threshold
        net = toy_net(seed=20)
        ledger = CostLedger()
        decision = curate_batch(net, taps_of(net, toy_split(net, 1, seed=21)), None,
                                cfg_with(mode=CurationMode.SELF, threshold=0.5),
                                step_id=4, ledger=ledger)
        assert decision.kept_mask.tolist() == [True]
        assert decision.benefit_scores.tolist() == [0.0]
        # one member scored against m = 0 rows, its own row held
        assert ledger.totals(Estimator.LAI.value) == {
            "macs": 0, "cache_bytes": cache_reals_per_sample(net, Estimator.LAI) * 8,
            "samples_scored": 1, "samples_kept": 1, "steps": 1}

    def test_train_ledgers_a_trailing_batch_of_one(self):
        data = make_noisy_blob_bundle(3, 30, 4, 0.4, flip_rate=0.3,
                                      fractions=(0.7, 0.15, 0.15), seed=66)
        n = len(data.train)
        cfg = cfg_with(mode=CurationMode.SELF, epochs=3, warmup_epochs=1,
                       batch_size=n - 1, threshold=0.5)
        assert n % cfg.batch_size == 1
        report, _ = train(toy_net(dims=(4, 8, 3), seed=66), cfg, data)
        totals = report.ledger.totals(Estimator.LAI.value)
        assert totals["samples_scored"] == sum(s.scored_count for s in report.epoch_stats) == 2 * n
        assert totals["steps"] == 2 * 2
        assert totals["samples_kept"] == sum(s.kept_count for s in report.epoch_stats[1:])
        lone = report.score_steps % 2 == 1  # each epoch's second step scores one row
        assert report.score_benefits[lone].tolist() == [0.0, 0.0]
        position = {sid: i for i, sid in enumerate(report.sample_ids.tolist())}
        for epoch, sid in zip((1, 2), report.score_ids[lone].tolist()):
            assert report.inclusion[epoch, position[sid]]

    def test_antipodal_twins_split_inside_majority_batch(self):
        # L=1, zero weights: logits are always [0,0], so twins with the same
        # features and opposite labels have exactly opposite output gradients.
        spec = LayerSpec(2, 2, Activation.LINEAR)
        net = MLP(layers=[Layer(np.zeros((2, 2)), np.zeros(2), spec)])
        x = np.array([0.6, 0.8])
        # twins with labels 0 and 1, then a majority of three at label 0
        batch = rows([x, x] + [[0.5, 0.9]] * 3, [0, 1, 0, 0, 0])
        twin_pos, twin_neg = batch[0], batch[1]
        decision = curate_batch(net, taps_of(net, batch), None,
                                cfg_with(mode=CurationMode.SELF, batch_size=5))
        b_pos, b_neg = decision.benefit_scores[0], decision.benefit_scores[1]
        # mutual twin term is identical for both; the rest is exactly antisymmetric
        taps_p = evaluate_sample(net, twin_pos.features, twin_pos.label)
        taps_n = evaluate_sample(net, twin_neg.features, twin_neg.label)
        mutual = -lai_influence(pair_similarities(taps_p, taps_n))
        assert (b_pos - mutual) == pytest.approx(-(b_neg - mutual), abs=1e-12)
        assert decision.kept_mask[0] and not decision.kept_mask[1]

    def test_mislabeled_member_gets_minimum_benefit(self):
        bundle = make_noisy_blob_bundle(2, 60, 4, 0.3, flip_rate=0.0,
                                        fractions=(0.6, 0.2, 0.2), seed=22)
        net = toy_net(dims=(4, 8, 2), acts=("relu", "linear"), seed=22)
        cfg = cfg_with(mode=CurationMode.OFF, epochs=2, warmup_epochs=2,
                       batch_size=8, learning_rate=0.3)
        _, net = train(net, cfg, bundle)
        batch = bundle.train[np.arange(16)]
        batch.labels[5] = 1 - batch.labels[5]
        decision = curate_batch(net, taps_of(net, batch), None, cfg_with(mode=CurationMode.SELF))
        assert int(np.argmin(decision.benefit_scores)) == 5
        # exhaustive pairwise recomputation through the per-pair ops
        taps = [evaluate_sample(net, s.features, s.label) for s in batch]
        for i in (0, 5, 11):
            scores = [lai_influence(pair_similarities(taps[k], taps[i]))
                      for k in range(len(batch)) if k != i]
            want = -math.fsum(scores)
            assert decision.benefit_scores[i] == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestSgdStep:
    def test_single_sample_exact_update(self):
        net = toy_net(dims=(2, 2), acts=("linear",), seed=23)
        one = toy_split(net, 1, seed=24)
        sample = one[0]
        pg = param_grads(evaluate_sample(net, sample.features, sample.label))
        w_before = net.layers[0].weights.copy()
        b_before = net.layers[0].bias.copy()
        cfg = cfg_with(learning_rate=0.1, momentum=0.0)
        net, _, _ = sgd_step(net, taps_of(net, one), cfg, None)
        np.testing.assert_allclose(net.layers[0].weights,
                                   w_before - 0.1 * pg.weight_grads[0], atol=1e-15)
        np.testing.assert_allclose(net.layers[0].bias,
                                   b_before - 0.1 * pg.bias_grads[0], atol=1e-15)

    def test_zero_gradient_leaves_parameters(self):
        net = MLP.initialize([2, 2], ["linear"], seed=0)
        net.layers[0].weights = np.array([[400.0, 0.0], [-400.0, 0.0]])
        net.layers[0].bias = np.zeros(2)
        w = net.layers[0].weights.copy()
        net, _, _ = sgd_step(net, taps_of(net, rows([[2.0, 0.0]], [0])), cfg_with(), None)
        assert np.array_equal(net.layers[0].weights, w)

    def test_two_steps_match_velocity_recursion(self):
        net = toy_net(dims=(3, 2), acts=("linear",), seed=25)
        reference = net.copy()
        one = toy_split(net, 1, seed=26)
        sample = one[0]
        cfg = cfg_with(learning_rate=0.2, momentum=0.9)
        state = None
        for _ in range(2):
            net, state, _ = sgd_step(net, taps_of(net, one), cfg, state)
        # closed-form recursion recomputed by hand on the reference copy
        g1 = param_grads(evaluate_sample(reference, sample.features, sample.label))
        v1w, v1b = g1.weight_grads[0], g1.bias_grads[0]
        reference.layers[0].weights -= 0.2 * v1w
        reference.layers[0].bias -= 0.2 * v1b
        g2 = param_grads(evaluate_sample(reference, sample.features, sample.label))
        v2w = 0.9 * v1w + g2.weight_grads[0]
        v2b = 0.9 * v1b + g2.bias_grads[0]
        reference.layers[0].weights -= 0.2 * v2w
        reference.layers[0].bias -= 0.2 * v2b
        np.testing.assert_allclose(net.layers[0].weights, reference.layers[0].weights,
                                   atol=1e-15)
        np.testing.assert_allclose(net.layers[0].bias, reference.layers[0].bias,
                                   atol=1e-15)

    def test_empty_kept_rejected(self):
        with pytest.raises(ValueError):
            sgd_step(toy_net(), no_taps(toy_net()), cfg_with(), None)

    def test_non_finite_gradient_raises_before_any_update(self):
        # full taps of a 2-3-2 net: layer 1's g a^T is finite, layer 2's overflows
        net = toy_net(dims=(2, 3, 2), seed=27)
        before = net.copy()
        taps = BatchTaps(acts=[np.ones((1, 3)), np.array([[1e200, 0.0, 0.0, 1.0]])],
                         grads=[np.ones((1, 3)), np.array([[1e200, -1e200]])],
                         losses=np.ones(1), logits=np.zeros((1, 2)))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteGradientError, match="3x2"):
            sgd_step(net, taps, cfg_with(), None)
        for got, want in zip(net.layers, before.layers):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.bias, want.bias)


class TestParamBlock:
    """The SGD step updates each layer's [W | b] block with one velocity block."""

    def test_assigned_weights_and_bias_reach_forward_and_step(self):
        net = toy_net(dims=(3, 5, 2), seed=70)
        batch = toy_split(net, 6, seed=71)
        w, b = np.arange(15.0).reshape(5, 3) / 10.0, np.linspace(-1.0, 1.0, 5)
        net.layers[0].weights = w
        net.layers[0].bias = b
        top = net.layers[1]
        fresh = MLP(layers=[Layer(w, b, net.layers[0].spec), Layer(top.weights, top.bias, top.spec)])
        taps, want = taps_of(net, batch, Estimator.GHOST), taps_of(fresh, batch, Estimator.GHOST)
        assert np.array_equal(taps.logits, want.logits)
        cfg = cfg_with(learning_rate=0.1)
        stepped, _, _ = sgd_step(net, taps, cfg, None)
        sgd_step(fresh, want, cfg, None)
        for a, c in zip(stepped.layers, fresh.layers):
            assert np.array_equal(a.params, c.params)
        assert not np.array_equal(stepped.layers[0].weights, w)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_one_velocity_block_per_layer(self, momentum):
        net = toy_net(dims=(3, 5, 2), seed=72)
        taps = taps_of(net, toy_split(net, 6, seed=73), Estimator.GHOST)
        cfg = cfg_with(learning_rate=0.1, momentum=momentum)
        grads = sgd_step(net.copy(), taps, cfg_with(learning_rate=0.1), None)[1]
        state = [np.full(l.params.shape, 0.5) for l in net.layers]
        old = [l.params.copy() for l in net.layers]
        net, velocity, _ = sgd_step(net, taps, cfg, state)
        for layer, v, v0, g, p0 in zip(net.layers, velocity, state, grads, old):
            assert (v.shape, g.shape) == (layer.params.shape,) * 2
            assert (v0 == 0.5).all()  # the state passed in is left as it was
            np.testing.assert_array_equal(v, momentum * v0 + g)
            np.testing.assert_array_equal(layer.params, p0 - cfg.learning_rate * v)


class TestReusedTaps:
    """A curated step makes one pass: the cache takes its first rows, the
    scorer the rest, and the SGD step the kept rows, where the step used to
    re-run a full pass over the kept samples."""

    ESTIMATORS = [Estimator.IP, Estimator.GHOST, Estimator.LAI, Estimator.LLI,
                  Estimator.PRECOND_LAI]

    @pytest.mark.parametrize("mode", [CurationMode.VALIDATION, CurationMode.SELF])
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_step_on_kept_rows_matches_rerun_step(self, estimator, mode):
        net = toy_net(dims=(3, 6, 4, 3), acts=("tanh", "relu", "linear"), seed=60)
        batch = toy_split(net, 10, seed=61)
        val = toy_split(net, 5, seed=62)
        cfg = cfg_with(estimator=estimator, mode=mode, momentum=0.5, batch_size=10)
        precond = np.array([1.5, 0.5, 2.0]) \
            if estimator is Estimator.PRECOND_LAI else None
        if mode is CurationMode.VALIDATION:
            taps = taps_of(net, rows(np.vstack([val.features, batch.features]),
                                     np.append(val.labels, batch.labels)), estimator)
            cache = build_validation_cache(net, taps.rows(slice(0, len(val))), estimator)
            taps = taps.rows(slice(len(val), None))
            decision = curate_batch(net, taps, cache, cfg, preconditioner=precond)
        else:
            taps = taps_of(net, batch, estimator)
            decision = curate_batch(net, taps, None, cfg, preconditioner=precond)
        kept = np.flatnonzero(decision.kept_mask)
        assert 0 < kept.size < len(batch)
        rng = np.random.default_rng(63)
        state = [rng.normal(size=l.params.shape) for l in net.layers]
        reused, state_a, loss_a = sgd_step(net.copy(), taps.rows(kept), cfg, state)
        rerun, state_b, loss_b = sgd_step(
            net.copy(), taps_of(net, batch[kept], Estimator.GHOST), cfg, state)
        for a, b, va, vb in zip(reused.layers, rerun.layers, state_a, state_b):
            np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(a.bias, b.bias, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(va, vb, rtol=1e-12, atol=1e-15)
        assert loss_a == pytest.approx(loss_b, rel=1e-12)

    @pytest.mark.parametrize("refresh", [1, 3])
    def test_cache_scorer_and_step_get_their_own_rows(self, monkeypatch, refresh):
        seen = []
        for name in ("build_validation_cache", "curate_batch", "sgd_step"):
            def spy(*args, _f=getattr(trainer, name), _name=name, **kwargs):
                out = _f(*args, **kwargs)
                seen.append((_name, args, out))
                return out
            monkeypatch.setattr(trainer, name, spy)
        data = make_noisy_blob_bundle(3, 30, 4, 0.4, flip_rate=0.3,
                                      fractions=(0.7, 0.15, 0.15), seed=65)
        cfg = cfg_with(epochs=3, warmup_epochs=1, batch_size=8, cache_refresh_steps=refresh)
        report, _ = train(toy_net(dims=(4, 8, 3), seed=65), cfg, data)
        features = {s.id: s.features for s in data.train}
        val_rows = {s.features.tobytes() for s in data.validation}

        def inputs(taps):
            return taps.acts[0][:, :-1]

        ids_by_step: dict[int, list[int]] = {}
        for step, sid in zip(report.score_steps.tolist(), report.score_ids.tolist()):
            ids_by_step.setdefault(step, []).append(sid)
        k = math.ceil(cfg.val_fraction_per_batch * len(data.validation))
        decision = None
        for name, args, out in seen:
            if name == "build_validation_cache":
                assert len(args[1]) == k
                assert all(row.tobytes() in val_rows for row in inputs(args[1]))
            elif name == "curate_batch":
                step, decision = args[4], out
                want = np.stack([features[sid] for sid in ids_by_step[step]])
                assert np.array_equal(inputs(args[1]), want)
            elif decision is not None:  # a curated step trains on its kept rows
                assert np.array_equal(inputs(args[1]), want[decision.kept_mask])
        assert sum(name == "curate_batch" for name, _, _ in seen) == len(ids_by_step)

    @pytest.mark.parametrize("mode, refresh", [(CurationMode.VALIDATION, 1),
                                               (CurationMode.VALIDATION, 3),
                                               (CurationMode.SELF, 1)])
    def test_one_pass_per_step_plus_two_per_epoch(self, monkeypatch, mode, refresh):
        # one _taps pass per step; the two evaluations of each epoch (the
        # validation loss, the test accuracy) are forward-only passes over
        # blocks of at most batch_size rows that cover each split once
        calls, evaluated = [], []

        def counting(*args, **kwargs):
            calls.append(args[1].shape[0])
            return network._taps(*args, **kwargs)

        def forward_only(net, a, *rest):
            evaluated.append(a.copy())
            return network._logits(net, a, *rest)

        monkeypatch.setattr(trainer, "_taps", counting)
        monkeypatch.setattr(trainer, "_logits", forward_only)
        data = make_noisy_blob_bundle(3, 30, 4, 0.4, flip_rate=0.3,
                                      fractions=(0.7, 0.15, 0.15), seed=64)
        cfg = cfg_with(mode=mode, epochs=4, warmup_epochs=1, batch_size=8,
                       cache_refresh_steps=refresh)
        report, _ = train(toy_net(dims=(4, 8, 3), seed=64), cfg, data)
        assert len(calls) == report.steps_total
        k = math.ceil(cfg.val_fraction_per_batch * len(data.validation))
        batches = math.ceil(len(data.train) / cfg.batch_size)
        refreshes = math.ceil(batches * (cfg.epochs - 1) / refresh) \
            if mode is CurationMode.VALIDATION else 0
        assert sum(calls) == cfg.epochs * len(data.train) + refreshes * k
        assert all(0 < len(block) <= cfg.batch_size for block in evaluated)
        assert len(evaluated) == cfg.epochs * sum(
            math.ceil(len(split) / cfg.batch_size) for split in (data.validation, data.test))
        epoch = np.vstack([data.validation.features, data.test.features])
        assert np.array_equal(np.vstack(evaluated), np.vstack([epoch] * cfg.epochs))


class TestLedger:
    def run_method(self, net, batch, val, estimator, ledger):
        cache = build_validation_cache(net, taps_of(net, val, estimator), estimator)
        curate_batch(net, taps_of(net, batch, estimator), cache,
                     cfg_with(estimator=estimator, batch_size=len(batch)),
                     step_id=0, ledger=ledger)

    def test_hand_mac_count_depth_three(self):
        # dims (8,16,16,4): augmented activations 9,17,17; gradients 16,16,4
        net = toy_net(dims=(8, 16, 16, 4), acts=("relu", "relu", "linear"), seed=27)
        assert pair_macs(net, Estimator.LAI) == (9 + 17 + 17) + 4 + 1
        assert pair_macs(net, Estimator.GHOST) == (9 + 16 + 1) + (17 + 16 + 1) + (17 + 4 + 1)
        assert pair_macs(net, Estimator.LLI) == 17 + 4 + 1
        assert backward_extra_macs(net) == (16 * 16 + 16) + (4 * 16 + 16)
        batch = toy_split(net, 3, seed=28)
        val = toy_split(net, 5, seed=29)
        ledger = CostLedger()
        self.run_method(net, batch, val, Estimator.GHOST, ledger)
        totals = ledger.totals(Estimator.GHOST.value)
        hand = (3 * 5 * 82 + 3 * 352, 5 * (9 + 17 + 17 + 16 + 16 + 4) * 8)
        assert (totals["macs"], totals["cache_bytes"]) == hand
        assert batch_cost(net, Estimator.GHOST, 3, 5) == hand
        # precond_lai rescales the 3 members' and the 5 cached output gradients
        assert batch_cost(net, Estimator.PRECOND_LAI, 3, 5) == (
            3 * 4 + 5 * 4 + 3 * 5 * 48, 5 * (9 + 17 + 17 + 4) * 8)

    def test_cached_cost_follows_the_specs(self):
        # batch_cost is cached on the layer specs: every net, asked in turn, gets
        # its own closed form, whatever was asked before it
        nets = [toy_net(dims=dims, seed=48) for dims in ((3, 4, 2), (3, 5, 2), (3, 4, 2))]
        nets.append(toy_net(dims=(3, 4, 2), acts=("tanh", "linear"), seed=49))
        for _ in range(2):
            for net in nets:
                for est in (Estimator.IP, Estimator.GHOST, Estimator.LAI, Estimator.PRECOND_LAI):
                    for cached in (True, False):
                        assert batch_cost(net, est, 3, 5, cached) == \
                            trainer._ledger_cost(net, est, 3, 5, cached)

    def test_cache_byte_closed_forms(self):
        net = toy_net(dims=(8, 16, 16, 4), acts=("relu", "relu", "linear"), seed=30)
        # ghost: activations + all layer gradients; lai: activations + output gradient
        assert cache_reals_per_sample(net, Estimator.GHOST) == (9 + 17 + 17) + (16 + 16 + 4)
        assert cache_reals_per_sample(net, Estimator.LAI) == (9 + 17 + 17) + 4
        assert cache_reals_per_sample(net, Estimator.LLI) == 17 + 4
        assert cache_reals_per_sample(net, Estimator.IP) == net.num_params

    @pytest.mark.parametrize("dims, acts", [((5, 3), ("linear",)),
                                            ((4, 6, 3), ("relu", "linear")),
                                            ((3, 5, 4, 2), ("relu", "tanh", "linear"))])
    def test_cache_reals_are_the_tap_blocks_pair_matrix_reads(self, dims, acts):
        net = toy_net(dims=dims, acts=acts, seed=46)
        taps = taps_of(net, toy_split(net, 1, seed=47), Estimator.GHOST)

        def reals(blocks):
            return sum(block.shape[1] for block in blocks)

        read = {
            Estimator.LAI: reals(taps.acts + taps.grads[-1:]),
            Estimator.PRECOND_LAI: reals(taps.acts + taps.grads[-1:]),
            Estimator.LLI: reals(taps.acts[-1:] + taps.grads[-1:]),
            Estimator.GHOST: reals(taps.acts + taps.grads),
            Estimator.IP: reals(taps.flat_grads(l) for l in range(net.depth)),
        }
        # plus one alpha(l) * beta(l) product per g(l) read; IP has no such split
        products = {Estimator.GHOST: net.depth, Estimator.IP: 0}
        for est, want in read.items():
            assert cache_reals_per_sample(net, est) == want
            assert pair_macs(net, est) == want + products.get(est, 1)

    def test_lai_cheaper_than_ghost_at_depth_three(self):
        net = toy_net(dims=(6, 10, 12, 3), acts=("relu", "tanh", "linear"), seed=31)
        batch = toy_split(net, 4, seed=32)
        val = toy_split(net, 6, seed=33)
        ledger = CostLedger()
        for est in (Estimator.GHOST, Estimator.LAI, Estimator.LLI):
            self.run_method(net, batch, val, est, ledger)
        lai, ghost = ledger.totals(Estimator.LAI.value), ledger.totals(Estimator.GHOST.value)
        assert lai["macs"] < ghost["macs"]
        assert lai["cache_bytes"] < ghost["cache_bytes"]
        for n in (1, 2, 7):
            for m in (1, 3, 16):
                for cached in (True, False):
                    lai_m, lai_b = batch_cost(net, Estimator.LAI, n, m, cached)
                    ghost_m, ghost_b = batch_cost(net, Estimator.GHOST, n, m, cached)
                    assert lai_m < ghost_m and lai_b < ghost_b

    def test_depth_one_scoring_macs_equal(self):
        net = toy_net(dims=(5, 3), acts=("linear",), seed=34)
        assert pair_macs(net, Estimator.LAI) == pair_macs(net, Estimator.GHOST)
        assert backward_extra_macs(net) == 0
        batch = toy_split(net, 4, seed=35)
        val = toy_split(net, 4, seed=36)
        ledger = CostLedger()
        for est in (Estimator.GHOST, Estimator.LAI):
            self.run_method(net, batch, val, est, ledger)
        assert ledger.totals(Estimator.LAI.value)["macs"] \
            == ledger.totals(Estimator.GHOST.value)["macs"]

    @pytest.mark.parametrize("estimator", [Estimator.LAI, Estimator.LLI, Estimator.GHOST,
                                           Estimator.IP, Estimator.PRECOND_LAI])
    def test_curate_batch_records_batch_cost(self, estimator):
        net = toy_net(dims=(4, 6, 5, 3), acts=("relu", "tanh", "linear"), seed=42)
        taps = taps_of(net, toy_split(net, 5, seed=43), estimator)
        val = taps_of(net, toy_split(net, 3, seed=44), estimator)
        for mode, cache, m in ((CurationMode.VALIDATION,
                                build_validation_cache(net, val, estimator), 3),
                               (CurationMode.SELF, None, 4)):
            ledger = CostLedger()
            decision = curate_batch(net, taps, cache, cfg_with(estimator=estimator, mode=mode),
                                    ledger=ledger, preconditioner=np.ones(3))
            macs, cache_bytes = batch_cost(net, estimator, 5, m, cache is not None)
            assert ledger.totals(estimator.value) == {
                "macs": macs, "cache_bytes": cache_bytes, "samples_scored": 5,
                "samples_kept": int(decision.kept_mask.sum()), "steps": 1}
            if cache is not None:
                assert cache.byte_size == cache_bytes

    def test_self_mode_counts_each_unordered_pair_once(self):
        # pair_matrix forms the full n x n block; the ledger charges n(n-1)/2 pairs
        net = toy_net(dims=(8, 16, 16, 4), acts=("relu", "relu", "linear"), seed=45)
        outer = 16 * 8 + 16 * 16 + 4 * 16
        extra = {Estimator.LAI: 0, Estimator.LLI: 0, Estimator.GHOST: 352,
                 Estimator.IP: 352 + outer, Estimator.PRECOND_LAI: 4}
        for est, per_member in extra.items():
            for n in (1, 2, 5, 16):
                macs, cache_bytes = batch_cost(net, est, n, n - 1, cached=False)
                assert macs == n * per_member + n * (n - 1) // 2 * pair_macs(net, est)
                assert cache_bytes == n * cache_reals_per_sample(net, est) * 8


class TestTrainLoop:
    def bundle(self, seed=42, flip=0.3):
        return make_noisy_blob_bundle(3, 30, 4, 0.4, flip_rate=flip,
                                      fractions=(0.7, 0.15, 0.15), seed=seed)

    def net(self, seed=42):
        return toy_net(dims=(4, 8, 3), acts=("relu", "linear"), seed=seed)

    def test_checkpoint_steps_are_the_hook_calls(self):
        data = make_noisy_blob_bundle(3, 12, 4, 0.4, flip_rate=0.25,
                                      fractions=(0.6, 0.2, 0.2), seed=5)
        assert len(data.train) == 21
        for batch in (1, 3, 16):
            for epochs in (0, 1, 3):
                for every in (0, 1, 2, 5, 50):
                    cfg = cfg_with(mode=CurationMode.OFF, batch_size=batch, epochs=epochs,
                                   checkpoint_every=every)
                    steps = []
                    train(self.net(), cfg, data,
                          checkpoint_hook=lambda step, snap: steps.append(step))
                    assert checkpoint_steps(cfg, len(data.train)) == steps
        # 3 epochs of 2 steps: every 2nd, and the last of a run shorter than the interval
        assert checkpoint_steps(cfg_with(batch_size=16, epochs=3, checkpoint_every=2), 21) \
            == [2, 4, 6]
        assert checkpoint_steps(cfg_with(batch_size=16, epochs=3, checkpoint_every=50), 21) == [6]

    def test_mode_off_keeps_everything(self):
        cfg = cfg_with(mode=CurationMode.OFF, epochs=3, warmup_epochs=0, batch_size=8)
        report, _ = train(self.net(), cfg, self.bundle())
        for stats, row in zip(report.epoch_stats, report.inclusion):
            assert stats.kept_count == len(report.sample_ids)
            assert all(row)
            assert stats.scored_count == 0

    def test_warmup_equals_epochs_matches_vanilla(self):
        data = self.bundle()
        cfg_off = cfg_with(mode=CurationMode.OFF, epochs=4, warmup_epochs=0, batch_size=8)
        cfg_warm = cfg_with(mode=CurationMode.VALIDATION, estimator=Estimator.LAI,
                            epochs=4, warmup_epochs=4, batch_size=8)
        report_off, net_off = train(self.net(), cfg_off, data)
        report_warm, net_warm = train(self.net(), cfg_warm, data)
        for a, b in zip(net_off.layers, net_warm.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
        assert [s.train_loss for s in report_off.epoch_stats] == \
            [s.train_loss for s in report_warm.epoch_stats]

    def test_warmup_then_curation_structure(self):
        cfg = cfg_with(mode=CurationMode.VALIDATION, estimator=Estimator.LAI,
                       epochs=4, warmup_epochs=2, batch_size=8)
        report, _ = train(self.net(), cfg, self.bundle())
        n = len(report.sample_ids)
        assert report.epoch_stats[0].kept_count == n
        assert report.epoch_stats[1].kept_count == n
        assert report.epoch_stats[2].scored_count == n
        # histogram mass equals samples scored
        for stats in report.epoch_stats:
            assert sum(stats.histogram_counts) == stats.scored_count

    def test_report_accounting_and_score_rows(self, tmp_path):
        data = self.bundle()
        cfg = cfg_with(mode=CurationMode.VALIDATION, estimator=Estimator.LAI,
                       epochs=3, warmup_epochs=1, batch_size=8, probe_sample_count=4)
        report, _ = train(self.net(), cfg, data)
        for stats, row in zip(report.epoch_stats, report.inclusion):
            assert stats.kept_count == sum(row)
        scored_epochs = sum(1 for s in report.epoch_stats if s.scored_count)
        assert len(report.score_benefits) == scored_epochs * len(report.sample_ids)
        assert len(report.score_steps) == len(report.score_ids) == len(report.score_benefits)
        assert np.all(np.diff(report.score_steps) >= 0)  # in step order
        assert report.probe_ids.tolist() == data.train.ids[:4].tolist()
        emit_reports(None, None, report, tmp_path / "curated")
        traces = serialize.load_json(tmp_path / "curated" / "training_report.json")["probe_traces"]
        assert list(traces) == [str(pid) for pid in report.probe_ids.tolist()]
        rows = list(zip(report.score_steps.tolist(), report.score_ids.tolist(),
                        report.score_benefits.tolist()))
        for pid in report.probe_ids.tolist():
            want = [[step, benefit] for step, sid, benefit in rows if sid == pid]
            assert len(want) == 2  # scored once in each curated epoch
            assert traces[str(pid)] == want
        off, _ = train(self.net(), dataclasses.replace(cfg, mode=CurationMode.OFF), data)
        emit_reports(None, None, off, tmp_path / "off")
        traces = serialize.load_json(tmp_path / "off" / "training_report.json")["probe_traces"]
        assert traces == {str(pid): [] for pid in data.train.ids[:4].tolist()}

    @pytest.mark.parametrize("split", ["validation", "test"])
    def test_empty_split_rejected(self, split):
        # with mode 'off' nothing is curated, but each epoch still reports
        # val_loss and test_accuracy, which an empty split cannot give
        data = self.bundle()
        data = dataclasses.replace(data, **{split: getattr(data, split)[:0]})
        with pytest.raises(ValueError, match=f"empty {split} split"):
            train(self.net(), cfg_with(mode=CurationMode.OFF), data)

    @pytest.mark.parametrize("split", ["train", "validation", "test"])
    def test_label_past_last_logit_rejected_before_any_step(self, monkeypatch, split):
        passes = []
        monkeypatch.setattr(trainer, "_taps", lambda *args: passes.append(args))
        data = self.bundle()
        part = getattr(data, split)
        bad = part[np.arange(len(part))]  # a copy
        bad.labels[2] = 3  # the net has 3 logits
        data = dataclasses.replace(data, **{split: bad})
        name = "training" if split == "train" else split
        with pytest.raises(ValueError, match=f"{name} split: label 3 in row 2 out of range"):
            train(self.net(), cfg_with(), data)
        assert passes == []

    def test_feature_width_checked_before_any_step(self):
        match = r"training split: input shape \(62, 4\) != \(batch, 3\)"
        with pytest.raises(ValueError, match=match):
            train(toy_net(dims=(3, 8, 3)), cfg_with(), self.bundle())

    def test_empty_batch_policies(self):
        data = self.bundle()
        impossible = 1e9
        cfg_skip = cfg_with(mode=CurationMode.VALIDATION, estimator=Estimator.LAI,
                            epochs=2, warmup_epochs=1, batch_size=8,
                            threshold=impossible,
                            empty_batch_policy=EmptyBatchPolicy.SKIP_STEP)
        report_skip, net_skip = train(self.net(), cfg_skip, data)
        assert report_skip.epoch_stats[1].kept_count == 0
        cfg_top = cfg_with(mode=CurationMode.VALIDATION, estimator=Estimator.LAI,
                           epochs=2, warmup_epochs=1, batch_size=8,
                           threshold=impossible,
                           empty_batch_policy=EmptyBatchPolicy.KEEP_TOP1)
        report_top, _ = train(self.net(), cfg_top, data)
        n = len(report_top.sample_ids)
        batches = math.ceil(n / 8)
        assert report_top.epoch_stats[1].kept_count == batches

    def test_cache_refresh_interval_runs(self):
        cfg = cfg_with(mode=CurationMode.VALIDATION, estimator=Estimator.GHOST,
                       epochs=2, warmup_epochs=0, batch_size=8, cache_refresh_steps=3)
        report, _ = train(self.net(), cfg, self.bundle())
        assert report.steps_total > 0

    def test_self_mode_and_precond_mode_run(self):
        cfg_self = cfg_with(mode=CurationMode.SELF, estimator=Estimator.LAI,
                            epochs=2, warmup_epochs=0, batch_size=8)
        report, _ = train(self.net(), cfg_self, self.bundle())
        assert report.epoch_stats[0].scored_count > 0
        cfg_pre = cfg_with(mode=CurationMode.VALIDATION, estimator=Estimator.PRECOND_LAI,
                           epochs=2, warmup_epochs=0, batch_size=8)
        report2, _ = train(self.net(), cfg_pre, self.bundle())
        assert report2.epoch_stats[0].scored_count > 0

    def test_determinism_across_runs(self):
        cfg = cfg_with(mode=CurationMode.VALIDATION, estimator=Estimator.LAI,
                       epochs=3, warmup_epochs=1, batch_size=8, seed=5)
        r1, n1 = train(self.net(), cfg, self.bundle())
        r2, n2 = train(self.net(), cfg, self.bundle())
        for column in ("inclusion", "score_steps", "score_ids", "score_benefits"):
            assert np.array_equal(getattr(r1, column), getattr(r2, column))
        for a, b in zip(n1.layers, n2.layers):
            assert np.array_equal(a.weights, b.weights)

    def test_checkpoint_hook_boundary(self):
        data = self.bundle()
        seen = []
        cfg = cfg_with(mode=CurationMode.OFF, epochs=1, warmup_epochs=0, batch_size=8,
                       checkpoint_every=10_000)
        train(self.net(), cfg, data, checkpoint_hook=lambda s, n: seen.append(s))
        assert len(seen) == 1  # interval larger than the run fires once at the end
