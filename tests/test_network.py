"""Forward/backward correctness against finite differences and hand computations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerval.network import (
    MLP,
    Activation,
    Layer,
    LayerSpec,
    _chain,
    _logits,
    _taps,
    augment,
    backward_taps,
    batch_taps,
    evaluate_sample,
    forward,
    load_checkpoint,
    loss_and_output_grad,
    param_grads,
    save_checkpoint,
)

from reference import backward_from_pre_activations

ALL_ACTS = ["linear", "relu", "tanh"]


def identity_net(dim=2):
    spec = LayerSpec(dim, dim, Activation.LINEAR)
    return MLP(layers=[Layer(np.eye(dim), np.zeros(dim), spec)])


def seeded_net(dims, acts, seed):
    return MLP.initialize(dims, acts, seed=seed)


def finite_difference_grads(net, x, label, step=1e-5):
    """Independent oracle: central differences of the loss over every parameter."""
    grads = []
    for layer in net.layers:
        gw = np.zeros_like(layer.weights)
        gb = np.zeros_like(layer.bias)
        for idx in np.ndindex(layer.weights.shape):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + step
            lp, _ = loss_and_output_grad(forward(net, x)[0], label)
            layer.weights[idx] = orig - step
            lm, _ = loss_and_output_grad(forward(net, x)[0], label)
            layer.weights[idx] = orig
            gw[idx] = (lp - lm) / (2 * step)
        for i in range(layer.bias.shape[0]):
            orig = layer.bias[i]
            layer.bias[i] = orig + step
            lp, _ = loss_and_output_grad(forward(net, x)[0], label)
            layer.bias[i] = orig - step
            lm, _ = loss_and_output_grad(forward(net, x)[0], label)
            layer.bias[i] = orig
            gb[i] = (lp - lm) / (2 * step)
        grads.append((gw, gb))
    return grads


class TestForward:
    def test_identity_network(self):
        logits, taps = forward(identity_net(), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(logits, [1.0, 2.0])
        np.testing.assert_array_equal(taps.activations[0], [1.0, 2.0])

    def test_zero_network(self):
        spec = LayerSpec(2, 2, Activation.LINEAR)
        net = MLP(layers=[Layer(np.zeros((2, 2)), np.zeros(2), spec)])
        logits, _ = forward(net, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(logits, [0.0, 0.0])

    def test_two_layer_hand_computed(self):
        # straight-line recomputation of both matrix products
        net = seeded_net([2, 3, 2], ["relu", "linear"], seed=7)
        x = np.array([0.5, -0.5])
        w1, b1 = net.layers[0].weights, net.layers[0].bias
        w2, b2 = net.layers[1].weights, net.layers[1].bias
        s1 = np.array([w1[r, 0] * x[0] + w1[r, 1] * x[1] + b1[r] for r in range(3)])
        a1 = np.array([max(v, 0.0) for v in s1])
        s2 = np.array([sum(w2[r, c] * a1[c] for c in range(3)) + b2[r] for r in range(2)])
        logits, taps = forward(net, x)
        np.testing.assert_allclose(logits, s2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(taps.pre_activations[0], s1, rtol=0, atol=1e-15)
        np.testing.assert_allclose(taps.activations[1], a1, rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward(identity_net(), np.array([1.0, 2.0, 3.0]))

    def test_non_finite_input(self):
        with pytest.raises(ValueError):
            forward(identity_net(), np.array([np.nan, 0.0]))

    def test_final_layer_must_be_linear(self):
        with pytest.raises(ValueError):
            MLP.initialize([2, 2], ["relu"], seed=0)


class TestLoss:
    def test_uniform_logits(self):
        loss, gl = loss_and_output_grad(np.array([0.0, 0.0]), 0)
        assert loss == pytest.approx(np.log(2.0), abs=1e-15)
        np.testing.assert_allclose(gl, [-0.5, 0.5], atol=1e-15)

    def test_peaked_logits_closed_form(self):
        # softmax([10,-10])[1] = e^-20/(1+e^-20); loss = log(1+e^-20)
        loss, gl = loss_and_output_grad(np.array([10.0, -10.0]), 0)
        expected_loss = np.log1p(np.exp(-20.0))
        p1 = np.exp(-20.0) / (1.0 + np.exp(-20.0))
        # the lse path evaluates log(1+x) at x ~ 2e-9: absolute error ~ eps
        assert loss == pytest.approx(expected_loss, abs=1e-15)
        np.testing.assert_allclose(gl, [-p1, p1], rtol=0, atol=1e-15)

    def test_three_class_finite_difference(self):
        logits = np.array([1.0, 2.0, 3.0])
        loss, gl = loss_and_output_grad(logits, 2)
        step = 1e-6
        for i in range(3):
            bumped = logits.copy()
            bumped[i] += step
            lp, _ = loss_and_output_grad(bumped, 2)
            bumped[i] -= 2 * step
            lm, _ = loss_and_output_grad(bumped, 2)
            assert gl[i] == pytest.approx((lp - lm) / (2 * step), abs=1e-8)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            loss_and_output_grad(np.array([0.0, 0.0]), 2)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_loss_nonnegative_and_grad_sums_to_zero(self, logits, data):
        label = data.draw(st.integers(0, len(logits) - 1))
        loss, gl = loss_and_output_grad(np.array(logits), label)
        assert loss >= 0.0
        assert abs(gl.sum()) < 1e-12


class TestBackward:
    def test_depth_one_passthrough(self):
        net = identity_net()
        logits, taps = forward(net, np.array([1.0, 2.0]))
        _, gl = loss_and_output_grad(logits, 0)
        taps = backward_taps(net, taps, gl)
        assert len(taps.layer_grads) == 1
        np.testing.assert_array_equal(taps.layer_grads[0], gl)

    def test_identity_jacobian_two_layers(self):
        specs = [LayerSpec(2, 2, Activation.LINEAR), LayerSpec(2, 2, Activation.LINEAR)]
        net = MLP(layers=[Layer(np.array([[1.0, 2.0], [0.5, -1.0]]), np.zeros(2), specs[0]),
                          Layer(np.eye(2), np.zeros(2), specs[1])])
        logits, taps = forward(net, np.array([0.3, 0.7]))
        _, gl = loss_and_output_grad(logits, 1)
        taps = backward_taps(net, taps, gl)
        np.testing.assert_allclose(taps.layer_grads[0], taps.layer_grads[1], atol=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("acts", [["relu", "linear"], ["tanh", "linear"],
                                      ["linear", "linear"]])
    def test_param_grads_match_finite_differences(self, seed, acts):
        rng = np.random.default_rng(seed)
        net = seeded_net([3, 4, 3], acts, seed=seed)
        x = rng.normal(size=3)
        label = int(rng.integers(0, 3))
        taps = evaluate_sample(net, x, label)
        pg = param_grads(taps)
        fd = finite_difference_grads(net, x, label)
        for (gw, gb), w, b in zip(fd, pg.weight_grads, pg.bias_grads):
            denom = np.maximum(np.abs(gw), 1e-4)
            assert np.max(np.abs(gw - w) / denom) < 1e-5
            denomb = np.maximum(np.abs(gb), 1e-4)
            assert np.max(np.abs(gb - b) / denomb) < 1e-5


class TestParamGrads:
    def test_outer_product_with_unit_vector(self):
        net = identity_net()
        taps = forward(net, np.array([1.0, 0.0]))[1]
        taps = backward_taps(net, taps, np.array([-0.5, 0.5]))
        pg = param_grads(taps)
        np.testing.assert_array_equal(pg.weight_grads[0], [[-0.5, 0.0], [0.5, 0.0]])
        np.testing.assert_array_equal(pg.bias_grads[0], [-0.5, 0.5])

    def test_zero_gradient(self):
        net = identity_net()
        taps = forward(net, np.array([1.0, 2.0]))[1]
        taps = backward_taps(net, taps, np.zeros(2))
        pg = param_grads(taps)
        assert all(np.all(w == 0) for w in pg.weight_grads)
        assert all(np.all(b == 0) for b in pg.bias_grads)

    def test_incomplete_taps_rejected(self):
        taps = forward(identity_net(), np.array([1.0, 0.0]))[1]
        with pytest.raises(ValueError):
            param_grads(taps)

    @pytest.mark.parametrize("acts", [["relu", "linear"], ["tanh", "linear"],
                                      ["linear", "linear"]])
    def test_outer_product_identity_per_layer(self, acts):
        # <dW_z(l), dW_j(l)> == <a_z(l-1), a_j(l-1)> * <g_z(l), g_j(l)> exactly
        rng = np.random.default_rng(11)
        net = seeded_net([3, 5, 3], acts, seed=11)
        tz = evaluate_sample(net, rng.normal(size=3), 0)
        tj = evaluate_sample(net, rng.normal(size=3), 2)
        pz, pj = param_grads(tz), param_grads(tj)
        for l in range(net.depth):
            lhs = np.dot(pz.weight_grads[l].ravel(), pj.weight_grads[l].ravel())
            rhs = np.dot(tz.activations[l], tj.activations[l]) * \
                np.dot(tz.layer_grads[l], tj.layer_grads[l])
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestParamBlock:
    """A layer keeps [W | b] as one (out, in + 1) block; weights and bias are its views."""

    def test_weights_and_bias_write_into_params(self):
        layer = seeded_net([3, 4, 2], ["relu", "linear"], seed=8).layers[0]
        w, b = np.arange(12.0).reshape(4, 3), np.array([-1.0, 0.5, 2.0, 3.0])
        layer.weights = w
        layer.bias = b
        np.testing.assert_array_equal(layer.params, np.column_stack([w, b]))
        layer.bias[2] = 7.0
        assert layer.params[2, -1] == 7.0
        assert np.shares_memory(layer.weights, layer.params)
        assert np.shares_memory(layer.bias, layer.params)

    def test_shape_off_the_spec_rejected(self):
        spec = LayerSpec(3, 2, Activation.LINEAR)
        with pytest.raises(ValueError, match="weight shape"):
            Layer(np.zeros((3, 2)), np.zeros(2), spec)
        with pytest.raises(ValueError, match="bias shape"):
            Layer(np.zeros((2, 3)), np.zeros(3), spec)

    def test_copy_shares_no_memory(self):
        net = seeded_net([4, 7, 3], ["tanh", "linear"], seed=9)
        twin = net.copy()
        for a, b in zip(net.layers, twin.layers):
            assert not np.shares_memory(a.params, b.params)
            np.testing.assert_array_equal(a.params, b.params)
        before = net.layers[0].params.copy()
        twin.layers[0].weights += 1.0
        np.testing.assert_array_equal(net.layers[0].params, before)

    def test_checkpoint_round_trip_keeps_the_bytes(self, tmp_path):
        net = seeded_net([4, 7, 3], ["relu", "linear"], seed=10)
        net.layers[0].weights *= np.pi
        net.layers[1].bias = np.array([0.1, -1e-300, 5.0])
        save_checkpoint(net, tmp_path / "a.json")
        loaded = load_checkpoint(tmp_path / "a.json")
        save_checkpoint(loaded, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        for a, b in zip(net.layers, loaded.layers):
            assert a.params.tobytes() == b.params.tobytes()


class TestDeterminismAndCheckpoint:
    def test_same_seed_bit_identical_taps(self):
        for _ in range(2):
            nets = [seeded_net([3, 4, 2], ["relu", "linear"], seed=5) for _ in range(2)]
            x = np.array([0.1, -0.2, 0.3])
            t0 = evaluate_sample(nets[0], x, 1)
            t1 = evaluate_sample(nets[1], x, 1)
            for a, b in zip(t0.layer_grads, t1.layer_grads):
                assert np.array_equal(a, b)
            assert t0.loss == t1.loss

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        net = seeded_net([4, 7, 3], ["tanh", "linear"], seed=123)
        # make weights "ugly" so short decimal encodings would lose bits
        net.layers[0].weights *= np.pi
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.seed == net.seed
        for a, b in zip(net.layers, loaded.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
            assert a.spec == b.spec

    def test_relu_derivative_zero_at_zero(self):
        spec1 = LayerSpec(1, 1, Activation.RELU)
        spec2 = LayerSpec(1, 1, Activation.LINEAR)
        net = MLP(layers=[Layer(np.array([[1.0]]), np.zeros(1), spec1),
                          Layer(np.array([[1.0]]), np.zeros(1), spec2)])
        taps = forward(net, np.array([0.0]))[1]  # s1 == 0 exactly
        taps = backward_taps(net, taps, np.array([1.0]))
        assert taps.layer_grads[0][0] == 0.0


class TestBatchTaps:
    @given(st.integers(0, 2 ** 16), st.lists(st.sampled_from(ALL_ACTS), min_size=0, max_size=2),
           st.integers(1, 9), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_rows_match_per_sample_taps(self, seed, hidden_acts, batch, backward):
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(1, 6, size=len(hidden_acts) + 1)] + [3]
        net = seeded_net(dims, hidden_acts + ["linear"], seed=seed)
        X = rng.normal(size=(batch, dims[0]))
        labels = rng.integers(3, size=batch)
        taps = batch_taps(net, X, labels, backward)
        assert len(taps.acts) == net.depth
        assert len(taps.grads) == (net.depth if backward else 1)
        for i in range(batch):
            ref = evaluate_sample(net, X[i], int(labels[i]))
            for l in range(net.depth):
                np.testing.assert_allclose(taps.acts[l][i], np.append(ref.activations[l], 1.0),
                                           rtol=1e-12, atol=1e-15)
            for got, want in zip(taps.grads[::-1], ref.layer_grads[::-1]):
                np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(taps.logits[i], ref.pre_activations[-1],
                                       rtol=1e-12, atol=1e-15)
            assert taps.losses[i] == pytest.approx(ref.loss, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("dims, acts", [([4, 3], ["linear"]),
                                            ([3, 5, 4, 2], ["relu", "tanh", "linear"])])
    def test_flat_grads_are_the_per_sample_parameter_gradients(self, dims, acts):
        net = seeded_net(dims, acts, seed=11)
        rng = np.random.default_rng(11)
        X, labels = rng.normal(size=(4, dims[0])), rng.integers(dims[-1], size=4)
        full = batch_taps(net, X, labels, backward=True)
        for i in range(4):
            grads = param_grads(evaluate_sample(net, X[i], int(labels[i])))
            for l, (gw, gb) in enumerate(zip(grads.weight_grads, grads.bias_grads)):
                np.testing.assert_allclose(full.flat_grads(l)[i],
                                           np.hstack([gw, gb[:, None]]).ravel(),
                                           rtol=1e-12, atol=1e-15)
        # forward-only taps hold g(L) alone: the last layer's rows, the same bits
        last = batch_taps(net, X, labels, backward=False).flat_grads(net.depth - 1)
        assert np.array_equal(last, full.flat_grads(net.depth - 1))

    @given(st.integers(0, 2 ** 16), st.lists(st.sampled_from(ALL_ACTS), min_size=0, max_size=2),
           st.integers(1, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_backward_chain_on_kept_rows_matches_full_pass(self, seed, hidden_acts, batch, data):
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(1, 7, size=len(hidden_acts) + 1)] + [3]
        net = seeded_net(dims, hidden_acts + ["linear"], seed=seed)
        X = rng.normal(size=(batch, dims[0]))
        labels = rng.integers(3, size=batch)
        forward_only = batch_taps(net, X, labels, backward=False)
        full = batch_taps(net, X, labels, backward=True)
        # act' from the activations gives the bits of act' from s(l)
        for got, want in zip(full.grads, backward_from_pre_activations(net, X, labels)):
            assert np.array_equal(got, want)
        kept = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=batch,
                                                 max_size=batch), label="kept"))
        part = forward_only.rows(kept)
        chained = _chain(net, part.acts, part.grads[-1])
        assert len(chained) == net.depth and all(len(g) == kept.size for g in chained)
        for got, want in zip(chained, full.grads):
            np.testing.assert_allclose(got, want[kept], rtol=1e-12, atol=1e-15)
        for got, want in zip(part.acts, full.acts):
            assert np.array_equal(got, want[kept])

    @pytest.mark.parametrize("X, labels, match", [
        (np.array([[0.0, 1.0], [np.nan, 0.0]]), [0, 1], "non-finite input in row 1"),
        (np.array([[0.0, 1.0], [1.0, np.inf]]), [0, 1], "non-finite input in row 1"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), [0, -1], "label -1 in row 1 out of range"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), [2, 0], "label 2 in row 0 out of range"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), [0.0, 1.0], "integer label"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), [0], "integer label"),
        (np.array([0.0, 1.0]), [0], "input shape"),
        (np.array([[0.0, 1.0, 2.0]]), [0], "input shape"),
    ])
    def test_bad_input_rejected(self, X, labels, match):
        with pytest.raises(ValueError, match=match):
            batch_taps(identity_net(), X, labels, backward=True)


class TestForwardOnly:
    """The forward-only pass that epoch evaluation runs gives the logits of a
    full tap pass over the same rows, bit for bit."""

    @pytest.mark.parametrize("act", ALL_ACTS)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 2, 5, 16, 37])
    def test_logits_match_the_tap_pass(self, act, depth, batch):
        dims = [5, 12, 7, 4][:depth] + [3]
        net = seeded_net(dims, [act] * (depth - 1) + ["linear"], seed=depth * 10 + batch)
        rng = np.random.default_rng(batch)
        X, labels = 3.0 * rng.normal(size=(batch, 5))[:, :dims[0]], rng.integers(3, size=batch)
        got = _logits(net, X)
        for backward in (False, True):
            assert np.array_equal(got, batch_taps(net, X, labels, backward).logits)
            assert np.array_equal(got, _taps(net, augment(X), labels, backward).logits)

    def test_non_finite_logits_raise_with_the_tap_pass_message(self):
        spec = LayerSpec(2, 2, Activation.LINEAR)
        net = MLP(layers=[Layer(np.full((2, 2), 1e200), np.zeros(2), spec)])
        X, labels = np.array([[1.0, 0.0], [1e200, 1e200]]), np.array([0, 1])
        with np.errstate(over="ignore"), pytest.raises(ValueError) as want:
            batch_taps(net, X, labels, backward=False)
        with np.errstate(over="ignore"), pytest.raises(ValueError) as got:
            _logits(net, X)
        assert str(got.value) == str(want.value) == "non-finite logits"

    @given(st.integers(0, 2 ** 16), st.integers(1, 12), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_of_a_mask_and_of_its_index_array_agree(self, seed, batch, backward, data):
        rng = np.random.default_rng(seed)
        net = seeded_net([3, 6, 4, 3], ["tanh", "relu", "linear"], seed=seed)
        taps = batch_taps(net, rng.normal(size=(batch, 3)), rng.integers(3, size=batch),
                          backward)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=batch, max_size=batch),
                                  label="mask"))
        by_mask, by_index = taps.rows(mask), taps.rows(np.flatnonzero(mask))
        for blocks in ("acts", "grads"):
            for got, want, whole in zip(getattr(by_mask, blocks), getattr(by_index, blocks),
                                        getattr(taps, blocks)):
                assert np.array_equal(got, want) and np.array_equal(got, whole[mask])
        for block in ("losses", "logits"):
            got, want = getattr(by_mask, block), getattr(by_index, block)
            assert np.array_equal(got, want) and np.array_equal(got, getattr(taps, block)[mask])
