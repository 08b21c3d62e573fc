"""Per-sample reference forms of the scorers and diagnostics in layerval.influence.

Each function works on one pair of taps from network.evaluate_sample at a
time and returns plain floats with the influence sign (leading minus:
negative means beneficial). Tests compare the batched, shipped forms
(influence.pair_matrix, bound_diagnostics, variance_diagnostic) against them.
backward_from_pre_activations is the batched backward pass with act' taken
from the pre-activations s(l), the form network._chain (which takes it
from the activations) must reproduce bit for bit. shapley_mc is the
antithetic Monte-Carlo Shapley estimate with its prefixes deduplicated as a
bool (draws, n, n) tensor keyed by packbits, which oracle.shapley_mc's
bitmask codes must reproduce bit for bit; plain_shapley_mc is the same
machinery over independently drawn orderings, the sampler oracle.shapley_mc
replaced, kept to measure the paired draw's accuracy. utilities_stacked is
the coalition block loop with feature-major (m, C, V) logits and the
softmax reduced over their middle class axis, whose bits
oracle.UtilityFn.utilities (class-major logits) must reproduce for two or
more validation rows (with one row and eight or more classes numpy sums
this layout's classes pairwise, and UtilityFn in class order). generate_blobs and inject_label_noise
are the data generator one sample at a time, whose columns data's block
draws must reproduce bit for bit. shapley_exact (2^n subset enumeration) and
loo_influence (one-step leave-one-out) are exact references of the one-step
game that no command needs.
"""

import itertools
import math

import numpy as np

from layerval.data import Sample
from layerval.influence import BoundReport, PairSimilarities, pair_similarities
from layerval.network import (MLP, Activation, ParamGrads, SampleTaps, _apply_activation,
                              batch_taps, evaluate_sample)
from layerval.oracle import ShapleyEstimate, UtilityFn


def generate_blobs(num_classes: int, per_class: int, feature_dim: int,
                   spread: float, seed: int) -> list[Sample]:
    """data.generate_blobs, one normal draw per sample."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(num_classes, feature_dim))
    samples = []
    for c in range(num_classes):
        for _ in range(per_class):
            x = centers[c] + spread * rng.normal(0.0, 1.0, size=feature_dim)
            samples.append(Sample(id=len(samples), features=x, label=c))
    return samples


def inject_label_noise(samples: list[Sample], flip_rate: float, num_classes: int,
                       seed: int) -> list[Sample]:
    """data.inject_label_noise, one offset draw per flipped sample in row order."""
    rng = np.random.default_rng(seed)
    n_flip = int(math.floor(flip_rate * len(samples)))
    flip_idx = set(rng.choice(len(samples), size=n_flip, replace=False).tolist()) if n_flip else set()
    out = []
    for i, s in enumerate(samples):
        if i in flip_idx:
            offset = int(rng.integers(1, num_classes))
            out.append(Sample(s.id, s.features, (s.label + offset) % num_classes, noisy=True))
        else:
            out.append(Sample(s.id, s.features, s.label, noisy=False))
    return out


def _act_and_derivative(kind: Activation, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """act(s) and act'(s), both from s."""
    if kind is Activation.RELU:
        return np.maximum(s, 0.0), (s > 0.0).astype(np.float64)
    if kind is Activation.TANH:
        t = np.tanh(s)
        return t, 1.0 - t * t
    return s, np.ones_like(s)


def backward_from_pre_activations(net: MLP, X: np.ndarray, labels) -> list[np.ndarray]:
    """g(l) of every layer for the rows of X, with act'(s) computed from s itself."""
    a, derivs = np.asarray(X, dtype=np.float64), []
    for layer in net.layers:
        a, d = _act_and_derivative(layer.spec.activation, a @ layer.weights.T + layer.bias)
        derivs.append(d)
    grads = [batch_taps(net, X, labels, backward=False).grads[-1]]
    for l in range(net.depth - 1, 0, -1):
        grads.insert(0, (grads[0] @ net.layers[l].weights) * derivs[l - 1])
    return grads


def ip_influence(pg_z: ParamGrads, pg_j: ParamGrads) -> float:
    """Full-parameter gradient inner product, negated."""
    if len(pg_z.weight_grads) != len(pg_j.weight_grads):
        raise ValueError("gradient structures differ in depth")
    total = 0.0
    for wz, wj, bz, bj in zip(pg_z.weight_grads, pg_j.weight_grads,
                              pg_z.bias_grads, pg_j.bias_grads):
        if wz.shape != wj.shape:
            raise ValueError("gradient shape mismatch")
        total += float(np.dot(wz.ravel(), wj.ravel())) + float(np.dot(bz, bj))
    return -total


def ghost_influence(sims: PairSimilarities) -> float:
    """Layerwise decomposition: -sum_l alpha(l) beta(l)."""
    return -float(np.dot(sims.alpha, sims.beta))


def lai_influence(sims: PairSimilarities) -> float:
    """Layer-aware estimator: -(sum_l alpha(l)) * beta(L)."""
    return -float(sims.alpha.sum() * sims.beta[-1])


def lli_influence(sims: PairSimilarities) -> float:
    """Last-layer-only estimator: -alpha(L) * beta(L)."""
    return -float(sims.alpha[-1] * sims.beta[-1])


def preconditioned_score(gl_z: np.ndarray, gl_j: np.ndarray, sims: PairSimilarities,
                         diag: np.ndarray) -> float:
    """LAI with the output-gradient similarity taken in the D^(-1/2) space, D = diag."""
    if np.any(diag <= 0.0):
        raise ValueError("preconditioner entries must be > 0")
    beta_tilde = float(np.dot(gl_z / np.sqrt(diag), gl_j / np.sqrt(diag)))
    return -float(sims.alpha.sum() * beta_tilde)


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v)) / (nu * nv)


def bound_diagnostics(pairs: list[tuple[SampleTaps, SampleTaps]]) -> BoundReport:
    """influence.bound_diagnostics, one (z, j) pair of completed taps at a time."""
    if not pairs:
        raise ValueError("need at least one pair of taps")
    depth = len(pairs[0][0].layer_grads)
    rho_hat = 0.0
    ca_hat = 0.0
    alpha_bar = math.inf
    betas_nonneg = True
    alignment_monotone = True
    ghost_total = 0.0
    lai_total = 0.0
    for taps_z, taps_j in pairs:
        if not (taps_z.complete and taps_j.complete):
            raise ValueError("all taps must be complete")
        for taps in (taps_z, taps_j):
            gl_norm = float(np.linalg.norm(taps.layer_grads[-1]))
            for l in range(depth - 1):
                if gl_norm > 0.0:
                    ratio = float(np.linalg.norm(taps.layer_grads[l])) / gl_norm
                    rho_hat = max(rho_hat, ratio ** (1.0 / (depth - 1 - l)))
            for a in taps.activations:
                ca_hat = max(ca_hat, float(np.linalg.norm(np.append(a, 1.0))))
        sims = pair_similarities(taps_z, taps_j)
        alpha_bar = min(alpha_bar, float(sims.alpha[-1]))
        if np.any(sims.beta < 0.0):
            betas_nonneg = False
        cosines = [_cosine(taps_z.layer_grads[l], taps_j.layer_grads[l]) for l in range(depth)]
        for l in range(depth - 1):
            if cosines[l] > cosines[l + 1] + 1e-12:
                alignment_monotone = False
        ghost_total += ghost_influence(sims)
        lai_total += lai_influence(sims)
    assumptions_hold = (rho_hat < 1.0 and alpha_bar > 0.0
                        and betas_nonneg and alignment_monotone)
    if lai_total == 0.0:
        measured = None
    else:
        measured = abs(ghost_total - lai_total) / abs(lai_total)
    if depth == 1:
        bound = 0.0
    elif alpha_bar > 0.0:
        bound = (ca_hat ** 2 / alpha_bar) * sum(rho_hat ** (2 * l) for l in range(1, depth))
    else:
        bound = math.inf
    return BoundReport(rho_hat=rho_hat, ca_hat=ca_hat,
                       alpha_bar=alpha_bar if math.isfinite(alpha_bar) else 0.0,
                       measured_rel_gap=measured, bound_value=bound,
                       assumptions_hold=assumptions_hold, depth=depth)


def variance_diagnostic(net: MLP, probe_pair, val_pool, resamples: int,
                        subset_size: int, seed: int) -> tuple[float, float]:
    """influence.variance_diagnostic, one evaluate_sample call per sample; the
    anchor and probe of probe_pair are one-row Splits."""
    if resamples < 2:
        raise ValueError("need at least two resamples for a variance")
    if subset_size > len(val_pool):
        raise ValueError("subset_size exceeds the validation pool")
    if not val_pool:
        raise ValueError("empty validation pool")
    anchor, probe = (rows[0] for rows in probe_pair)
    probe_taps = evaluate_sample(net, probe.features, probe.label)
    anchor_sims = pair_similarities(evaluate_sample(net, anchor.features, anchor.label),
                                    probe_taps)
    ghost_anchor = ghost_influence(anchor_sims)
    lai_anchor = lai_influence(anchor_sims)
    ghost_pool = np.empty(len(val_pool))
    lai_pool = np.empty(len(val_pool))
    for i, z in enumerate(val_pool):
        sims = pair_similarities(evaluate_sample(net, z.features, z.label), probe_taps)
        ghost_pool[i] = ghost_influence(sims)
        lai_pool[i] = lai_influence(sims)
    rng = np.random.default_rng(seed)
    ghost_draws = np.empty(resamples)
    lai_draws = np.empty(resamples)
    for r in range(resamples):
        idx = np.sort(rng.choice(len(val_pool), size=subset_size, replace=False))
        ghost_draws[r] = ghost_anchor + float(ghost_pool[idx].sum())
        lai_draws[r] = lai_anchor + float(lai_pool[idx].sum())
    return float(np.var(ghost_draws, ddof=1)), float(np.var(lai_draws, ddof=1))


def _ordering_marginals(u: UtilityFn, orders: np.ndarray) -> np.ndarray:
    """(draws, n) marginals of each member along each ordering row, with the
    prefixes held as bool rows and deduplicated by packbits."""
    draws, n = orders.shape
    # prefixes[r, k] is the coalition of the first k + 1 members of ordering r
    prefixes = np.zeros((draws, n, n), dtype=bool)
    np.put_along_axis(prefixes, orders[:, :, None], True, axis=2)
    prefixes = np.logical_or.accumulate(prefixes, axis=1).reshape(draws * n, n)
    keys = np.packbits(prefixes, axis=1).view(np.dtype((np.void, (n + 7) // 8))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    v = u.utilities(prefixes[first])[inverse].reshape(draws, n)
    marginals = np.zeros((draws, n))
    np.put_along_axis(marginals, orders, np.diff(v, axis=1, prepend=0.0), axis=1)
    return marginals


def _estimate(means: np.ndarray, draws: int) -> ShapleyEstimate:
    """Mean and stderr over the rows of means (one row per independent draw)."""
    stderr = (means.std(axis=0, ddof=1) / math.sqrt(len(means)) if len(means) >= 2
              else np.zeros(means.shape[1]))
    return ShapleyEstimate(values=means.mean(axis=0), stderr=stderr, permutations_used=draws)


def shapley_mc(u: UtilityFn, permutations: int, seed: int,
               exhaustive: bool = False) -> ShapleyEstimate:
    """oracle.shapley_mc with each ordering's prefixes held as bool rows."""
    n = len(u.batch)
    if exhaustive:
        orders = np.array(list(itertools.permutations(range(n))))
        return _estimate(_ordering_marginals(u, orders), len(orders))
    rng = np.random.default_rng(seed)
    pairs = -(-permutations // 2)
    forward = rng.permuted(np.tile(np.arange(n), (pairs, 1)), axis=1)
    marginals = _ordering_marginals(u, np.concatenate([forward, forward[:, ::-1]]))
    return _estimate((marginals[:pairs] + marginals[pairs:]) / 2, 2 * pairs)


def plain_shapley_mc(u: UtilityFn, permutations: int, seed: int) -> ShapleyEstimate:
    """Monte-Carlo Shapley over `permutations` independent orderings, no reverses."""
    rng = np.random.default_rng(seed)
    orders = rng.permuted(np.tile(np.arange(len(u.batch)), (permutations, 1)), axis=1)
    return _estimate(_ordering_marginals(u, orders), permutations)


def utilities_stacked(u: UtilityFn, masks) -> np.ndarray:
    """UtilityFn.utilities over a vstacked [X^T; 1] with (m, C, V) logits,
    blocks of u.BLOCK coalitions; masks is a valid (m, n) bool matrix."""
    n = len(u.batch)
    V = len(u.val)
    b = min(u.BLOCK, len(masks))
    values = np.zeros(len(masks))
    member = np.ones((b, n + 1))
    layers = u.net.layers
    bufs = [np.ones((b, l.weights.shape[0] + 1, V)) for l in layers[:-1]]
    bufs.append(np.empty((b, u.net.out_dim, V)))
    val_a = np.vstack([u.val.features.T, np.ones((1, V))])
    for start in range(0, len(masks), u.BLOCK):
        m = min(u.BLOCK, len(masks) - start)
        member[:m, 1:] = masks[start:start + m]
        a = val_a
        for l, E, buf in zip(layers, u._weight_rows, bufs):
            out_dim, in_dim = l.weights.shape
            w = np.matmul(member[:m, None, :], E).reshape(m, out_dim, in_dim + 1)
            h = buf[:m]
            np.matmul(w, a, out=h[:, :out_dim])
            if l is not layers[-1]:
                _apply_activation(l.spec.activation, h, out=h)
                h[:, -1] = 1.0
            a = h
        top = a.max(axis=1)
        label = np.einsum("mcv,cv->m", a, u._onehot)
        a -= top[:, None, :]
        np.exp(a, out=a)
        lse = (np.log(a.sum(axis=1)) + top).sum(axis=1)
        values[start:start + m] = u._base_loss - (lse - label) / V
    values[~masks.any(axis=1)] = 0.0
    return values


def shapley_exact(u: UtilityFn) -> ShapleyEstimate:
    """Exact Shapley values of u's batch by 2^n subset enumeration (n <= 10):
    the exact reference of oracle.shapley_mc."""
    n = len(u.batch)
    if n > 10:
        raise ValueError(f"exact enumeration limited to 10 samples, got {n}")
    codes = np.arange(1 << n)
    masks = (codes[:, None] >> np.arange(n) & 1).astype(bool)
    v = u.utilities(masks)
    sizes = masks.sum(axis=1)
    weight = np.array([math.factorial(k) * math.factorial(n - k - 1) / math.factorial(n)
                       for k in range(n)])
    values = np.zeros(n)
    for i in range(n):
        without = codes[~masks[:, i]]
        values[i] = weight[sizes[without]] @ (v[without | 1 << i] - v[without])
    return ShapleyEstimate(values=values, stderr=np.zeros(n), permutations_used=0)


def loo_influence(u: UtilityFn) -> np.ndarray:
    """One-step leave-one-out: v(B) - v(B without i) per member of u's batch B."""
    n = len(u.batch)
    v = u.utilities(np.vstack([np.ones((1, n), dtype=bool), ~np.eye(n, dtype=bool)]))
    return v[0] - v[1:]
