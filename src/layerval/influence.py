"""Gradient inner-product influence estimators and their diagnostics.

All four estimators value a training sample j against a validation sample z
through per-layer similarities of the recorded taps:

    alpha(l) = <a~_z(l-1), a~_j(l-1)>      (a~ = activation with a 1 appended)
    beta(l)  = <g_z(l), g_j(l)>

    IP     = -sum_l ( <dW_z(l), dW_j(l)> + <db_z(l), db_j(l)> )
    Ghost  = -sum_l alpha(l) * beta(l)
    LAI    = -( sum_l alpha(l) ) * beta(L)
    LLI    = -alpha(L) * beta(L)

The bias augmentation makes alpha(l)*beta(l) equal the weight+bias gradient
inner product at layer l exactly, so Ghost reproduces IP for any activation
kind. Scores carry the classical influence sign (leading minus: negative means
beneficial); negate them for benefit scores where positive means helpful.

Because each per-sample gradient is rank-1 per layer, the scores of every
(z, j) pair of two batches are products of per-layer Gram matrices of the
row-stacked taps; pair_matrix is that batched form and the one scoring path
of the trainer and the fidelity protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .network import MLP, BatchTaps, ParamGrads, SampleTaps, evaluate_sample


class Estimator(str, Enum):
    IP = "ip"
    GHOST = "ghost"
    LAI = "lai"
    LLI = "lli"
    PRECOND_LAI = "precond_lai"
    NONE = "none"


class SignConvention(str, Enum):
    INFLUENCE = "influence"  # leading minus: negative means beneficial
    BENEFIT = "benefit"  # positive means beneficial


@dataclass(frozen=True)
class InfluenceScore:
    value: float
    estimator: Estimator
    convention: SignConvention = SignConvention.INFLUENCE

    def to_benefit(self) -> "InfluenceScore":
        if self.convention is SignConvention.BENEFIT:
            return self
        return InfluenceScore(-self.value, self.estimator, SignConvention.BENEFIT)


@dataclass
class PairSimilarities:
    alpha: np.ndarray  # (L,) embedding similarities, bias-augmented
    beta: np.ndarray  # (L,) gradient similarities

    @property
    def depth(self) -> int:
        return self.alpha.shape[0]


@dataclass
class Preconditioner:
    """Diagonal EMA of squared output-gradient coordinates, floored away from zero."""

    diag: np.ndarray
    decay: float = 0.9
    floor: float = 1e-8

    def __post_init__(self):
        self.diag = np.maximum(np.asarray(self.diag, dtype=np.float64), self.floor)

    @staticmethod
    def identity(dim: int, decay: float = 0.9, floor: float = 1e-8) -> "Preconditioner":
        return Preconditioner(np.ones(dim), decay=decay, floor=floor)


@dataclass
class BoundReport:
    rho_hat: float
    ca_hat: float
    alpha_bar: float
    measured_rel_gap: float | None  # None when the LAI total is exactly zero
    bound_value: float
    assumptions_hold: bool
    depth: int


def augmented(activation: np.ndarray) -> np.ndarray:
    """Activation vector with a constant 1 appended (absorbs the bias column)."""
    return np.concatenate([activation, [1.0]])


def pair_similarities(taps_z: SampleTaps, taps_j: SampleTaps,
                      calibrate: bool = False) -> PairSimilarities:
    """Per-layer embedding and gradient similarities of two completed taps.

    With calibrate=True each alpha(l) is divided by dim(a~(l-1)), a scale
    normalization across layers of unequal width. Off by default.
    """
    if not (taps_z.complete and taps_j.complete):
        raise ValueError("both taps must be completed by backward_taps")
    if len(taps_z.activations) != len(taps_j.activations):
        raise ValueError("taps come from different architectures")
    depth = len(taps_z.layer_grads)
    alpha = np.empty(depth)
    beta = np.empty(depth)
    for l in range(depth):
        az, aj = taps_z.activations[l], taps_j.activations[l]
        if az.shape != aj.shape or taps_z.layer_grads[l].shape != taps_j.layer_grads[l].shape:
            raise ValueError(f"layer {l + 1}: shape mismatch between taps")
        alpha[l] = float(np.dot(az, aj)) + 1.0  # augmented coordinate contributes 1*1
        if calibrate:
            alpha[l] /= az.shape[0] + 1
        beta[l] = float(np.dot(taps_z.layer_grads[l], taps_j.layer_grads[l]))
    return PairSimilarities(alpha=alpha, beta=beta)


def ip_influence(pg_z: ParamGrads, pg_j: ParamGrads) -> InfluenceScore:
    """Full-parameter gradient inner product, negated."""
    if len(pg_z.weight_grads) != len(pg_j.weight_grads):
        raise ValueError("gradient structures differ in depth")
    total = 0.0
    for wz, wj, bz, bj in zip(pg_z.weight_grads, pg_j.weight_grads,
                              pg_z.bias_grads, pg_j.bias_grads):
        if wz.shape != wj.shape:
            raise ValueError("gradient shape mismatch")
        total += float(np.dot(wz.ravel(), wj.ravel())) + float(np.dot(bz, bj))
    return InfluenceScore(-total, Estimator.IP)


def ghost_influence(sims: PairSimilarities) -> InfluenceScore:
    """Layerwise decomposition: -sum_l alpha(l) beta(l)."""
    return InfluenceScore(-float(np.dot(sims.alpha, sims.beta)), Estimator.GHOST)


def lai_influence(sims: PairSimilarities) -> InfluenceScore:
    """Layer-aware estimator: -(sum_l alpha(l)) * beta(L)."""
    return InfluenceScore(-float(sims.alpha.sum() * sims.beta[-1]), Estimator.LAI)


def lli_influence(sims: PairSimilarities) -> InfluenceScore:
    """Last-layer-only estimator: -alpha(L) * beta(L)."""
    return InfluenceScore(-float(sims.alpha[-1] * sims.beta[-1]), Estimator.LLI)


def preconditioned_score(gl_z: np.ndarray, gl_j: np.ndarray, sims: PairSimilarities,
                         precond: Preconditioner) -> InfluenceScore:
    """LAI with the output-gradient similarity taken in the D^(-1/2) space."""
    if np.any(precond.diag < precond.floor) or np.any(precond.diag <= 0.0):
        raise ValueError("preconditioner entries must be >= floor > 0")
    beta_tilde = float(np.dot(gl_z / np.sqrt(precond.diag), gl_j / np.sqrt(precond.diag)))
    return InfluenceScore(-float(sims.alpha.sum() * beta_tilde), Estimator.PRECOND_LAI)


def _flat_grads(taps: BatchTaps, l: int) -> np.ndarray:
    """Row-stacked flattened layer-l gradients [dW(l), db(l)] = g(l) [a(l-1), 1]^T."""
    g, a = taps.grads[l], taps.acts[l]
    return (g[:, :, None] * a[:, None, :]).reshape(taps.size, -1)


def pair_matrix(estimator: Estimator, z_taps: BatchTaps, j_taps: BatchTaps,
                precond: Preconditioner | None = None,
                calibrate: bool = False) -> np.ndarray:
    """Benefit-sign scores of every pair: entry [z, j] is minus the influence
    of row j of j_taps on row z of z_taps.

        Ghost        sum_l (A_z A_j^T)(l) * (G_z G_j^T)(l)
        LAI          (sum_l (A_z A_j^T)(l)) * (G_z G_j^T)(L)
        LLI          (A_z A_j^T)(L) * (G_z G_j^T)(L)
        precond_lai  LAI with g(L) scaled by D^(-1/2)
        IP           explicit flattened-gradient Gram, the reference for Ghost

    Products of Gram matrices are elementwise. With calibrate=True the LAI-family
    alpha(l) is divided by dim(a~(l-1)); Ghost and IP ignore it. Ghost and
    IP need taps from a full backward pass.
    """
    depth = len(z_taps.acts)
    if len(j_taps.acts) != depth:
        raise ValueError("taps come from different architectures")
    if estimator in (Estimator.GHOST, Estimator.IP) and not (z_taps.full and j_taps.full):
        raise ValueError(f"{estimator.value} scoring needs taps from a full backward pass")
    if estimator is Estimator.IP:
        return sum(_flat_grads(z_taps, l) @ _flat_grads(j_taps, l).T for l in range(depth))
    if estimator is Estimator.GHOST:
        return sum((az @ aj.T) * (gz @ gj.T) for az, aj, gz, gj in
                   zip(z_taps.acts, j_taps.acts, z_taps.grads, j_taps.grads))
    if estimator not in (Estimator.LAI, Estimator.LLI, Estimator.PRECOND_LAI):
        raise ValueError(f"no pair scores for estimator {estimator.value}")
    layers = [depth - 1] if estimator is Estimator.LLI else range(depth)
    alpha = sum(z_taps.acts[l] @ j_taps.acts[l].T
                / (z_taps.acts[l].shape[1] if calibrate else 1) for l in layers)
    gz, gj = z_taps.grads[-1], j_taps.grads[-1]
    if estimator is Estimator.PRECOND_LAI:
        if precond is None:
            raise ValueError("preconditioned scoring needs a Preconditioner")
        scale = 1.0 / np.sqrt(precond.diag)
        gz, gj = gz * scale, gj * scale
    return alpha * (gz @ gj.T)


def aggregate_over_validation(scores: list[InfluenceScore]) -> InfluenceScore:
    """Sum per-pair scores of a single estimator/convention.

    Uses math.fsum, so the result is independent of the list order.
    """
    if not scores:
        raise ValueError("cannot aggregate an empty score list")
    estimator = scores[0].estimator
    convention = scores[0].convention
    for s in scores[1:]:
        if s.estimator is not estimator or s.convention is not convention:
            raise ValueError("cannot aggregate scores of mixed estimators or conventions")
    return InfluenceScore(math.fsum(s.value for s in scores), estimator, convention)


def update_preconditioner(precond: Preconditioner, output_grads) -> Preconditioner:
    """EMA step: D <- decay*D + (1-decay)*mean(g_L^2), floored.

    output_grads holds one g(L) per row (an array or a list of vectors).
    """
    if len(output_grads) == 0:
        raise ValueError("empty output-gradient batch")
    sq = np.mean(np.asarray(output_grads, dtype=np.float64) ** 2, axis=0)
    diag = precond.decay * precond.diag + (1.0 - precond.decay) * sq
    return Preconditioner(np.maximum(diag, precond.floor), precond.decay, precond.floor)


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v)) / (nu * nv)


def bound_diagnostics(pairs: list[tuple[SampleTaps, SampleTaps]]) -> BoundReport:
    """Measure the Ghost-vs-LAI gap against its geometric depth bound.

    rho_hat is the smallest decay rate consistent with the recorded gradient
    norms; ca_hat the largest augmented-activation norm; alpha_bar the
    smallest last-layer embedding similarity over the pairs. The bound

        (ca_hat^2 / alpha_bar) * sum_{l=1..L-1} rho_hat^(2l)

    dominates |Ghost - LAI| / |LAI| when the decay/positivity/alignment
    assumptions hold; assumptions_hold records whether they did here.
    """
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
                ca_hat = max(ca_hat, float(np.linalg.norm(augmented(a))))
        sims = pair_similarities(taps_z, taps_j)
        alpha_bar = min(alpha_bar, float(sims.alpha[-1]))
        if np.any(sims.beta < 0.0):
            betas_nonneg = False
        cosines = [_cosine(taps_z.layer_grads[l], taps_j.layer_grads[l]) for l in range(depth)]
        for l in range(depth - 1):
            if cosines[l] > cosines[l + 1] + 1e-12:
                alignment_monotone = False
        ghost_total += ghost_influence(sims).value
        lai_total += lai_influence(sims).value
    assumptions_hold = (rho_hat < 1.0 and alpha_bar > 0.0
                        and betas_nonneg and alignment_monotone)
    if lai_total == 0.0:
        measured = None
    else:
        measured = abs(ghost_total - lai_total) / abs(lai_total)
    if depth == 1:
        bound = 0.0  # the depth sum is empty: Ghost and LAI coincide
    elif alpha_bar > 0.0:
        bound = (ca_hat ** 2 / alpha_bar) * sum(rho_hat ** (2 * l) for l in range(1, depth))
    else:
        bound = math.inf  # vacuous: the bound needs alpha_bar > 0
    return BoundReport(
        rho_hat=rho_hat,
        ca_hat=ca_hat,
        alpha_bar=alpha_bar if math.isfinite(alpha_bar) else 0.0,
        measured_rel_gap=measured,
        bound_value=bound,
        assumptions_hold=assumptions_hold,
        depth=depth,
    )


def variance_diagnostic(net: MLP, probe_pair, val_pool, resamples: int,
                        subset_size: int, seed: int) -> tuple[float, float]:
    """Spread of Ghost vs LAI totals under random validation subsets.

    The probe pair's own score enters every draw (a constant shift); each
    of `resamples` draws adds a size-`subset_size` subset of the pool and
    the Ghost/LAI totals are recorded. Returns the two sample variances.
    """
    if resamples < 2:
        raise ValueError("need at least two resamples for a variance")
    if subset_size > len(val_pool):
        raise ValueError("subset_size exceeds the validation pool")
    if not val_pool:
        raise ValueError("empty validation pool")
    anchor, probe = probe_pair
    probe_taps = evaluate_sample(net, probe.features, probe.label)
    anchor_sims = pair_similarities(evaluate_sample(net, anchor.features, anchor.label), probe_taps)
    ghost_anchor = ghost_influence(anchor_sims).value
    lai_anchor = lai_influence(anchor_sims).value
    # per-pair scores against the pool are fixed by the frozen net: compute once
    ghost_pool = np.empty(len(val_pool))
    lai_pool = np.empty(len(val_pool))
    for i, z in enumerate(val_pool):
        sims = pair_similarities(evaluate_sample(net, z.features, z.label), probe_taps)
        ghost_pool[i] = ghost_influence(sims).value
        lai_pool[i] = lai_influence(sims).value
    rng = np.random.default_rng(seed)
    ghost_draws = np.empty(resamples)
    lai_draws = np.empty(resamples)
    for r in range(resamples):
        idx = np.sort(rng.choice(len(val_pool), size=subset_size, replace=False))
        ghost_draws[r] = ghost_anchor + float(ghost_pool[idx].sum())
        lai_draws[r] = lai_anchor + float(lai_pool[idx].sum())
    return float(np.var(ghost_draws, ddof=1)), float(np.var(lai_draws, ddof=1))
