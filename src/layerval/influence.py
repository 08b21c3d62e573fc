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
kind. The formulas carry the classical influence sign (leading minus:
negative means beneficial); pair_matrix returns benefit scores, where
positive means helpful.

Because each per-sample gradient is rank-1 per layer, the scores of every
(z, j) pair of two batches are products of per-layer Gram matrices of the
row-stacked taps; pair_matrix is that batched form and the one scoring path
of the trainer, the fidelity protocol and the diagnostics.

pair_similarities is the per-sample form of alpha and beta. No command calls
it: it stays because the benchmark tracer (perfbench/job.py) binds it by
name, and the tests check the batched scorer against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .network import MLP, BatchTaps, SampleTaps, batch_taps


class Estimator(str, Enum):
    IP = "ip"
    GHOST = "ghost"
    LAI = "lai"
    LLI = "lli"
    PRECOND_LAI = "precond_lai"
    NONE = "none"

    @property
    def full_backward(self) -> bool:
        """Whether scoring reads g(l) of every layer, so needs taps from a full
        backward pass (Ghost, IP); the LAI family reads g(L) only."""
        return self in (Estimator.GHOST, Estimator.IP)


@dataclass
class PairSimilarities:
    alpha: np.ndarray  # (L,) embedding similarities, bias-augmented
    beta: np.ndarray  # (L,) gradient similarities


@dataclass
class BoundReport:
    rho_hat: float
    ca_hat: float
    alpha_bar: float
    measured_rel_gap: float | None  # None when the LAI total is exactly zero
    bound_value: float
    assumptions_hold: bool
    depth: int


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


def pair_matrix(estimator: Estimator, z_taps: BatchTaps, j_taps: BatchTaps,
                precond: np.ndarray | None = None,
                calibrate: bool = False) -> np.ndarray:
    """Benefit-sign scores of every pair: entry [z, j] is minus the influence
    of row j of j_taps on row z of z_taps.

        Ghost        sum_l (A_z A_j^T)(l) * (G_z G_j^T)(l)
        LAI          (sum_l (A_z A_j^T)(l)) * (G_z G_j^T)(L)
        LLI          (A_z A_j^T)(L) * (G_z G_j^T)(L)
        precond_lai  LAI with g(L) scaled by D^(-1/2), D = precond (positive)
        IP           explicit flattened-gradient Gram, the reference for Ghost

    Products of Gram matrices are elementwise. With calibrate=True the LAI-family
    alpha(l) is divided by dim(a~(l-1)); Ghost and IP ignore it. Estimators
    with full_backward need taps from a full backward pass.
    """
    depth = len(z_taps.acts)
    if len(j_taps.acts) != depth:
        raise ValueError("taps come from different architectures")
    if estimator.full_backward and not (z_taps.full and j_taps.full):
        raise ValueError(f"{estimator.value} scoring needs taps from a full backward pass")
    if estimator is Estimator.IP:
        return sum(z_taps.flat_grads(l) @ j_taps.flat_grads(l).T for l in range(depth))
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
            raise ValueError("preconditioned scoring needs a preconditioner diagonal")
        scale = 1.0 / np.sqrt(precond)
        gz, gj = gz * scale, gj * scale
    return alpha * (gz @ gj.T)


def update_preconditioner(diag: np.ndarray, output_grads: np.ndarray, decay: float,
                          floor: float) -> np.ndarray:
    """The precond_lai EMA step over a g(L) block, one row per sample:
    D <- max(decay*D + (1-decay)*mean(g_L^2), floor)."""
    if not len(output_grads):
        raise ValueError("empty output-gradient batch")
    return np.maximum(decay * diag + (1.0 - decay) * np.mean(output_grads ** 2, axis=0), floor)


def bound_diagnostics(z_taps: BatchTaps, j_taps: BatchTaps) -> BoundReport:
    """Measure the Ghost-vs-LAI gap against its geometric depth bound over the
    pairs (row i of z_taps, row i of j_taps), taken from full backward passes.

    rho_hat is the smallest decay rate consistent with the recorded gradient
    norms; ca_hat the largest augmented-activation norm; alpha_bar the
    smallest last-layer embedding similarity over the pairs. The bound

        (ca_hat^2 / alpha_bar) * sum_{l=1..L-1} rho_hat^(2l)

    dominates |Ghost - LAI| / |LAI| when the decay/positivity/alignment
    assumptions hold; assumptions_hold records whether they did here. The
    Ghost and LAI totals are the traces of pair_matrix.
    """
    if not len(z_taps) or len(z_taps) != len(j_taps):
        raise ValueError(f"need one j row per z row and at least one pair, "
                         f"got {len(z_taps)} and {len(j_taps)}")
    ghost_total = -float(np.trace(pair_matrix(Estimator.GHOST, z_taps, j_taps)))
    lai_total = -float(np.trace(pair_matrix(Estimator.LAI, z_taps, j_taps)))
    depth = len(z_taps.grads)
    # per-layer gradient norms and similarities of each pair, shape (L, pairs)
    norms_z = np.array([np.linalg.norm(g, axis=1) for g in z_taps.grads])
    norms_j = np.array([np.linalg.norm(g, axis=1) for g in j_taps.grads])
    beta = np.array([np.einsum("ij,ij->i", gz, gj)
                     for gz, gj in zip(z_taps.grads, j_taps.grads)])
    rho_hat = 0.0
    exponents = 1.0 / np.arange(depth - 1, 0, -1)[:, None]  # 1/(L-1-l) for l < L-1
    for norms in (norms_z, norms_j):
        live = norms[-1] > 0.0
        ratios = norms[:-1, live] / norms[-1, live]
        rho_hat = max(rho_hat, float(np.max(ratios ** exponents, initial=0.0)))
    ca_hat = max(float(np.linalg.norm(a, axis=1).max())
                 for a in (*z_taps.acts, *j_taps.acts))
    alpha_bar = float(np.einsum("ij,ij->i", z_taps.acts[-1], j_taps.acts[-1]).min())
    norm_products = norms_z * norms_j
    cosines = np.divide(beta, norm_products, out=np.zeros_like(beta),
                        where=norm_products > 0.0)
    alignment_monotone = not np.any(cosines[:-1] > cosines[1:] + 1e-12)
    assumptions_hold = (rho_hat < 1.0 and alpha_bar > 0.0
                        and not np.any(beta < 0.0) and alignment_monotone)
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
        alpha_bar=alpha_bar,
        measured_rel_gap=measured,
        bound_value=bound,
        assumptions_hold=assumptions_hold,
        depth=depth,
    )


def variance_diagnostic(net: MLP, probe_pair, val_pool, resamples: int,
                        subset_size: int, seed: int) -> tuple[float, float]:
    """Spread of Ghost vs LAI totals under random validation subsets.

    probe_pair is (anchor, probe), two one-row Splits. The anchor's score
    against the probe enters every draw (a constant shift); each of
    `resamples` draws adds a size-`subset_size` subset of the pool and the
    Ghost/LAI totals are recorded. Returns the two sample variances. The
    scores against the probe come from one batched pass over the anchor and
    the pool and one over the probe.
    """
    if resamples < 2:
        raise ValueError("need at least two resamples for a variance")
    if subset_size > len(val_pool):
        raise ValueError("subset_size exceeds the validation pool")
    if not val_pool:
        raise ValueError("empty validation pool")
    anchor, probe = probe_pair
    if len(anchor) != 1 or len(probe) != 1:
        raise ValueError("anchor and probe must be one row each")
    z_taps = batch_taps(net, np.vstack([anchor.features, val_pool.features]),
                        np.append(anchor.labels, val_pool.labels), backward=True)
    j_taps = batch_taps(net, probe.features, probe.labels, backward=True)
    # influence sign: column 0 holds every row's score against the probe
    ghost = -pair_matrix(Estimator.GHOST, z_taps, j_taps)[:, 0]
    lai = -pair_matrix(Estimator.LAI, z_taps, j_taps)[:, 0]
    rng = np.random.default_rng(seed)
    ghost_draws = np.empty(resamples)
    lai_draws = np.empty(resamples)
    for r in range(resamples):
        idx = 1 + np.sort(rng.choice(len(val_pool), size=subset_size, replace=False))
        ghost_draws[r] = ghost[0] + float(ghost[idx].sum())
        lai_draws[r] = lai[0] + float(lai[idx].sum())
    return float(np.var(ghost_draws, ddof=1)), float(np.var(lai_draws, ddof=1))
