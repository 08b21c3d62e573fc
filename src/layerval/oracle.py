"""Ground-truth valuation reference: one-step utilities and Monte-Carlo Shapley values.

The value of a subset S of a batch is the validation-loss decrease produced
by one SGD step from the frozen checkpoint along the subset's summed gradient:

    v(S) = loss_val(theta) - loss_val(theta - eta * sum_{i in S} grad_i),   v({}) = 0

The step is additive in subset members, so a zero-gradient sample is a null
player exactly: it leaves every coalition's step unchanged.

Shapley values of this game are the fidelity reference the influence
estimators are correlated against, estimated by Monte-Carlo sampling of
antithetic pairs of orderings (exhaustive over every ordering up to
EXHAUSTIVE_MAX members). A game (UtilityFn) is built on its checkpoint, the
validation rows and the batch, both data.Split records, and stays bound to
that batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import Split
from .network import MLP, Activation, _apply_activation, batch_taps


EXHAUSTIVE_MAX = 8  # n! orderings, each with n prefixes, are held at once


@dataclass
class ShapleyEstimate:
    values: np.ndarray
    stderr: np.ndarray
    permutations_used: int  # 0 marks exact subset enumeration


class UtilityFn:
    """One-step validation-loss-decrease game over a frozen checkpoint.

    A coalition's step is rank-1 per member and layer: with D_l[i] the flat
    g_l(i) (x) a~_l(i) (the batch's BatchTaps.flat_grads rows), a
    coalition's flat weights [W|b] - eta * sum_{i in S} D_l[i] are the
    product of the row [1, M] (M its 0/1 membership) with
    E_l = [ravel([W|b]); -eta * D_l].
    Coalitions are evaluated in blocks of BLOCK: one stacked (1, n+1) @ E_l
    product per coalition gives its weights. The validation rows enter as a
    C-contiguous [X^T; 1] and hidden activations are (b, out+1, V) with a ones
    row, so each layer's W a + b is one stacked matmul into a buffer reused by
    every block, activated by one pass over the whole buffer; the logits are
    class-major (C, b, V), so the softmax reduces over a leading class axis.
    Evaluations are pure: the frozen parameters are never mutated. The game
    is bound to its batch when it is built and keeps its two full passes:
    val_taps of the validation rows (their mean loss is the base loss) and
    bound_taps of the batch.
    """

    # coalitions per block; utilities over the 20 checkpoints of configs/fidelity.json
    # at seed 0 (24,794 coalitions, 50 antithetic pairs each), 2-core host, one
    # BLAS thread, median of 10: 16 -> 0.104 s, 32 -> 0.083, 64 -> 0.075,
    # 96 -> 0.070, 128 -> 0.074, 256 -> 0.083. 64 to 128 lie within the
    # spread of repeated sweeps (up to 15%); every size gives the same bits.
    BLOCK = 64

    def __init__(self, net: MLP, val: Split, batch: Split, learning_rate: float):
        if learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if not val:
            raise ValueError("validation set must be nonempty")
        self.net = net.copy()
        self.learning_rate = learning_rate
        self.val = val
        self.val_taps = batch_taps(self.net, val.features, val.labels, backward=True)
        self._base_loss = float(self.val_taps.losses.mean())
        # [X^T; 1], C-contiguous: the first layer's bias rides in its matmul
        self._val_a = np.ascontiguousarray(self.val_taps.acts[0].T)
        self._onehot = (np.arange(self.net.out_dim)[:, None] == val.labels).astype(np.float64)
        self.bind_batch(batch)

    def bind_batch(self, batch: Split) -> None:
        """Keep the batch's full pass as bound_taps and build weight rows E_l for subsets;
        only __init__ calls it (public for the tracer in perfbench/job.py)."""
        if not batch:
            raise ValueError("empty batch")
        self.bound_taps = batch_taps(self.net, batch.features, batch.labels, backward=True)
        eta = self.learning_rate
        self._weight_rows = [
            np.vstack([l.params.ravel(), -eta * self.bound_taps.flat_grads(i)])
            for i, l in enumerate(self.net.layers)]
        self.batch = batch

    def utilities(self, masks: np.ndarray) -> np.ndarray:
        """v(S) for every row of an (m, n) boolean membership matrix over the batch."""
        n = len(self.batch)
        masks = np.asarray(masks)
        if masks.dtype != bool or masks.ndim != 2 or masks.shape[1] != n:
            raise ValueError(f"need an (m, {n}) boolean membership matrix, "
                             f"got {masks.dtype} {masks.shape}")
        V = len(self.val)
        b = min(self.BLOCK, len(masks))
        values = np.zeros(len(masks))
        member = np.ones((b, n + 1))  # [1, M]: column 0 picks the frozen weights
        # buffers reused by every block (no per-block ~0.5 MB mmap churn); a
        # hidden layer's last row stays 1 and carries the next layer's bias
        layers = self.net.layers
        bufs = [np.ones((b, l.weights.shape[0] + 1, V)) for l in layers[:-1]]
        bufs.append(np.empty((self.net.out_dim, b, V)))  # class-major logits
        for start in range(0, len(masks), self.BLOCK):
            m = min(self.BLOCK, len(masks) - start)
            member[:m, 1:] = masks[start:start + m]
            a = self._val_a
            for l, E, buf in zip(layers, self._weight_rows, bufs):
                out_dim, in_dim = l.weights.shape
                # one (1, n+1) @ E_l product per coalition, not a GEMM over the
                # block: a row's bits must not depend on the block it lands in
                w = np.matmul(member[:m, None, :], E).reshape(m, out_dim, in_dim + 1)
                if l is layers[-1]:
                    z = buf[:, :m]
                    np.matmul(w, a, out=z.transpose(1, 0, 2))
                    break
                h = buf[:m]
                np.matmul(w, a, out=h[:, :out_dim])
                # one pass over the whole contiguous buffer; relu keeps the ones row
                _apply_activation(l.spec.activation, h, out=h)
                if l.spec.activation is not Activation.RELU:
                    h[:, -1] = 1.0
                a = h
            # einsum sums in memory order: each row reads its own contiguous (C, V)
            label = np.einsum("mcv,cv->m", np.ascontiguousarray(z.transpose(1, 0, 2)),
                              self._onehot)
            # over a leading axis numpy adds (m, V) planes in class order, not pairwise
            top = z.max(axis=0)
            z -= top
            np.exp(z, out=z)
            lse = (np.log(z.sum(axis=0)) + top).sum(axis=1)
            values[start:start + m] = self._base_loss - (lse - label) / V
        values[~masks.any(axis=1)] = 0.0
        return values

    def utility_of_mask(self, mask: int) -> float:
        """v(S) for the subset encoded as a bitmask over batch positions."""
        n = len(self.batch)
        if not 0 <= mask < 1 << n:
            raise ValueError(f"mask {mask:#x} has bits outside the {n}-sample batch")
        return float(self.utilities(np.array([[mask >> i & 1 for i in range(n)]], dtype=bool))[0])


def shapley_mc(u: UtilityFn, permutations: int, seed: int,
               exhaustive: bool = False) -> ShapleyEstimate:
    """Monte-Carlo permutation Shapley of u's batch over antithetic pairs of orderings.

    ceil(permutations / 2) orderings are drawn, each with its reverse, so an
    odd count rounds up to whole pairs (permutations_used is 2 * pairs). A
    sample's estimate is the mean over pairs of its marginals' mean across an
    ordering and its reverse, which is exact for a game quadratic in
    membership; stderr = std(pair means)/sqrt(pairs), zero for one pair.
    With exhaustive=True every one of the n! orderings is visited once
    (matching exact enumeration, n <= EXHAUSTIVE_MAX), the stderr is taken
    over single orderings and the permutations argument is ignored.
    Every ordering prefix is a coalition (a reverse's prefixes complement its
    forward's); the distinct ones are evaluated in one utilities call.
    """
    n = len(u.batch)
    if exhaustive and n > EXHAUSTIVE_MAX:
        raise ValueError(f"exhaustive permutations limited to {EXHAUSTIVE_MAX} samples, got {n}")
    if not exhaustive and permutations < 1:
        raise ValueError("need at least one permutation")
    rng = np.random.default_rng(seed)
    if exhaustive:
        orders = np.array(list(itertools.permutations(range(n))))
    else:
        forward = rng.permuted(np.tile(np.arange(n), (-(-permutations // 2), 1)), axis=1)
        orders = np.concatenate([forward, forward[:, ::-1]])
    draws = orders.shape[0]
    # codes[r, k] is the bitmask of the first k + 1 members of ordering r in
    # ceil(n / 64) uint64 words (member i is bit i % 64 of word i // 64); the
    # distinct codes unpack to membership rows read as little-endian bytes
    words = -(-n // 64)
    member = np.arange(n)
    onebit = np.zeros((n, words), dtype=np.uint64)
    onebit[member, member // 64] = np.uint64(1) << (member % 64).astype(np.uint64)
    codes = np.bitwise_or.accumulate(onebit[orders], axis=1).reshape(draws * n, words)
    keys = codes[:, 0] if words == 1 else codes.view(np.dtype((np.void, 8 * words)))[:, 0]
    distinct, inverse = np.unique(keys, return_inverse=True)
    masks = np.unpackbits(distinct.view(np.uint8).reshape(len(distinct), 8 * words),
                          axis=1, count=n, bitorder="little").view(bool)
    v = u.utilities(masks)[inverse].reshape(draws, n)
    marginals = np.zeros((draws, n))
    np.put_along_axis(marginals, orders, np.diff(v, axis=1, prepend=0.0), axis=1)
    # one estimate per ordering when exhaustive, else one per antithetic pair
    means = marginals if exhaustive else (marginals[:draws // 2] + marginals[draws // 2:]) / 2
    values = means.mean(axis=0)
    stderr = means.std(axis=0, ddof=1) / math.sqrt(len(means)) if len(means) >= 2 else np.zeros(n)
    return ShapleyEstimate(values=values, stderr=stderr, permutations_used=draws)
