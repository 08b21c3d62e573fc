"""Online-valuation training loop: SGD with momentum plus per-batch curation.

Each curated step scores the batch with curate_batch, against a cached
validation subsample or, in self-influence mode, against the rest of the
batch: one influence.pair_matrix call either way. It drops members whose
benefit score falls below the threshold and applies the SGD update with the
survivors. train checks the splits against the net once, stacks them as
[X, 1], and makes one check-free network._taps pass per step, led by the
validation subsample's rows at a cache refresh: the cache, the scores and
the SGD step all read that pass, and where it stopped at g(L) (the LAI
family) the step finishes the backward chain for the kept rows only. Each
epoch's validation loss and test accuracy come from forward-only passes
over blocks of at most batch_size rows. The report holds
columns: an (epochs, n) inclusion array and one (step, id, benefit) row per
scored sample, collected per step and joined once.
A cost ledger keeps per-estimator totals of the multiply-accumulate work and
cache footprint of the scoring pass; batch_cost is their one closed form,
which `diagnose` also reads for cost.json without scoring anything.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
from typing import Callable

import numpy as np

from .data import DatasetBundle, Split
from .influence import Estimator, pair_matrix, update_preconditioner
from .network import MLP, BatchTaps, _chain, _cross_entropy, _logits, _taps, augment, check_rows


class CurationMode(str, Enum):
    VALIDATION = "validation"
    SELF = "self"
    OFF = "off"


class EmptyBatchPolicy(str, Enum):
    SKIP_STEP = "skip"
    KEEP_TOP1 = "keep_top1"


class StaleCacheError(RuntimeError):
    pass


class NonFiniteGradientError(RuntimeError):
    pass


class ConfigError(ValueError):
    """A rejected config value, named by its dotted path (e.g. trainer.momentum)."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _setting(default, check: Callable[[object], bool]):
    """A TrainerConfig field with its default and its range check."""
    return field(default=default, metadata={"check": check})


def _typed(default, value) -> bool:
    kind = type(default)
    if kind is bool or isinstance(value, bool):  # a bool is an int, but no count
        return kind is bool and isinstance(value, bool)
    if issubclass(kind, Enum):
        return value in [m.value for m in kind]  # str enums: a member equals its value
    if kind is float:  # finite; an int only within the float range
        return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    if kind is int:
        return isinstance(value, numbers.Integral)
    if kind is list:
        return isinstance(value, list) and all(_typed(default[0], v) for v in value)
    if default is None:  # an optional path
        return value is None or isinstance(value, str)
    return isinstance(value, kind)  # a string


def check_setting(path: str, default, check: Callable[[object], bool] | None, value):
    """The one type rule of every config field: `value` must have the type of
    `default` and pass `check`, else ConfigError(path). A real takes any finite
    int or float, a count an int, a flag a bool, an enum a member or its value,
    a None default None or a path string, and a list default a list whose
    elements follow the rule for its first element (`check` sees the whole
    list). Returns a scalar as the default's type, enums as members.
    """
    if not _typed(default, value) or (check is not None and not check(value)):
        raise ConfigError(path, f"invalid value {value!r}")
    return value if default is None else type(default)(value)


@dataclass
class TrainerConfig:
    """Settings of one training run; also the schema of the CLI's `trainer`
    section, whose defaults are these (enums as their values, seed aside).

    Each field is checked by check_setting and stored as its default's type:
    a value of another type, outside the field's range, or
    warmup_epochs > epochs raises ConfigError("trainer.<field>").
    """

    learning_rate: float = _setting(0.05, lambda v: v > 0)
    momentum: float = _setting(0.0, lambda v: 0 <= v < 1)
    batch_size: int = _setting(16, lambda v: v >= 1)
    epochs: int = _setting(10, lambda v: v >= 0)
    warmup_epochs: int = _setting(3, lambda v: v >= 0)
    estimator: Estimator = Estimator.LAI
    mode: CurationMode = CurationMode.VALIDATION
    threshold: float = 0.0  # benefit sign: keep when benefit >= threshold
    val_fraction_per_batch: float = _setting(0.1, lambda v: 0 < v <= 1)
    cache_refresh_steps: int = _setting(1, lambda v: v >= 1)
    seed: int = _setting(0, lambda v: v >= 0)  # numpy's SeedSequence takes no negative seed
    empty_batch_policy: EmptyBatchPolicy = EmptyBatchPolicy.SKIP_STEP
    checkpoint_every: int = _setting(0, lambda v: v >= 0)  # steps between hooks; 0 disables
    probe_sample_count: int = _setting(3, lambda v: v >= 0)
    layer_calibration: bool = False  # divide alpha(l) by dim(a~(l-1)) when scoring
    precond_decay: float = _setting(0.9, lambda v: 0 < v < 1)
    precond_floor: float = _setting(1e-8, lambda v: v > 0)

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, check_setting(f"trainer.{f.name}", f.default,
                                                f.metadata.get("check"), getattr(self, f.name)))
        if self.warmup_epochs > self.epochs:
            raise ConfigError("trainer.warmup_epochs", "cannot exceed trainer.epochs")


# --- cost accounting -------------------------------------------------------


def backward_extra_macs(net: MLP) -> int:
    """MACs of the backward chain below the logits: matvec plus gating per layer."""
    return sum((layer.out_dim + 1) * layer.in_dim for layer in net.layers[1:])


def cache_reals_per_sample(net: MLP, estimator: Estimator) -> int:
    """Cached 64-bit reals per validation sample: the tap blocks the estimator's
    pair_matrix branch reads, each [a(l-1), 1] (LLI: the last) and g(L) for the
    LAI family, every block for Ghost, and the flattened gradients for IP."""
    aug = [layer.in_dim + 1 for layer in net.layers]
    if estimator in (Estimator.LAI, Estimator.PRECOND_LAI):
        return sum(aug) + net.out_dim
    if estimator is Estimator.LLI:
        return aug[-1] + net.out_dim
    if estimator is Estimator.GHOST:
        return sum(aug) + sum(layer.out_dim for layer in net.layers)
    return net.num_params  # IP


def pair_macs(net: MLP, estimator: Estimator) -> int:
    """MACs of scoring one (train, validation) pair from cached vectors: one per
    cached real plus one alpha(l) * beta(l) product per g(l) the score reads
    (Ghost: every layer, the LAI family: g(L), IP: none, no alpha/beta split)."""
    products = {Estimator.GHOST: net.depth, Estimator.IP: 0}.get(estimator, 1)
    return cache_reals_per_sample(net, estimator) + products


# batch_cost by (parameter block shapes, estimator, n, m, cached); a run meets a handful of keys
_COSTS: dict[tuple, tuple[int, int]] = {}
_SHAPE = attrgetter("params.shape")


def batch_cost(net: MLP, estimator: Estimator, n: int, m: int,
               cached: bool = True) -> tuple[int, int]:
    """Ledger MACs and cache bytes of scoring n batch members against m rows each.

    The rows are m cached validation rows or, with cached=False (self mode),
    the rest of the batch (m = n - 1). The MACs count scoring arithmetic
    only: per member the backward work the estimator adds to the shared pass
    (Ghost: the chain below the logits; IP: that plus the per-layer outer
    products; precond_lai: rescaling its output gradient), a cached
    precond_lai pass also rescales the m cached output gradients, and each
    scored pair costs pair_macs. In self mode each unordered pair counts
    once, n * m / 2 pairs: this is the paper's cost model, not the GEMM that
    runs, which forms the full n x n pair_matrix block. The bytes are
    cache_reals_per_sample 64-bit reals for each row held, the batch's own
    n rows in self mode. The figure depends on the layer dims only, so it
    is computed once per (parameter block shapes, estimator, n, m, cached).
    """
    key = (tuple(map(_SHAPE, net.layers)), estimator, n, m, cached)
    if key not in _COSTS:
        if len(_COSTS) >= 1024:  # a pure memo: dropping it only costs recomputation
            _COSTS.clear()
        _COSTS[key] = _ledger_cost(net, estimator, n, m, cached)
    return _COSTS[key]


def _ledger_cost(net: MLP, estimator: Estimator, n: int, m: int,
                 cached: bool) -> tuple[int, int]:
    extra = backward_extra_macs(net) if estimator.full_backward else 0
    if estimator is Estimator.IP:  # and the per-sample weight gradients g(l) a(l-1)^T
        extra += sum(layer.out_dim * layer.in_dim for layer in net.layers)
    elif estimator is Estimator.PRECOND_LAI:
        extra = net.out_dim
    macs = n * extra
    if cached:
        macs += n * m * pair_macs(net, estimator)
        if estimator is Estimator.PRECOND_LAI:
            macs += m * net.out_dim
    else:
        macs += n * m // 2 * pair_macs(net, estimator)
    return macs, (m if cached else n) * cache_reals_per_sample(net, estimator) * 8


_TOTALS = ("macs", "cache_bytes", "samples_scored", "samples_kept", "steps")


@dataclass
class CostLedger:
    """Running scoring-cost totals per method (an estimator's value)."""

    by_method: dict[str, dict[str, int]] = field(default_factory=dict)

    def record(self, method: str, macs: int, cache_bytes: int, scored: int,
               kept: int) -> None:
        """Add one scored step; cache_bytes keeps the largest cache seen."""
        t = self.by_method.setdefault(method, dict.fromkeys(_TOTALS, 0))
        t["macs"] += macs
        t["cache_bytes"] = max(t["cache_bytes"], cache_bytes)
        t["samples_scored"] += scored
        t["samples_kept"] += kept
        t["steps"] += 1

    def totals(self, method: str) -> dict[str, int]:
        """A copy of the method's totals, all 0 if it recorded no step."""
        return dict(self.by_method.get(method, dict.fromkeys(_TOTALS, 0)))


# --- validation cache ------------------------------------------------------


def cache_rows(cfg: TrainerConfig, validation_size: int) -> int:
    """Rows of the validation subsample in each cache of a run:
    ceil(val_fraction_per_batch * |validation|)."""
    return math.ceil(cfg.val_fraction_per_batch * validation_size)


@dataclass
class ValidationCache:
    step_id: int
    estimator: Estimator
    taps: BatchTaps
    # The ledger's analytic figure (batch_cost's cache bytes), not what the
    # taps hold: an LLI cache keeps every layer, an IP cache keeps taps.
    byte_size: int

    @property
    def sample_count(self) -> int:
        return len(self.taps)


def build_validation_cache(net: MLP, val_taps: BatchTaps, estimator: Estimator,
                           step_id: int = 0) -> ValidationCache:
    """Keep the taps of the validation subsample (from a full backward pass
    for Ghost/IP) for scoring batches against it."""
    m = len(val_taps.losses)
    if not m:
        raise ValueError("validation subset must be nonempty")
    if estimator.full_backward and not val_taps.full:
        raise ValueError(f"a {estimator.value} cache needs taps from a full backward pass")
    return ValidationCache(step_id=step_id, estimator=estimator, taps=val_taps,
                           byte_size=batch_cost(net, estimator, 0, m)[1])


# --- curation --------------------------------------------------------------


@dataclass
class CurationDecision:
    kept_mask: np.ndarray  # bool, one per batch row
    benefit_scores: np.ndarray  # float64, one per batch row


def curate_batch(net: MLP, taps: BatchTaps, cache: ValidationCache | None,
                 cfg: TrainerConfig, step_id: int = 0,
                 ledger: CostLedger | None = None,
                 preconditioner: np.ndarray | None = None) -> CurationDecision:
    """Score the taps of a batch's members against the cached validation
    subsample or, with cache=None (self-influence mode), against the rest of
    their own batch.

    A member's benefit is its column sum of pair_matrix over the scoring
    rows, less its self-pair in self mode; it is kept when benefit >=
    cfg.threshold (inclusive boundary). A self-scored batch of one has no
    other row to be scored against: its member gets benefit 0.0 and is kept.
    A ledger records the step's batch_cost with the scored and kept counts.
    precond_lai scores with the diagonal D in `preconditioner`.
    """
    est = cfg.estimator
    if cache is not None:
        if cache.estimator is not est:
            raise ValueError(f"cache was built for {cache.estimator.value}, not {est.value}")
        age = step_id - cache.step_id
        if age < 0 or age >= cfg.cache_refresh_steps:
            raise StaleCacheError(
                f"cache from step {cache.step_id} is stale at step {step_id} "
                f"(refresh every {cfg.cache_refresh_steps})")
    rows = taps if cache is None else cache.taps
    pair = pair_matrix(est, rows, taps, preconditioner, cfg.layer_calibration)
    benefits = np.add.reduce(pair, 0)
    n, m = len(taps.losses), len(rows.losses)  # m: scoring rows per member
    if cache is None:
        benefits -= np.diag(pair)
        m -= 1
    kept = benefits >= cfg.threshold
    if m == 0:  # a lone self-scored row
        kept[:] = True
    if ledger is not None:
        ledger.record(est.value, *batch_cost(net, est, n, m, cache is not None),
                      n, int(np.count_nonzero(kept)))
    return CurationDecision(kept_mask=kept, benefit_scores=benefits)


# --- optimizer -------------------------------------------------------------


MomentumState = list[np.ndarray]  # one velocity block [vW | vb] per layer


def init_momentum(net: MLP) -> MomentumState:
    return [np.zeros_like(l.params) for l in net.layers]


def sgd_step(net: MLP, kept: BatchTaps, cfg: TrainerConfig,
             state: MomentumState | None) -> tuple[MLP, MomentumState, float]:
    """One momentum-SGD update with the mean gradient over the kept samples'
    taps (forward-only taps get their backward chain finished here).

    velocity <- momentum * velocity + grad;  theta <- theta - lr * velocity,
    on each layer's [W | b] block (Layer.params) and its one velocity block.
    Returns the updated net, the new velocity blocks (the state passed in is
    left as it was), and the mean loss over the kept samples. With momentum
    0 the velocity is the gradient itself: the same bits as 0 * v + grad
    unless a parameter is -0.0, which neither MLP.initialize nor an update
    makes. The per-layer sum over samples, g(l)^T [a(l-1), 1], is a
    fixed-order einsum: it adds the samples in order, as a per-sample loop
    would, and its bits depend on neither its output order nor the BLAS
    thread count. Every layer's gradient is checked finite before any layer
    is updated, so a NonFiniteGradientError leaves the net as it was.
    """
    n = len(kept.losses)
    if not n:
        raise ValueError("sgd_step needs at least one sample")
    layer_grads = kept.grads
    if len(layer_grads) < len(kept.acts):
        layer_grads = _chain(net, kept.acts, layer_grads[-1])
    scale = 1.0 / n
    velocity = []
    for layer, a, g in zip(net.layers, kept.acts, layer_grads):
        # A block with more rows than columns is summed with its rows innermost
        # ("F"): the same sums in fewer, longer loops. Otherwise numpy's default
        # "K": "C" made the 256x257 block of an 8-256-256-3 net ~3x slower.
        grad = np.einsum("bi,bj->ij", g, a, order="F" if g.shape[1] > a.shape[1] else "K",
                         optimize=False)
        grad *= scale
        if not np.logical_and.reduce(np.isfinite(grad), None):
            raise NonFiniteGradientError(
                f"non-finite gradient in layer {layer.in_dim}x{layer.out_dim}; "
                f"|grad W| max={np.abs(grad[:, :-1]).max()}")
        velocity.append(grad)
    if cfg.momentum:
        for v, old in zip(velocity, state or init_momentum(net)):
            v += cfg.momentum * old
    for layer, v in zip(net.layers, velocity):
        layer.params -= cfg.learning_rate * v
    return net, velocity, float(np.add.reduce(kept.losses)) * scale


def mean_loss_and_accuracy(net: MLP, rows: Split,
                           block: int | None = None) -> tuple[float, float]:
    """Mean cross-entropy and argmax accuracy (ties to the lowest index) of the
    rows, check-free, from forward-only passes over blocks of at most `block`
    rows (None: one block): the logits of a _taps pass over the same blocks."""
    X, block = rows.features, block or len(rows)
    logits = np.concatenate([_logits(net, X[i:i + block]) for i in range(0, len(X), block)])
    losses = _cross_entropy(logits, rows.labels, grad=False)[0]
    hits = int(np.count_nonzero(logits.argmax(1) == rows.labels))
    return float(losses.mean()), hits / len(rows)


# --- training loop ---------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    test_accuracy: float
    kept_count: int
    scored_count: int
    histogram_edges: list[float]
    histogram_counts: list[int]


@dataclass
class TrainingReport:
    epoch_stats: list[EpochStats]
    sample_ids: np.ndarray  # train ids, by train position
    inclusion: np.ndarray  # (epochs, n) bool: kept, by epoch and train position
    # one row per scored sample, in step order; every row's estimator is `estimator`
    score_steps: np.ndarray
    score_ids: np.ndarray
    score_benefits: np.ndarray
    probe_ids: np.ndarray  # the first probe_sample_count train ids
    ledger: CostLedger
    seed: int
    mode: str
    estimator: str
    steps_total: int


def _column(parts: list[np.ndarray], dtype) -> np.ndarray:
    """Per-step parts joined once, in step order."""
    return np.concatenate([np.empty(0, dtype), *parts])


def _histogram(values: np.ndarray, bins: int = 20) -> tuple[list[float], list[int]]:
    if not values.size:
        return [], []
    counts, edges = np.histogram(values, bins=bins)
    return edges.tolist(), counts.tolist()


def checkpoint_steps(cfg: TrainerConfig, train_size: int) -> list[int]:
    """The steps after which train calls its checkpoint hook: every
    cfg.checkpoint_every-th, or the last step of a run too short to reach one."""
    every, steps = cfg.checkpoint_every, cfg.epochs * math.ceil(train_size / cfg.batch_size)
    if not every or not steps:
        return []
    return list(range(every, steps + 1, every)) or [steps]


def train(net: MLP, cfg: TrainerConfig, data: DatasetBundle,
          checkpoint_hook: Callable[[int, MLP], None] | None = None
          ) -> tuple[TrainingReport, MLP]:
    """Warm up for cfg.warmup_epochs, then curate each batch before each update.

    Warm-up epochs (and mode 'off') run vanilla SGD over full batches. In
    curated epochs each refresh draws a fresh validation subsample of size
    ceil(val_fraction_per_batch * |validation|) without replacement, builds
    the estimator cache against the current parameters, and batches are
    filtered by benefit threshold before the SGD step. Every split must be
    nonempty (each epoch reports the validation loss and the test accuracy)
    and fit the net, checked once (network.check_rows): the steps run check-free.
    checkpoint_hook(step, copy of the net) runs after each of checkpoint_steps.
    """
    for name, rows in (("training", data.train), ("validation", data.validation),
                       ("test", data.test)):
        if not rows:
            raise ValueError(f"empty {name} split")
        try:
            check_rows(net, rows.features, rows.labels)
        except ValueError as exc:
            raise ValueError(f"{name} split: {exc}") from exc
    net = net.copy()
    seed_seq = np.random.SeedSequence(cfg.seed)
    shuffle_ss, val_ss = seed_seq.spawn(2)
    rng_shuffle = np.random.default_rng(shuffle_ss)
    rng_val = np.random.default_rng(val_ss)
    state: MomentumState | None = None
    ledger = CostLedger()
    precond = (np.maximum(np.ones(net.out_dim), cfg.precond_floor)  # precond_lai's D
               if cfg.estimator is Estimator.PRECOND_LAI else None)
    n, ids = len(data.train), data.train.ids.copy()
    # [X, 1] of the training rows, then the validation rows from n on
    A = augment(np.concatenate([data.train.features, data.validation.features]))
    y = np.concatenate([data.train.labels, data.validation.labels])
    epoch_stats: list[EpochStats] = []
    inclusion = np.zeros((cfg.epochs, n), dtype=bool)
    scored: list[tuple[int, np.ndarray]] = []  # (step, batch positions) of each scored step
    score_benefits: list[np.ndarray] = []
    cache: ValidationCache | None = None  # stays None in self mode
    hook_steps = set(checkpoint_steps(cfg, n)) if checkpoint_hook is not None else set()
    val_size = len(data.validation)
    cache_size = cache_rows(cfg, val_size)
    step = 0
    for epoch in range(cfg.epochs):
        order = rng_shuffle.permutation(n)
        epoch_losses: list[np.ndarray] = []
        first_scored = len(score_benefits)
        curating = epoch >= cfg.warmup_epochs and cfg.mode is not CurationMode.OFF
        backward = cfg.estimator.full_backward or not curating
        for start in range(0, n, cfg.batch_size):
            rows = batch = order[start:start + cfg.batch_size]
            k = 0  # leading validation rows of this step's pass, at a cache refresh
            if curating and cfg.mode is CurationMode.VALIDATION and (
                    cache is None or step - cache.step_id >= cfg.cache_refresh_steps):
                k = cache_size
                idx = rng_val.choice(val_size, size=k, replace=False)
                idx.sort()
                rows = np.concatenate((idx + n, batch))
            taps = _taps(net, A.take(rows, 0), y.take(rows), backward)
            if k:
                cache = build_validation_cache(net, taps.rows(slice(0, k)), cfg.estimator, step)
                taps = taps.rows(slice(k, None))
            kept = taps
            if curating:
                decision = curate_batch(net, taps, cache, cfg, step, ledger, precond)
                if precond is not None:
                    precond = update_preconditioner(precond, taps.grads[-1],
                                                    cfg.precond_decay, cfg.precond_floor)
                epoch_losses.append(taps.losses)
                scored.append((step, batch))
                score_benefits.append(decision.benefit_scores)
                kept_flags = decision.kept_mask
                if cfg.empty_batch_policy is EmptyBatchPolicy.KEEP_TOP1 and not kept_flags.any():
                    kept_flags = np.arange(len(batch)) == np.argmax(decision.benefit_scores)
                inclusion[epoch, batch] = kept_flags
                if np.count_nonzero(kept_flags) < len(batch):
                    kept = taps.rows(kept_flags)
            else:
                inclusion[epoch, batch] = True
            if len(kept.losses):
                net, state, mean_loss = sgd_step(net, kept, cfg, state)
                if not curating:
                    # repeat so the epoch mean weights every sample equally
                    epoch_losses.append(np.full(len(kept), mean_loss))
            step += 1
            if step in hook_steps:
                checkpoint_hook(step, net.copy())
        benefits = _column(score_benefits[first_scored:], np.float64)
        edges, counts = _histogram(benefits)
        epoch_stats.append(EpochStats(
            epoch=epoch,
            train_loss=float(np.concatenate(epoch_losses).mean()),
            val_loss=mean_loss_and_accuracy(net, data.validation, cfg.batch_size)[0],
            test_accuracy=mean_loss_and_accuracy(net, data.test, cfg.batch_size)[1],
            kept_count=int(np.count_nonzero(inclusion[epoch])),
            scored_count=benefits.size,
            histogram_edges=edges,
            histogram_counts=counts,
        ))
    report = TrainingReport(
        epoch_stats=epoch_stats, sample_ids=ids, inclusion=inclusion,
        score_steps=np.repeat(np.array([st for st, _ in scored], dtype=np.int64),
                              [len(batch) for _, batch in scored]),
        score_ids=ids[_column([batch for _, batch in scored], np.int64)],
        score_benefits=_column(score_benefits, np.float64),
        probe_ids=ids[:cfg.probe_sample_count], ledger=ledger, seed=cfg.seed,
        mode=cfg.mode.value, estimator=cfg.estimator.value, steps_total=step)
    return report, net
