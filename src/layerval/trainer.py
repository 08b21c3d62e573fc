"""Online-valuation training loop: SGD with momentum plus per-batch curation.

Each curated step scores the batch against a cached validation subsample
(or against the rest of the batch in self-influence mode), drops members
whose benefit score falls below the threshold, and applies the SGD update
with the survivors. train stacks each split once and makes one
network.batch_taps call per step, led by the validation subsample's rows at
a cache refresh: the cache, the scores and the SGD step all read that pass,
and where it stopped at g(L) (the LAI family) the step finishes the backward
chain for the kept rows only. Every score comes from influence.pair_matrix.
A cost ledger tracks the multiply-accumulate work and cache footprint of the
scoring pass per estimator.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable

import numpy as np

from .data import DatasetBundle, Sample
from .influence import Estimator, Preconditioner, pair_matrix, update_preconditioner
from .network import MLP, BatchTaps, backward_chain, batch_taps


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


def _act_dims(net: MLP) -> list[int]:
    return [layer.spec.in_dim for layer in net.layers]


def _grad_dims(net: MLP) -> list[int]:
    return [layer.spec.out_dim for layer in net.layers]


def backward_extra_macs(net: MLP) -> int:
    """MACs of the backward chain below the logits: matvec plus gating per layer."""
    total = 0
    for layer in net.layers[1:]:
        total += layer.spec.out_dim * layer.spec.in_dim + layer.spec.in_dim
    return total


def outer_product_macs(net: MLP) -> int:
    """MACs to materialize per-sample weight gradients g(l) a(l-1)^T."""
    return sum(layer.spec.out_dim * layer.spec.in_dim for layer in net.layers)


def pair_macs(net: MLP, estimator: Estimator) -> int:
    """MACs of scoring one (train, validation) pair from cached vectors."""
    aug = [d + 1 for d in _act_dims(net)]
    gdims = _grad_dims(net)
    if estimator in (Estimator.LAI, Estimator.PRECOND_LAI):
        return sum(aug) + gdims[-1] + 1
    if estimator is Estimator.LLI:
        return aug[-1] + gdims[-1] + 1
    if estimator is Estimator.GHOST:
        return sum(a + g + 1 for a, g in zip(aug, gdims))
    if estimator is Estimator.IP:
        return net.num_params
    raise ValueError(f"no pair cost for estimator {estimator}")


def cache_reals_per_sample(net: MLP, estimator: Estimator) -> int:
    """Cached 64-bit reals per validation sample for an estimator family."""
    aug = [d + 1 for d in _act_dims(net)]
    gdims = _grad_dims(net)
    if estimator in (Estimator.LAI, Estimator.PRECOND_LAI):
        return sum(aug) + gdims[-1]
    if estimator is Estimator.LLI:
        return aug[-1] + gdims[-1]
    if estimator is Estimator.GHOST:
        return sum(aug) + sum(gdims)
    if estimator is Estimator.IP:
        return net.num_params
    raise ValueError(f"no cache layout for estimator {estimator}")


def per_sample_extra_macs(net: MLP, estimator: Estimator) -> int:
    """Scoring work beyond the shared forward pass, per sample whose taps are built."""
    if estimator is Estimator.GHOST:
        return backward_extra_macs(net)
    if estimator is Estimator.IP:
        return backward_extra_macs(net) + outer_product_macs(net)
    if estimator is Estimator.PRECOND_LAI:
        return net.out_dim  # rescaling the output gradient
    return 0


@dataclass
class LedgerEntry:
    step: int
    method: str
    macs: int
    cache_bytes: int
    samples_scored: int
    samples_kept: int
    config_key: tuple


@dataclass
class CostLedger:
    entries: list[LedgerEntry] = field(default_factory=list)

    def record(self, entry: LedgerEntry) -> None:
        self.entries.append(entry)

    def totals(self, method: str) -> dict:
        rows = [e for e in self.entries if e.method == method]
        return {
            "macs": sum(e.macs for e in rows),
            "cache_bytes": max((e.cache_bytes for e in rows), default=0),
            "samples_scored": sum(e.samples_scored for e in rows),
            "samples_kept": sum(e.samples_kept for e in rows),
            "steps": len(rows),
        }


def ledger_compare(ledger: CostLedger, methods: list[Estimator]) -> dict:
    """Compare per-method scoring MACs and cache bytes recorded for one configuration.

    All requested methods must have entries with an identical
    (net dims, batch size, validation size) fingerprint. Raises if the
    LAI < Ghost orderings fail for depth > 1.
    """
    per_method = {}
    keys = set()
    for est in methods:
        rows = [e for e in ledger.entries if e.method == est.value]
        if not rows:
            raise ValueError(f"ledger has no entries for method {est.value}")
        keys.update(e.config_key for e in rows)
        per_method[est.value] = {
            "macs": sum(e.macs for e in rows) // len(rows),
            "cache_bytes": rows[0].cache_bytes,
        }
    if len(keys) != 1:
        raise ValueError(f"methods ran on mismatched configurations: {sorted(keys)}")
    key = keys.pop()
    depth = len(key[0]) - 1
    record = {
        "config": {"dims": list(key[0]), "batch_size": key[1], "validation_size": key[2]},
        "depth": depth,
        "methods": per_method,
    }
    if Estimator.LAI.value in per_method and Estimator.GHOST.value in per_method:
        lai, ghost = per_method[Estimator.LAI.value], per_method[Estimator.GHOST.value]
        if depth > 1:
            ok = lai["macs"] < ghost["macs"] and lai["cache_bytes"] < ghost["cache_bytes"]
            record["lai_cheaper_than_ghost"] = ok
            if not ok:
                raise RuntimeError("cost ordering violated: expected LAI < Ghost for depth > 1")
        else:
            record["lai_cheaper_than_ghost"] = False
            if lai["macs"] != ghost["macs"]:
                raise RuntimeError("depth-1 scoring MACs should match between LAI and Ghost")
    return record


# --- validation cache ------------------------------------------------------


def stack_samples(samples: list[Sample]) -> tuple[np.ndarray, np.ndarray]:
    """Row-stacked features and int64 labels of a list of samples."""
    return (np.stack([s.features for s in samples]),
            np.array([s.label for s in samples], dtype=np.int64))


def sample_taps(net: MLP, samples: list[Sample], backward: bool) -> BatchTaps:
    """One batched pass over a list of samples (see network.batch_taps)."""
    return batch_taps(net, *stack_samples(samples), backward)


def _needs_backward(estimator: Estimator) -> bool:
    return estimator in (Estimator.GHOST, Estimator.IP)


@dataclass
class ValidationCache:
    step_id: int
    estimator: Estimator
    taps: BatchTaps
    # The ledger's analytic figure (cache_reals_per_sample, in bytes), not what
    # the taps hold: an LLI cache keeps every layer, an IP cache keeps taps.
    byte_size: int

    @property
    def sample_count(self) -> int:
        return len(self.taps)


def build_validation_cache(net: MLP, val_taps: BatchTaps, estimator: Estimator,
                           step_id: int = 0) -> ValidationCache:
    """Keep the taps of the validation subsample (from a full backward pass
    for Ghost/IP) for scoring batches against it."""
    if not len(val_taps):
        raise ValueError("validation subset must be nonempty")
    if estimator is Estimator.NONE:
        raise ValueError("cannot build a cache for estimator 'none'")
    if _needs_backward(estimator) and not val_taps.full:
        raise ValueError(f"a {estimator.value} cache needs taps from a full backward pass")
    return ValidationCache(step_id=step_id, estimator=estimator, taps=val_taps,
                           byte_size=len(val_taps) * cache_reals_per_sample(net, estimator) * 8)


# --- curation --------------------------------------------------------------


@dataclass
class CurationDecision:
    kept_mask: list[bool]
    benefit_scores: list[float]
    note: str = ""


def curate_batch(net: MLP, taps: BatchTaps, cache: ValidationCache,
                 cfg: TrainerConfig, step_id: int = 0,
                 ledger: CostLedger | None = None,
                 preconditioner: Preconditioner | None = None) -> CurationDecision:
    """Score the taps of a batch's members against the cached validation subsample.

    A member's benefit is its column sum of pair_matrix over the cache rows;
    it is kept when benefit >= cfg.threshold (inclusive boundary).
    """
    if cfg.estimator is Estimator.NONE:
        raise ValueError("estimator 'none' cannot curate; use mode 'off' instead")
    if cache.estimator is not cfg.estimator:
        raise ValueError(f"cache was built for {cache.estimator.value}, not {cfg.estimator.value}")
    age = step_id - cache.step_id
    if age < 0 or age >= cfg.cache_refresh_steps:
        raise StaleCacheError(
            f"cache from step {cache.step_id} is stale at step {step_id} "
            f"(refresh every {cfg.cache_refresh_steps})")
    pair = pair_matrix(cfg.estimator, cache.taps, taps, preconditioner, cfg.layer_calibration)
    benefits = pair.sum(axis=0).tolist()
    kept = [b >= cfg.threshold for b in benefits]
    n = len(taps)
    if ledger is not None:
        macs = (n * cache.sample_count * pair_macs(net, cfg.estimator)
                + n * per_sample_extra_macs(net, cfg.estimator))
        if cfg.estimator is Estimator.PRECOND_LAI:
            macs += cache.sample_count * net.out_dim  # rescaling cached gradients
        ledger.record(LedgerEntry(
            step=step_id, method=cfg.estimator.value, macs=macs,
            cache_bytes=cache.byte_size, samples_scored=n, samples_kept=sum(kept),
            config_key=(tuple([net.in_dim] + _grad_dims(net)), n, cache.sample_count)))
    return CurationDecision(kept_mask=kept, benefit_scores=benefits)


def self_influence_curate(net: MLP, taps: BatchTaps, cfg: TrainerConfig,
                          step_id: int = 0, ledger: CostLedger | None = None,
                          preconditioner: Preconditioner | None = None) -> CurationDecision:
    """Score each member's taps against the rest of its own batch (self-pairs excluded)."""
    if cfg.estimator is Estimator.NONE:
        raise ValueError("estimator 'none' cannot curate; use mode 'off' instead")
    if cfg.estimator is Estimator.PRECOND_LAI and preconditioner is None:
        raise ValueError("preconditioned scoring needs a Preconditioner")
    est = cfg.estimator
    n = len(taps)
    if n == 1:
        return CurationDecision(kept_mask=[True], benefit_scores=[0.0],
                                note="degenerate batch of one: kept unconditionally")
    pair = pair_matrix(est, taps, taps, preconditioner, cfg.layer_calibration)
    benefits = (pair.sum(axis=0) - np.diag(pair)).tolist()
    kept = [b >= cfg.threshold for b in benefits]
    if ledger is not None:
        macs = (n * (n - 1) // 2 * pair_macs(net, est)
                + n * per_sample_extra_macs(net, est))
        ledger.record(LedgerEntry(
            step=step_id, method=est.value, macs=macs,
            cache_bytes=n * cache_reals_per_sample(net, est) * 8,
            samples_scored=n, samples_kept=sum(kept),
            config_key=(tuple([net.in_dim] + _grad_dims(net)), n, n - 1)))
    return CurationDecision(kept_mask=kept, benefit_scores=benefits)


# --- optimizer -------------------------------------------------------------


MomentumState = list[tuple[np.ndarray, np.ndarray]]


def init_momentum(net: MLP) -> MomentumState:
    return [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]


def sgd_step(net: MLP, kept: BatchTaps, cfg: TrainerConfig,
             state: MomentumState | None) -> tuple[MLP, MomentumState, float]:
    """One momentum-SGD update with the mean gradient over the kept samples'
    taps (forward-only taps get their backward chain finished here).

    velocity <- momentum * velocity + grad;  theta <- theta - lr * velocity.
    Returns the updated net, state, and mean loss over the kept samples.
    The per-layer sum over samples, g(l)^T [a(l-1), 1], is a fixed-order
    einsum: it adds the samples in order, as a per-sample loop would, and
    its bits do not depend on the BLAS thread count.
    """
    if not len(kept):
        raise ValueError("sgd_step needs at least one sample")
    if state is None:
        state = init_momentum(net)
    taps = backward_chain(net, kept)
    scale = 1.0 / len(kept)
    new_state: MomentumState = []
    for layer, (vw, vb), a, g in zip(net.layers, state, taps.acts, taps.grads):
        grad = np.einsum("bi,bj->ij", g, a, optimize=False) * scale
        gw, gb = grad[:, :-1], grad[:, -1]
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradientError(
                f"non-finite gradient in layer {layer.spec.in_dim}x{layer.spec.out_dim}; "
                f"|grad W| max={np.abs(gw).max()}")
        vw = cfg.momentum * vw + gw
        vb = cfg.momentum * vb + gb
        layer.weights -= cfg.learning_rate * vw
        layer.bias -= cfg.learning_rate * vb
        new_state.append((vw, vb))
    return net, new_state, float(taps.losses.sum()) * scale


def mean_loss_and_accuracy(net: MLP, X: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy and argmax accuracy (ties to the lowest index) of one batched pass."""
    taps = batch_taps(net, X, labels, backward=False)
    hits = int(np.count_nonzero(np.argmax(taps.logits, axis=1) == labels))
    return float(taps.losses.mean()), hits / len(labels)


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
    sample_ids: list[int]
    inclusion: list[list[bool]]  # [epoch][train position]
    score_rows: list[tuple[int, int, str, float]]  # step, sample_id, estimator, benefit
    probe_traces: dict[int, list[tuple[int, float]]]
    ledger: CostLedger
    seed: int
    mode: str
    estimator: str
    steps_total: int


def _histogram(values: list[float], bins: int = 20) -> tuple[list[float], list[int]]:
    if not values:
        return [], []
    counts, edges = np.histogram(np.asarray(values), bins=bins)
    return [float(e) for e in edges], [int(c) for c in counts]


def train(net: MLP, cfg: TrainerConfig, data: DatasetBundle,
          checkpoint_hook: Callable[[int, MLP], None] | None = None
          ) -> tuple[TrainingReport, MLP]:
    """Warm up for cfg.warmup_epochs, then curate each batch before each update.

    Warm-up epochs (and mode 'off') run vanilla SGD over full batches. In
    curated epochs each refresh draws a fresh validation subsample of size
    ceil(val_fraction_per_batch * |validation|) without replacement, builds
    the estimator cache against the current parameters, and batches are
    filtered by benefit threshold before the SGD step. Every split must be
    nonempty: each epoch reports the validation loss and the test accuracy.
    """
    for name, split in (("training", data.train), ("validation", data.validation),
                        ("test", data.test)):
        if not split:
            raise ValueError(f"empty {name} split")
    net = net.copy()
    seed_seq = np.random.SeedSequence(cfg.seed)
    shuffle_ss, val_ss = seed_seq.spawn(2)
    rng_shuffle = np.random.default_rng(shuffle_ss)
    rng_val = np.random.default_rng(val_ss)
    state: MomentumState | None = None
    ledger = CostLedger()
    precond = (Preconditioner.identity(net.out_dim, cfg.precond_decay, cfg.precond_floor)
               if cfg.estimator is Estimator.PRECOND_LAI else None)
    probe_ids = [s.id for s in data.train[:cfg.probe_sample_count]]
    probe_traces: dict[int, list[tuple[int, float]]] = {pid: [] for pid in probe_ids}
    n = len(data.train)
    X, y = stack_samples(data.train + data.validation)  # validation rows from n on
    ids = [s.id for s in data.train]
    test_X, test_y = stack_samples(data.test)
    backward = _needs_backward(cfg.estimator)
    epoch_stats: list[EpochStats] = []
    inclusion: list[list[bool]] = []
    score_rows: list[tuple[int, int, str, float]] = []
    cache: ValidationCache | None = None
    step = 0
    checkpoints_fired = 0
    for epoch in range(cfg.epochs):
        order = rng_shuffle.permutation(n)
        row = [False] * n
        epoch_losses: list[float] = []
        epoch_benefits: list[float] = []
        scored = 0
        curating = (epoch >= cfg.warmup_epochs and cfg.mode is not CurationMode.OFF
                    and cfg.estimator is not Estimator.NONE)
        for start in range(0, n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            positions = rows.tolist()
            k = 0  # leading validation rows of this step's pass, at a cache refresh
            if curating and cfg.mode is CurationMode.VALIDATION and (
                    cache is None or step - cache.step_id >= cfg.cache_refresh_steps):
                k = math.ceil(cfg.val_fraction_per_batch * len(data.validation))
                idx = rng_val.choice(len(data.validation), size=k, replace=False)
                rows = np.concatenate([n + np.sort(idx), rows])
            taps = batch_taps(net, X[rows], y[rows], backward or not curating)
            if k:
                cache = build_validation_cache(net, taps.rows(slice(0, k)), cfg.estimator, step)
                taps = taps.rows(slice(k, None))
            if curating:
                if cfg.mode is CurationMode.VALIDATION:
                    decision = curate_batch(net, taps, cache, cfg, step, ledger, precond)
                else:
                    decision = self_influence_curate(net, taps, cfg, step, ledger, precond)
                if precond is not None:
                    precond = update_preconditioner(precond, taps.grads[-1])
                epoch_losses.extend(taps.losses.tolist())
                epoch_benefits.extend(decision.benefit_scores)
                scored += len(positions)
                for p, benefit in zip(positions, decision.benefit_scores):
                    score_rows.append((step, ids[p], cfg.estimator.value, benefit))
                    if ids[p] in probe_traces:
                        probe_traces[ids[p]].append((step, benefit))
                kept_flags = list(decision.kept_mask)
                if not any(kept_flags) and cfg.empty_batch_policy is EmptyBatchPolicy.KEEP_TOP1:
                    kept_flags[int(np.argmax(decision.benefit_scores))] = True
            else:
                kept_flags = [True] * len(positions)
            for p, keep in zip(positions, kept_flags):
                row[p] = keep
            kept_rows = np.flatnonzero(kept_flags)
            if kept_rows.size:
                kept = taps if kept_rows.size == len(taps) else taps.rows(kept_rows)
                net, state, mean_loss = sgd_step(net, kept, cfg, state)
                if not curating:
                    # repeat so the epoch mean weights every sample equally
                    epoch_losses.extend([mean_loss] * kept_rows.size)
            step += 1
            if checkpoint_hook is not None and cfg.checkpoint_every > 0 \
                    and step % cfg.checkpoint_every == 0:
                checkpoint_hook(step, net.copy())
                checkpoints_fired += 1
        edges, counts = _histogram(epoch_benefits)
        epoch_stats.append(EpochStats(
            epoch=epoch,
            train_loss=float(np.mean(epoch_losses)),
            val_loss=mean_loss_and_accuracy(net, X[n:], y[n:])[0],
            test_accuracy=mean_loss_and_accuracy(net, test_X, test_y)[1],
            kept_count=sum(row),
            scored_count=scored,
            histogram_edges=edges,
            histogram_counts=counts,
        ))
        inclusion.append(row)
    if checkpoint_hook is not None and cfg.checkpoint_every > 0 and checkpoints_fired == 0 \
            and step > 0:
        checkpoint_hook(step, net.copy())
    report = TrainingReport(
        epoch_stats=epoch_stats,
        sample_ids=ids,
        inclusion=inclusion,
        score_rows=score_rows,
        probe_traces=probe_traces,
        ledger=ledger,
        seed=cfg.seed,
        mode=cfg.mode.value,
        estimator=cfg.estimator.value,
        steps_total=step,
    )
    return report, net
