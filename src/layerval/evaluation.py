"""Fidelity protocol against the Shapley reference, metrics, and report files."""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .data import DatasetBundle, Split
from .influence import Estimator, pair_matrix
from .network import MLP, batch_taps
from .oracle import EXHAUSTIVE_MAX, UtilityFn, shapley_mc
from .trainer import (
    CurationMode,
    TrainerConfig,
    TrainingReport,
    train,
)
from . import serialize


FIDELITY_ESTIMATORS = (Estimator.IP, Estimator.GHOST, Estimator.LAI, Estimator.LLI)


class DegenerateInputError(ValueError):
    """A correlation was requested on a constant vector."""


def pearson(xs, ys) -> float:
    """Product-moment correlation; raises DegenerateInputError on constant input."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.shape[0] < 2:
        raise ValueError("need two equal-length vectors of at least 2 entries")
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    nx = float(np.linalg.norm(xc))
    ny = float(np.linalg.norm(yc))
    if nx == 0.0 or ny == 0.0:
        raise DegenerateInputError("correlation undefined for constant input")
    return float(np.dot(xc, yc) / (nx * ny))


def average_ranks(xs) -> np.ndarray:
    """1-based ranks; each run of equal values gets the mean of the ranks it spans."""
    xs = np.asarray(xs, dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    ordered = xs[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    ends = np.append(starts[1:], xs.shape[0])
    ranks = np.empty(xs.shape[0])
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def spearman(xs, ys) -> float:
    """Pearson correlation of average ranks."""
    return pearson(average_ranks(xs), average_ranks(ys))


@dataclass
class FidelityRecord:
    step: int
    scores: dict[str, list[float]]  # benefit-sign scores per estimator
    shapley: list[float]
    shapley_stderr: list[float]
    pearson: dict[str, float | None]  # None marks a degenerate checkpoint
    spearman: dict[str, float | None]


@dataclass
class EstimatorSummary:
    mean: float
    std: float
    min: float
    max: float
    checkpoints: int
    below_floor: int
    degenerate: int


@dataclass
class FidelitySummary:
    per_estimator: dict[str, EstimatorSummary]
    floor: float
    checkpoints_total: int
    exhaustive: bool = False


def _benefit_scores(net: MLP, probe: Split, val: Split) -> dict[str, list[float]]:
    """Aggregated benefit scores of each probe sample for the four estimators."""
    val_taps = batch_taps(net, val.features, val.labels, backward=True)
    probe_taps = batch_taps(net, probe.features, probe.labels, backward=True)
    return {est.value: pair_matrix(est, val_taps, probe_taps).sum(axis=0).tolist()
            for est in FIDELITY_ESTIMATORS}


def _worker_count() -> int:
    """Worker processes for the fidelity checkpoints: one per usable CPU beside the caller's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


def _checkpoint_record(k: int, step: int, snap: MLP, probe: Split, val: Split,
                       cfg: TrainerConfig, permutations: int, exhaustive: bool) -> FidelityRecord:
    """Correlate each estimator's probe scores at checkpoint k with its Shapley values."""
    scores = _benefit_scores(snap, probe, val)
    utility = UtilityFn(snap, val, cfg.learning_rate)
    mc_seed = cfg.seed * 1_000_003 + 7919 * (k + 1)
    est = shapley_mc(utility, probe, permutations, seed=mc_seed, exhaustive=exhaustive)
    shap = est.values.tolist()
    pearsons: dict[str, float | None] = {}
    spearmans: dict[str, float | None] = {}
    for name, vec in scores.items():
        try:
            pearsons[name] = pearson(vec, shap)
            spearmans[name] = spearman(vec, shap)
        except DegenerateInputError:
            pearsons[name] = None
            spearmans[name] = None
    return FidelityRecord(step=step, scores=scores, shapley=shap,
                          shapley_stderr=est.stderr.tolist(),
                          pearson=pearsons, spearman=spearmans)


def run_fidelity(net: MLP, cfg: TrainerConfig, data: DatasetBundle,
                 probe_batch_size: int, checkpoint_every: int, permutations: int,
                 exhaustive: bool = False, floor: float = 0.5
                 ) -> tuple[list[FidelityRecord], FidelitySummary]:
    """Train vanilla, then at every checkpoint correlate estimator scores with
    Monte-Carlo Shapley values of a fixed seeded probe batch.

    Checkpoints with a constant score vector (either side) are flagged with
    None correlations and excluded from the summary means.

    The checkpoints are valued on CPUs - 1 worker processes started with
    `spawn` (none on one CPU, at most one per checkpoint), each holding ~40 MB.
    Each checkpoint is queued as training reaches it; after training the
    caller values, last first, every checkpoint no worker has taken. Each
    checkpoint keeps its own seed, so the records are the same bytes at any
    worker count. A run too short to hide a worker's start-up waits for at
    most one. Spawned workers re-import the caller's main module, so a script
    that calls this must keep its top-level work under
    `if __name__ == "__main__":`. A worker's exception is raised here, and no
    worker outlives the call, whether it returns or raises.
    """
    if probe_batch_size > len(data.train):
        raise ValueError("probe batch exceeds the training split")
    if probe_batch_size < 2:
        raise ValueError("probe batch needs at least two samples")
    if exhaustive and probe_batch_size > EXHAUSTIVE_MAX:
        raise ValueError(f"exhaustive permutations limited to {EXHAUSTIVE_MAX} samples, "
                         f"got a probe batch of {probe_batch_size}")
    if not exhaustive and permutations < 1:
        raise ValueError("need at least one permutation")
    if checkpoint_every < 1:
        raise ValueError("checkpoint interval must be at least one step")
    probe_rng = np.random.default_rng([cfg.seed, 0x9E3])
    probe_idx = probe_rng.choice(len(data.train), size=probe_batch_size, replace=False)
    probe = data.train[np.sort(probe_idx)]
    vanilla = replace(cfg, mode=CurationMode.OFF, checkpoint_every=checkpoint_every)
    workers = _worker_count()
    pool = None
    if workers > 0:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    jobs: list[tuple] = []  # (_checkpoint_record's arguments, future or None) per checkpoint

    def queue(step: int, snap: MLP) -> None:
        args = (len(jobs), step, snap, probe, data.validation, cfg, permutations, exhaustive)
        jobs.append((args, None if pool is None else pool.submit(_checkpoint_record, *args)))

    try:
        train(net, vanilla, data, checkpoint_hook=queue)
        # workers take the queue from its head; the caller values its tail meanwhile
        mine = {k: _checkpoint_record(*args)
                for k, (args, future) in reversed(list(enumerate(jobs)))
                if future is None or future.cancel()}
        records = [mine[k] if k in mine else future.result()
                   for k, (_, future) in enumerate(jobs)]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    summary = summarize_fidelity(records, floor=floor, exhaustive=exhaustive)
    return records, summary


def summarize_fidelity(records: list[FidelityRecord], floor: float = 0.5,
                       exhaustive: bool = False) -> FidelitySummary:
    per_est: dict[str, EstimatorSummary] = {}
    for est in FIDELITY_ESTIMATORS:
        name = est.value
        vals = [r.pearson[name] for r in records if r.pearson.get(name) is not None]
        degenerate = sum(1 for r in records if r.pearson.get(name) is None)
        if vals:
            arr = np.asarray(vals)
            per_est[name] = EstimatorSummary(
                mean=float(arr.mean()), std=float(arr.std()),
                min=float(arr.min()), max=float(arr.max()),
                checkpoints=len(vals),
                below_floor=int(np.sum(arr < floor)),
                degenerate=degenerate)
        else:
            per_est[name] = EstimatorSummary(mean=0.0, std=0.0, min=0.0, max=0.0,
                                             checkpoints=0, below_floor=0,
                                             degenerate=degenerate)
    return FidelitySummary(per_estimator=per_est, floor=floor,
                           checkpoints_total=len(records), exhaustive=exhaustive)


# --- file emission ---------------------------------------------------------


def emit_reports(records: list[FidelityRecord] | None,
                 summary: FidelitySummary | None,
                 report: TrainingReport | None,
                 out_dir: str | Path) -> list[Path]:
    """Write fidelity.csv / fidelity_summary.json / training_report.json /
    inclusion.csv / scores.csv for whichever inputs are present."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if records is not None:
        path = out / "fidelity.csv"
        rows = []
        for r in records:
            for name in sorted(r.pearson):
                p = r.pearson[name]
                s = r.spearman[name]
                rows.append([r.step, name,
                             "" if p is None else p,
                             "" if s is None else s])
        serialize.write_csv(path, ["step", "estimator", "pearson", "spearman"], rows)
        written.append(path)
    if summary is not None:
        path = out / "fidelity_summary.json"
        doc = {
            "checkpoints_total": summary.checkpoints_total,
            "floor": summary.floor,
            "exhaustive": summary.exhaustive,
            "estimators": {name: asdict(s) for name, s in summary.per_estimator.items()},
        }
        serialize.dump_json(doc, path)
        written.append(path)
    if report is not None:
        path = out / "training_report.json"
        doc = {
            "seed": report.seed,
            "mode": report.mode,
            "estimator": report.estimator,
            "steps_total": report.steps_total,
            "epochs": [asdict(e) for e in report.epoch_stats],
            "probe_traces": {
                str(pid): [[step, val] for step, val in trace]
                for pid, trace in report.probe_traces.items()
            },
            "ledger": {
                method: report.ledger.totals(method)
                for method in sorted({e.method for e in report.ledger.entries})
            },
        }
        serialize.dump_json(doc, path)
        written.append(path)
        inc_path = out / "inclusion.csv"
        serialize.write_lines(inc_path, ["epoch", "sample_id", "kept"], [
            f"{epoch},{sid},{int(kept)}" for epoch, row in enumerate(report.inclusion)
            for sid, kept in zip(report.sample_ids, row)])
        written.append(inc_path)
        sc_path = out / "scores.csv"
        serialize.write_lines(sc_path, ["step", "sample_id", "estimator", "benefit"], [
            f"{step},{sid},{est},{serialize.fmt17(benefit)}"
            for step, sid, est, benefit in report.score_rows])
        written.append(sc_path)
    return written
