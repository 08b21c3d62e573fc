"""Fidelity protocol against the Shapley reference, metrics, and report files."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import DatasetBundle, Sample
from .influence import Estimator, pair_matrix
from .network import MLP
from .oracle import UtilityFn, shapley_mc
from .trainer import (
    CurationMode,
    TrainerConfig,
    TrainingReport,
    sample_taps,
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


def _benefit_scores(net: MLP, probe: list[Sample], val: list[Sample]) -> dict[str, list[float]]:
    """Aggregated benefit scores of each probe sample for the four estimators."""
    val_taps = sample_taps(net, val, backward=True)
    probe_taps = sample_taps(net, probe, backward=True)
    return {est.value: pair_matrix(est, val_taps, probe_taps).sum(axis=0).tolist()
            for est in FIDELITY_ESTIMATORS}


def run_fidelity(net: MLP, cfg: TrainerConfig, data: DatasetBundle,
                 probe_batch_size: int, checkpoint_every: int, permutations: int,
                 exhaustive: bool = False, floor: float = 0.5
                 ) -> tuple[list[FidelityRecord], FidelitySummary]:
    """Train vanilla, then at every checkpoint correlate estimator scores with
    Monte-Carlo Shapley values of a fixed seeded probe batch.

    Checkpoints with a constant score vector (either side) are flagged with
    None correlations and excluded from the summary means.
    """
    if probe_batch_size > len(data.train):
        raise ValueError("probe batch exceeds the training split")
    if probe_batch_size < 2:
        raise ValueError("probe batch needs at least two samples")
    if not data.validation:
        raise ValueError("fidelity needs a validation split")
    snapshots: list[tuple[int, MLP]] = []
    vanilla = replace(cfg, mode=CurationMode.OFF, checkpoint_every=checkpoint_every)
    train(net, vanilla, data, checkpoint_hook=lambda step, snap: snapshots.append((step, snap)))
    probe_rng = np.random.default_rng([cfg.seed, 0x9E3])
    probe_idx = probe_rng.choice(len(data.train), size=probe_batch_size, replace=False)
    probe = [data.train[i] for i in sorted(probe_idx.tolist())]
    records: list[FidelityRecord] = []
    for k, (step, snap) in enumerate(snapshots):
        scores = _benefit_scores(snap, probe, data.validation)
        utility = UtilityFn(snap, data.validation, cfg.learning_rate)
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
        records.append(FidelityRecord(step=step, scores=scores, shapley=shap,
                                      shapley_stderr=est.stderr.tolist(),
                                      pearson=pearsons, spearman=spearmans))
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
            "estimators": {
                name: {
                    "mean": s.mean, "std": s.std, "min": s.min, "max": s.max,
                    "checkpoints": s.checkpoints, "below_floor": s.below_floor,
                    "degenerate": s.degenerate,
                } for name, s in summary.per_estimator.items()
            },
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
            "epochs": [
                {
                    "epoch": e.epoch,
                    "train_loss": e.train_loss,
                    "val_loss": e.val_loss,
                    "test_accuracy": e.test_accuracy,
                    "kept_count": e.kept_count,
                    "scored_count": e.scored_count,
                    "histogram_edges": e.histogram_edges,
                    "histogram_counts": e.histogram_counts,
                } for e in report.epoch_stats
            ],
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
        inc_rows = []
        for epoch, row in enumerate(report.inclusion):
            for sid, kept in zip(report.sample_ids, row):
                inc_rows.append([epoch, sid, int(kept)])
        serialize.write_csv(inc_path, ["epoch", "sample_id", "kept"], inc_rows)
        written.append(inc_path)
        sc_path = out / "scores.csv"
        serialize.write_csv(sc_path, ["step", "sample_id", "estimator", "benefit"],
                            [list(r) for r in report.score_rows])
        written.append(sc_path)
    return written
