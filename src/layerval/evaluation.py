"""Fidelity protocol against the Shapley reference, metrics, and report files."""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .data import DatasetBundle, Split
from .influence import Estimator, pair_matrix
from .network import MLP
from .oracle import EXHAUSTIVE_MAX, UtilityFn, shapley_mc
from .trainer import (
    CurationMode,
    TrainerConfig,
    TrainingReport,
    checkpoint_steps,
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
    probe_ids: list[int]  # sample ids of the shapley entries


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
    mean_stderr_to_spread: float | None = None  # None: no checkpoint with a value spread


def _worker_count() -> int:
    """Usable CPUs: the caller trains on one, forked workers value checkpoints on the rest."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _checkpoint_record(k: int, step: int, snap: MLP, probe: Split, val: Split,
                       cfg: TrainerConfig, permutations: int, exhaustive: bool) -> FidelityRecord:
    """Correlate each estimator's probe scores at checkpoint k with its Shapley values."""
    utility = UtilityFn(snap, val, probe, cfg.learning_rate)
    mc_seed = cfg.seed * 1_000_003 + 7919 * (k + 1)
    est = shapley_mc(utility, permutations, seed=mc_seed, exhaustive=exhaustive)
    scores = {e.value: pair_matrix(e, utility.val_taps, utility.bound_taps).sum(axis=0).tolist()
              for e in FIDELITY_ESTIMATORS}
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
                          pearson=pearsons, spearman=spearmans,
                          probe_ids=probe.ids.tolist())


def _value_from_front(conn, bounds, lock, value) -> None:
    """A forked worker's loop: claim checkpoints from the front of the shared
    bounds = [front, back), reading every snapshot waiting on conn before each
    claim, until the caller's end marker (None) has arrived and the ends meet;
    then send conn the records by checkpoint index, or the exception and its
    traceback."""
    snaps: list = []
    records: dict[int, FidelityRecord] = {}
    try:
        while True:
            while conn.poll():
                snaps.append(conn.recv())
            with lock:
                k = bounds[0]
                claimed = k < min(bounds[1], len(snaps))
                if claimed:
                    bounds[0] = k + 1
            if claimed:
                records[k] = value(k, *snaps[k])
            elif snaps and snaps[-1] is None:  # training is over and the ends have met
                break
            else:
                snaps.append(conn.recv())  # wait for the next checkpoint, or the end
        conn.send(records)
    except Exception as exc:  # the caller raises it again
        import traceback  # imported here, so that importing this module does not load it

        conn.send((exc, traceback.format_exc()))


def _lost(proc) -> RuntimeError:
    proc.join()
    return RuntimeError(f"fidelity worker {proc.pid} exited with code {proc.exitcode} "
                        "before returning its records")


@contextlib.contextmanager
def _held(lock, workers):
    """Hold the checkpoint lock, raising instead of waiting forever once a
    worker has died: a killed worker may have died holding it."""
    while not lock.acquire(timeout=0.1):
        for proc, _ in workers:
            if proc.exitcode:
                raise _lost(proc)
    try:
        yield
    finally:
        lock.release()


def _collect(proc, conn) -> dict[int, FidelityRecord]:
    """A worker's records by checkpoint index; its exception is raised here."""
    try:
        result = conn.recv()
    except (EOFError, ConnectionError):
        raise _lost(proc) from None
    if isinstance(result, tuple):
        exc, trace = result
        raise exc from RuntimeError(f"in fidelity worker {proc.pid}:\n{trace}")
    return result


def run_fidelity(net: MLP, cfg: TrainerConfig, data: DatasetBundle,
                 probe_batch_size: int, checkpoint_every: int, permutations: int,
                 exhaustive: bool = False, floor: float = 0.5
                 ) -> tuple[list[FidelityRecord], FidelitySummary]:
    """Train vanilla, then at every checkpoint correlate estimator scores with
    Monte-Carlo Shapley values of a fixed seeded probe batch.

    Checkpoints with a constant score vector (either side) are flagged with
    None correlations and excluded from the summary means.

    On Linux, min(usable CPUs, checkpoints) - 1 workers are forked before
    training (checkpoints from trainer.checkpoint_steps), from an explicit
    `fork` context whatever the default start method: `spawn` and
    `forkserver` re-import numpy and this package in every worker (0.40 s
    against 0.16 s with `fork` on the shipped config), and other platforms
    do not promise that `fork` is safe. The checkpoint hook sends every
    worker each (step, snapshot) over a pipe, so the caller trains with no
    helper thread. The unvalued checkpoints are a shared [front, back) pair
    under one lock: a worker claims from the front, first reading every
    snapshot waiting on its pipe, so a send blocks for at most one
    checkpoint's valuation. When training ends the caller sets back, values
    checkpoints from the back until the ends meet, then collects each
    worker's records. With one usable CPU or one checkpoint, or on another
    platform, there are no workers and the caller values every checkpoint
    the same way.
    Each checkpoint keeps its own seed, so the records are the same bytes at
    any worker count. A worker's exception is raised here, chained to its
    traceback; a worker that dies makes this raise RuntimeError naming its
    pid. No worker outlives the call, whether it returns or raises.
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

    def value(k: int, step: int, snap: MLP) -> FidelityRecord:
        return _checkpoint_record(k, step, snap, probe, data.validation, cfg,
                                  permutations, exhaustive)

    snaps: list[tuple[int, MLP]] = []
    # [front, back) of the unvalued checkpoints; back is unknown until training ends
    bounds, lock, workers = [0, sys.maxsize], threading.Lock(), []

    def send_all(item) -> None:
        for _, conn in workers:
            with contextlib.suppress(ConnectionError):  # a stopped worker raises in _collect
                conn.send(item)

    def hook(step: int, snap: MLP) -> None:
        snaps.append((step, snap))
        send_all((step, snap))

    records: dict[int, FidelityRecord] = {}
    forks = min(_worker_count(), len(checkpoint_steps(vanilla, len(data.train)))) - 1
    try:
        if sys.platform.startswith("linux") and forks > 0:
            import mmap
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            bounds = memoryview(mmap.mmap(-1, 16)).cast("q")  # shared with the forks
            bounds[1] = sys.maxsize
            lock = ctx.Lock()
            for _ in range(forks):
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=_value_from_front, args=(child, bounds, lock, value),
                                   daemon=True)
                proc.start()
                child.close()
                workers.append((proc, conn))
        train(net, vanilla, data, checkpoint_hook=hook)
        with _held(lock, workers):
            bounds[1] = len(snaps)
        send_all(None)
        while True:
            with _held(lock, workers):
                k = bounds[1] - 1
                claimed = k >= bounds[0]
                if claimed:
                    bounds[1] = k
            if not claimed:
                break
            records[k] = value(k, *snaps[k])
        for proc, conn in workers:
            records.update(_collect(proc, conn))
    except BaseException:
        for proc, _ in workers:
            proc.kill()
        raise
    finally:
        for proc, conn in workers:
            proc.join()
            conn.close()
    ordered = [records[k] for k in range(len(snaps))]
    summary = summarize_fidelity(ordered, floor=floor, exhaustive=exhaustive)
    return ordered, summary


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
    # each checkpoint's mean Monte-Carlo stderr as a share of its Shapley value spread
    ratios = [float(np.mean(r.shapley_stderr)) / spread for r in records
              if (spread := max(r.shapley) - min(r.shapley)) > 0]
    return FidelitySummary(per_estimator=per_est, floor=floor,
                           checkpoints_total=len(records), exhaustive=exhaustive,
                           mean_stderr_to_spread=float(np.mean(ratios)) if ratios else None)


# --- file emission ---------------------------------------------------------


def emit_reports(records: list[FidelityRecord] | None,
                 summary: FidelitySummary | None,
                 report: TrainingReport | None,
                 out_dir: str | Path) -> list[Path]:
    """Write, for whichever inputs are present: fidelity.csv, shapley.csv and
    scores.csv (records), fidelity_summary.json (summary), and
    training_report.json, inclusion.csv and scores.csv (report)."""
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
        path = out / "shapley.csv"
        serialize.write_csv(path, ["step", "sample_id", "value", "stderr"], [
            [r.step, sid, value, stderr] for r in records
            for sid, value, stderr in zip(r.probe_ids, r.shapley, r.shapley_stderr)])
        written.append(path)
        path = out / "scores.csv"
        # one row per checkpoint, probe sample and estimator (in fidelity.csv's order)
        cells = [(f"{r.step},{sid},{name},", r.scores[name][i]) for r in records
                 for i, sid in enumerate(r.probe_ids) for name in sorted(r.scores)]
        serialize.write_lines(path, ["step", "sample_id", "estimator", "benefit"], [
            head + benefit for (head, _), benefit
            in zip(cells, serialize.fmt17_column([b for _, b in cells]))])
        written.append(path)
    if summary is not None:
        path = out / "fidelity_summary.json"
        doc = {
            "checkpoints_total": summary.checkpoints_total,
            "floor": summary.floor,
            "exhaustive": summary.exhaustive,
            "mean_stderr_to_spread": summary.mean_stderr_to_spread,
            "estimators": {name: asdict(s) for name, s in summary.per_estimator.items()},
        }
        serialize.dump_json(doc, path)
        written.append(path)
    if report is not None:
        # serialize takes Python ints and floats only: each column is listed first
        traces = {}
        for pid in report.probe_ids.tolist():
            hit = report.score_ids == pid
            traces[str(pid)] = [list(row) for row in zip(report.score_steps[hit].tolist(),
                                                         report.score_benefits[hit].tolist())]
        path = out / "training_report.json"
        doc = {
            "seed": report.seed,
            "mode": report.mode,
            "estimator": report.estimator,
            "steps_total": report.steps_total,
            "epochs": [asdict(e) for e in report.epoch_stats],
            "probe_traces": traces,
            "ledger": {method: report.ledger.totals(method)
                       for method in sorted(report.ledger.by_method)},
        }
        serialize.dump_json(doc, path)
        written.append(path)
        inc_path = out / "inclusion.csv"
        # each sample's "sample_id,1" and "sample_id,0" cells; one block of lines per epoch
        sids = report.sample_ids.tolist()
        kept, dropped = (np.array([f"{sid},{flag}" for sid in sids], dtype=object)
                         for flag in (1, 0))
        serialize.write_lines(inc_path, ["epoch", "sample_id", "kept"], [
            f"{epoch}," + f"\n{epoch},".join(row)
            for epoch, row in enumerate(np.where(report.inclusion, kept, dropped).tolist())])
        written.append(inc_path)
        sc_path = out / "scores.csv"
        est = report.estimator
        serialize.write_lines(sc_path, ["step", "sample_id", "estimator", "benefit"], [
            f"{step},{sid},{est},{benefit}"
            for step, sid, benefit in zip(report.score_steps.tolist(), report.score_ids.tolist(),
                                          serialize.fmt17_column(report.score_benefits))])
        written.append(sc_path)
    return written
