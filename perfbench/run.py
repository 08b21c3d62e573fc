"""The layerval benchmark: time the shipped valuation jobs and check their outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each job is one closed, sequential batch job in a fresh interpreter
(perfbench/job.py); a run repeats jobs until --seconds is spent and reports
medians. Timed jobs run with OPENBLAS_NUM_THREADS=1: the jobs are
sequential, and a second BLAS thread on a shared 2-core host made ~256-wide
matvecs both slower and more variable. With --trace 0 a run measures the
end-to-end metrics. With --trace 1 it runs one job with the inherited BLAS
thread setting that only takes part in the output checks, then alternates
untraced and traced jobs, and reports the per-layer metrics and the tracing
overhead. Metric names and units come from BENCHMARK.json. Every job's
outputs are checked: identical digests across the run (both BLAS thread
settings, traced or not), Ghost and IP fidelity means equal to 1e-9, and
consistency of the written files with each other and with the in-memory
results. A failed check, a non-zero exit or an exception fails the job.
Human-readable lines come first; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs every
workload untraced and then traced.

BENCHMARK.json lists curate_lai and fidelity only. On the shared 2-core host
the benchmark was built on, host speed drifted by up to a third between
minutes and curate_ghost_wide varied most, so the listed runs measure for
60 s each to average more of the drift; curate_ghost_wide runs by name or
with `all`.

End-to-end metrics, each the median over the run's untraced jobs:
  wall_s         interpreter start to the first outputs written
  setup_s        import of layerval.cli (numpy and scipy included), config,
                 build_dataset, build_net and build_trainer_config
  run_s          one train / run_fidelity call plus writing its outputs
  samples_per_s  curate_*: epochs x train-split size / run_s;
                 fidelity: probe samples valued (checkpoints x probe) / run_s
  peak_rss_mb    the job's max RSS
The quality figures (final test_acc, flip_recall, flip_precision, Pearson
per estimator against Shapley, estimators_below_floor), checkpoints_per_s
and failed_share are printed as extra lines: they are workload-specific, and
the deterministic ones vary with the seed's data, so they carry no bound.
The traced run reports the main ones again among the per-layer figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from job import OUTPUT_FILES, WORKLOADS, now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_TIMED_JOBS = 3  # untraced jobs per run at least, however short --seconds is
MIN_RUN_S = 2.0  # an untraced job repeats the work until it has run this long
RUN_LIMIT_S = 170.0  # one run never starts a job it could not finish by then


class JobFailed(Exception):
    pass


def machine_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {"timed": "1",
                         "check": os.environ.get("OPENBLAS_NUM_THREADS", "default")},
        "loadavg": list(os.getloadavg()),
    }


def check_outputs(kind: str, out: Path, result: dict) -> str:
    """Check the written files against the job's in-memory results; return their digest."""
    digest = hashlib.sha256()
    for name in OUTPUT_FILES[kind]:
        path = out / name
        if not path.is_file():
            raise JobFailed(f"missing output {name}")
        digest.update(name.encode() + b"\0" + path.read_bytes())
    quality = result["quality"]
    if kind == "train":
        report = json.loads((out / "training_report.json").read_text(encoding="utf-8"))
        epochs = report["epochs"]
        rows = (out / "inclusion.csv").read_text(encoding="utf-8").splitlines()[1:]
        last = [r for r in rows if r.split(",")[0] == str(len(epochs) - 1)]
        if len(rows) != len(epochs) * len(last):
            raise JobFailed(f"inclusion.csv has {len(rows)} rows for {len(epochs)} epochs")
        if sum(r.endswith(",1") for r in last) != epochs[-1]["kept_count"]:
            raise JobFailed("inclusion.csv disagrees with the report's kept_count")
        scores = (out / "scores.csv").read_text(encoding="utf-8").splitlines()[1:]
        if len(scores) != sum(e["scored_count"] for e in epochs):
            raise JobFailed("scores.csv disagrees with the report's scored_count")
        if epochs[-1]["test_accuracy"] != quality["test_acc"]:
            raise JobFailed("training_report.json disagrees with the returned report")
    else:
        summary = json.loads((out / "fidelity_summary.json").read_text(encoding="utf-8"))
        per_est = summary["estimators"]
        if abs(per_est["ghost"]["mean"] - per_est["ip"]["mean"]) > 1e-9:
            raise JobFailed("Ghost and IP fidelity means differ by more than 1e-9")
        pearsons: dict[str, list[float]] = {name: [] for name in per_est}
        for row in (out / "fidelity.csv").read_text(encoding="utf-8").splitlines()[1:]:
            _, name, pearson, _ = row.split(",")
            if pearson:
                pearsons[name].append(float(pearson))
        for name, s in per_est.items():
            values = pearsons[name]
            if (len(values) != s["checkpoints"]
                    or sum(v < summary["floor"] for v in values) != s["below_floor"]
                    or values and abs(sum(values) / len(values) - s["mean"]) > 1e-12):
                raise JobFailed(f"fidelity.csv disagrees with the {name} summary")
        if per_est["lai"]["mean"] != quality["pearson_lai"]:
            raise JobFailed("fidelity_summary.json disagrees with the returned summary")
    return digest.hexdigest()


def run_job(workload: str, seed: int, trace: bool, min_run_s: float, out: Path,
            env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--trace", str(int(trace)),
           "--min-run-seconds", str(min_run_s)]
    t_spawn = now()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise JobFailed(f"timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise JobFailed(f"exit code {proc.returncode}: {tail[0]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise JobFailed("job printed no result line")
    result = json.loads(lines[-1])
    result["wall_s"] = result["t_end"] - t_spawn
    digests = {check_outputs(WORKLOADS[workload]["kind"], out / f"rep{i}", result)
               for i in range(len(result["run_s"]))}
    if len(digests) > 1:
        raise JobFailed("repetitions in one process wrote different outputs")
    result["digest"] = digests.pop()
    return result


def job_roles(trace: bool):
    """Untraced runs only time jobs. Traced runs first check the outputs under
    the inherited BLAS thread setting, then alternate untraced and traced jobs."""
    if trace:
        yield "check"
        while True:
            yield "timed"
            yield "traced"
    while True:
        yield "timed"


def run_set(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Repeat jobs for `seconds`; returns the jobs by role and the failure notes."""
    start = now()
    check_env = dict(os.environ)
    timed_env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    jobs: dict[str, list[dict]] = {"check": [], "timed": [], "traced": []}
    failures: list[str] = []
    durations: list[float] = []
    digests: set[str] = set()
    for k, role in enumerate(job_roles(trace), start=1):
        env = check_env if role == "check" else timed_env
        out = work / f"job{k}"
        t0 = now()
        try:
            result = run_job(workload, seed, role == "traced",
                             0.0 if trace else MIN_RUN_S, out, env,
                             timeout=max(1.0, start + RUN_LIMIT_S - t0))
            digests.add(result["digest"])
            if len(digests) > 1:
                raise JobFailed("output digest differs from an earlier job of this run")
            jobs[role].append(result)
        except (JobFailed, ValueError, KeyError) as exc:
            failures.append(f"job {k} ({role}): {exc}")
        shutil.rmtree(out, ignore_errors=True)
        durations.append(now() - t0)
        step = statistics.median(durations) * (2 if trace else 1)
        enough = k % 2 == 1 and k > 1 if trace else k >= MIN_TIMED_JOBS
        if now() + step > start + RUN_LIMIT_S or (enough and now() + step > start + seconds):
            break
    return {"jobs": jobs, "attempted": k, "failures": failures}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(timed: list[dict]) -> dict[str, list[float]]:
    return {
        "wall_s": [r["wall_s"] for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
        "run_s": [t for r in timed for t in r["run_s"]],
        "samples_per_s": [r["samples"] / t for r in timed for t in r["run_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }


def per_layer(timed: list[dict], traced: list[dict]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for r in traced:
        for name, value in r["layers"].items():
            samples.setdefault(name, []).append(value)
    overhead = (statistics.median(r["run_s"][0] for r in traced)
                - statistics.median(r["run_s"][0] for r in timed))
    samples["trace.overhead_s"] = [overhead]
    return samples


def report(workload: str, seed: int, trace: bool, outcome: dict, spec: dict) -> dict | None:
    """Print the human-readable lines and return the result object, or None."""
    jobs = outcome["jobs"]
    attempted, failed = outcome["attempted"], len(outcome["failures"])
    for note in outcome["failures"]:
        print(f"{workload} FAILED {note}")
    if not jobs["timed"] or (trace and not jobs["traced"]):
        return None
    if trace:
        samples = per_layer(jobs["timed"], jobs["traced"])
        wanted = spec["per_layer"]
    else:
        samples = end_to_end(jobs["timed"])
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        values = samples[m["name"]]
        value = statistics.median(values)
        q1, q3 = _quartiles(values)
        print(f"{workload} {m['name']} = {value:.6g} {m['unit']}"
              f"  (median of {len(values)}, q1 {q1:.6g}, q3 {q3:.6g})")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    first = (jobs["timed"] + jobs["traced"])[0]
    if not trace:
        extras = dict(first["quality"])
        if "checkpoints" in first:
            extras["checkpoints_per_s"] = statistics.median(
                first["checkpoints"] / t for r in jobs["timed"] for t in r["run_s"])
        extras["failed_share"] = failed / attempted
        for name, value in extras.items():
            unit = "1/s" if name.endswith("_per_s") else "count" if name.endswith("floor") \
                else "ratio"
            print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} seed {seed}: {attempted} jobs, {failed} failed, "
          f"digest {first['digest'][:16]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    needed = ["BENCHMARK.json", "src/layerval/__init__.py"] + [w["config"] for w in WORKLOADS.values()]
    missing = [p for p in dict.fromkeys(needed) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a layerval checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("machine " + json.dumps(machine_record()))
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    results = {}
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for workload, trace in plan:
            outcome = run_set(workload, args.seed, args.seconds, trace, work)
            results[(workload, trace)] = report(workload, args.seed, trace, outcome, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if any(r is None for r in results.values()):
        print("perfbench: no successful job to report", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({f"{w}{'.trace' if t else ''}": r for (w, t), r in results.items()}))
    else:
        print(json.dumps(results[plan[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
