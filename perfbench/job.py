"""One benchmark job in a fresh interpreter: set up, run, write outputs, report.

    python3 perfbench/job.py --workload NAME --seed N --out DIR --trace 0|1
                             [--min-run-seconds S]

The program is driven only through the calls `layerval.cli.cmd_train` and
`cmd_fidelity` make (`resolve_config`, `build_dataset`, `build_net`,
`build_trainer_config`, `train` / `run_fidelity`, `save_checkpoint`,
`emit_reports`), so set-up and work are timed apart. The seed reaches the
program only as the config `seed`. Each repetition of the work writes its
outputs to DIR/rep<i>. The last stdout line is one JSON object with the
job's timings, peak RSS and quality figures, plus per-layer figures when
traced.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Each workload is a shipped config plus field overrides; `kind` picks the
# command it mirrors. Why each exists is recorded in BENCHMARK.json, except for
# curate_ghost_wide, which BENCHMARK.json leaves out (see run.py) and which
# runs by name: the same trainer layers with Ghost scoring, full backward
# passes and 256-wide BLAS work, where arithmetic rather than the interpreter
# dominates.
WORKLOADS = {
    "curate_lai": {"kind": "train", "config": "configs/curation.json", "overrides": {}},
    "curate_ghost_wide": {
        "kind": "train",
        "config": "configs/curation.json",
        "overrides": {
            "model": {"layer_dims": [8, 256, 256, 3],
                      "activations": ["relu", "relu", "linear"]},
            "trainer": {"estimator": "ghost", "batch_size": 64,
                        "val_fraction_per_batch": 0.5},
        },
    },
    "fidelity": {"kind": "fidelity", "config": "configs/fidelity.json", "overrides": {}},
}

# The deterministic outputs of each command, digested and checked by run.py.
OUTPUT_FILES = {
    "train": ["training_report.json", "inclusion.csv", "scores.csv", "checkpoint_final.json"],
    "fidelity": ["fidelity.csv", "fidelity_summary.json"],
}
MAX_REPS = 8  # bounds a job's length when the work is very fast


def now() -> float:
    """CLOCK_MONOTONIC is system-wide, so run.py can subtract its own readings."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def flip_detection(inclusion_last: list[bool], noisy: list[bool]) -> dict[str, float]:
    """Recall and precision of the dropped samples against the flipped ones."""
    dropped = [not kept for kept in inclusion_last]
    hits = sum(d and n for d, n in zip(dropped, noisy))
    recall = hits / sum(noisy) if any(noisy) else 0.0
    precision = hits / sum(dropped) if any(dropped) else 0.0
    return {"flip_recall": recall, "flip_precision": precision}


def instrument(tracer) -> None:
    """Wrap each layer's public functions wherever the package binds them."""
    from layerval import data, evaluation, influence, network, oracle, trainer
    from spans import distinct_per_instance

    modules = [m for name, m in sys.modules.items()
               if name == "layerval" or name.startswith("layerval.")]

    def on_cache(t, args, kwargs, cache):
        t.counts["trainer.cache_samples"] += cache.sample_count
        t.counts["trainer.cache_bytes"] = max(t.counts["trainer.cache_bytes"], cache.byte_size)

    def on_curate(t, args, kwargs, decision):
        t.counts["trainer.scored"] += len(decision.kept_mask)
        t.counts["trainer.kept"] += sum(decision.kept_mask)

    def on_sgd(t, args, kwargs, result):
        t.counts["trainer.sgd_samples"] += len(args[1])

    def on_emit(t, args, kwargs, paths):
        t.counts["evaluation.bytes_written"] += sum(p.stat().st_size for p in paths)

    for owner, attr, name, observe in (
        (network, "forward", "network.forward", None),
        (network, "loss_and_output_grad", "network.loss_and_output_grad", None),
        (network, "backward_taps", "network.backward_taps", None),
        (network, "param_grads", "network.param_grads", None),
        (network, "evaluate_sample", "network.evaluate_sample", None),
        (trainer, "build_validation_cache", "trainer.build_validation_cache", on_cache),
        (trainer, "curate_batch", "trainer.curate_batch", on_curate),
        (trainer, "sgd_step", "trainer.sgd_step", on_sgd),
        (trainer, "train", "trainer.train", None),
        (influence, "pair_similarities", "influence.pair_similarities", None),
        (evaluation, "run_fidelity", "evaluation.run_fidelity", None),
        (evaluation, "emit_reports", "evaluation.emit_reports", on_emit),
        (oracle.UtilityFn, "__init__", "oracle.UtilityFn", None),
        (oracle.UtilityFn, "bind_batch", "oracle.bind_batch", None),
        (oracle.UtilityFn, "utility_of_mask", "oracle.utility_of_mask",
         distinct_per_instance("oracle.unique_masks")),
        (oracle, "shapley_mc", "oracle.shapley_mc", None),
        (data, "make_noisy_blob_bundle", "data.make_noisy_blob_bundle", None),
    ):
        tracer.instrument(modules, owner, attr, name, observe)


def layer_metrics(tracer, import_s: float, estimator: str | None,
                  ledger_macs: int, quality: dict) -> dict[str, float]:
    """Flatten span statistics and counters into `<layer>.<stat>` figures."""
    out: dict[str, float] = {"import.s": import_s}
    for name, stats in tracer.summary().items():
        for stat, value in stats.items():
            out[f"{name}.{stat}"] = value
    counts = tracer.counts
    for key in ("trainer.cache_samples", "trainer.cache_bytes", "trainer.scored",
                "trainer.sgd_samples", "evaluation.bytes_written", "oracle.unique_masks"):
        out[key] = counts[key]
    out["trainer.kept_ratio"] = counts["trainer.kept"] / counts["trainer.scored"] \
        if counts["trainer.scored"] else 0.0
    calls = out["oracle.utility_of_mask.calls"]
    out["oracle.unique_mask_ratio"] = counts["oracle.unique_masks"] / calls if calls else 0.0
    busy = out["trainer.curate_batch.s"]
    for est in ("lai", "ghost"):
        out[f"trainer.score_ns_per_mac.{est}"] = \
            1e9 * busy / ledger_macs if est == estimator and ledger_macs else 0.0
    for layer, key in (("trainer", "test_acc"), ("trainer", "flip_recall"),
                       ("trainer", "flip_precision"), ("evaluation", "pearson_lai"),
                       ("evaluation", "pearson_ghost")):
        out[f"{layer}.{key}"] = quality.get(key, 0.0)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-run-seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.trace and args.min_run_seconds:
        parser.error("a traced job runs the work once")
    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    t0 = now()
    sys.path.insert(0, str(ROOT / "src"))
    from layerval import cli
    t_import = now()
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "layerval":
        raise SystemExit(f"layerval imported from {cli.__file__}, not from {ROOT / 'src'}")
    if tracer is not None:
        instrument(tracer)
    raw = json.loads((ROOT / workload["config"]).read_text(encoding="utf-8"))
    for section, fields in workload["overrides"].items():
        raw[section] = {**raw.get(section, {}), **fields}
    raw["seed"] = args.seed
    raw["output_dir"] = str(out)
    config = cli.resolve_config(raw)
    bundle = cli.build_dataset(config)
    net = cli.build_net(config)
    cfg = cli.build_trainer_config(config)
    t_setup = now()

    # Untraced jobs repeat the work until --min-run-seconds is spent, so short
    # workloads give several run_s samples per interpreter start.
    run_s: list[float] = []
    t_first_end = None
    while not run_s or (sum(run_s) < args.min_run_seconds and len(run_s) < MAX_REPS):
        rep_out = out / f"rep{len(run_s)}"
        rep_out.mkdir(parents=True)
        t_rep = now()
        if workload["kind"] == "train":
            report, final_net = cli.train(net, cfg, bundle)
            cli.save_checkpoint(final_net, rep_out / "checkpoint_final.json")
            cli.emit_reports(None, None, report, rep_out)
        else:
            f = config["fidelity"]
            records, summary = cli.run_fidelity(
                net, cfg, bundle, probe_batch_size=f["probe_batch_size"],
                checkpoint_every=f["checkpoint_every"], permutations=f["permutations"],
                exhaustive=f["exhaustive"], floor=float(f["floor"]))
            cli.emit_reports(records, summary, None, rep_out)
        t_done = now()
        run_s.append(t_done - t_rep)
        t_first_end = t_first_end or t_done

    result = {
        "t_end": t_first_end,
        "setup_s": t_setup - t0,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    estimator, ledger_macs = None, 0
    if workload["kind"] == "train":
        quality = flip_detection(report.inclusion[-1], [s.noisy for s in bundle.train])
        quality["test_acc"] = report.epoch_stats[-1].test_accuracy
        result["samples"] = cfg.epochs * len(bundle.train)
        estimator = cfg.estimator.value
        ledger_macs = report.ledger.totals(estimator)["macs"]
    else:
        quality = {f"pearson_{name}": s.mean for name, s in summary.per_estimator.items()}
        quality["estimators_below_floor"] = sum(
            s.mean < summary.floor for s in summary.per_estimator.values())
        result["samples"] = summary.checkpoints_total * config["fidelity"]["probe_batch_size"]
        result["checkpoints"] = summary.checkpoints_total
    result["quality"] = quality
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, t_import - t0, estimator, ledger_macs, quality)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
