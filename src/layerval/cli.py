"""Config-driven command line: generate / train / fidelity / diagnose.

One JSON config drives a run; `--set section.key=value` overrides fields,
`--seed` overrides the global seed, `--out` the output directory. Every run
writes `resolved_config.json` with all defaults expanded so outputs are
self-describing. Exit codes: 0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import serialize
from .data import load_bundle, make_noisy_blob_bundle
from .evaluation import emit_reports, run_fidelity
from .influence import Estimator, bound_diagnostics, variance_diagnostic
from .network import MLP, load_checkpoint, save_checkpoint
from .oracle import EXHAUSTIVE_MAX
from .trainer import (
    CostLedger,
    TrainerConfig,
    build_validation_cache,
    curate_batch,
    ledger_compare,
    sample_taps,
    train,
)


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


DEFAULT_CONFIG = {
    "seed": 0,
    "output_dir": "runs/default",
    "dataset": {
        "kind": "blobs",
        "num_classes": 3,
        "per_class": 200,
        "feature_dim": 8,
        "spread": 0.35,
        "flip_rate": 0.4,
        "fractions": [0.8, 0.1, 0.1],
        "dir": None,
    },
    "model": {
        "layer_dims": [8, 16, 3],
        "activations": ["relu", "linear"],
    },
    "trainer": {
        "learning_rate": 0.05,
        "momentum": 0.0,
        "batch_size": 16,
        "epochs": 10,
        "warmup_epochs": 3,
        "estimator": "lai",
        "mode": "validation",
        "threshold": 0.0,
        "val_fraction_per_batch": 0.1,
        "cache_refresh_steps": 1,
        "empty_batch_policy": "skip",
        "checkpoint_every": 0,
        "probe_sample_count": 3,
        "layer_calibration": False,
        "precond_decay": 0.9,
        "precond_floor": 1e-8,
    },
    "fidelity": {
        "probe_batch_size": 16,
        "checkpoint_every": 15,
        "permutations": 1000,
        "exhaustive": False,
        "floor": 0.5,
    },
    "diagnose": {
        "checkpoint": None,
        "pair_count": 8,
        "resamples": 100,
        "subset_size": 8,
    },
}

_VALIDATORS = {
    "seed": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "output_dir": lambda v: isinstance(v, str) and v,
    "dataset.kind": lambda v: v in ("blobs", "csv"),
    "dataset.num_classes": lambda v: isinstance(v, int) and v >= 2,
    "dataset.per_class": lambda v: isinstance(v, int) and v >= 1,
    "dataset.feature_dim": lambda v: isinstance(v, int) and v >= 1,
    "dataset.spread": lambda v: _is_num(v) and v >= 0,
    "dataset.flip_rate": lambda v: _is_num(v) and 0 <= v <= 1,
    "dataset.fractions": lambda v: (isinstance(v, list) and len(v) == 3
                                    and all(_is_num(f) and f > 0 for f in v)
                                    and abs(sum(v) - 1.0) < 1e-9),
    "dataset.dir": lambda v: v is None or isinstance(v, str),
    "model.layer_dims": lambda v: (isinstance(v, list) and len(v) >= 2
                                   and all(isinstance(d, int) and d >= 1 for d in v)),
    "model.activations": lambda v: (isinstance(v, list)
                                    and all(a in ("linear", "relu", "tanh") for a in v)),
    "trainer.learning_rate": lambda v: _is_num(v) and v > 0,
    "trainer.momentum": lambda v: _is_num(v) and 0 <= v < 1,
    "trainer.batch_size": lambda v: isinstance(v, int) and v >= 1,
    "trainer.epochs": lambda v: isinstance(v, int) and v >= 0,
    "trainer.warmup_epochs": lambda v: isinstance(v, int) and v >= 0,
    "trainer.estimator": lambda v: v in [e.value for e in Estimator],
    "trainer.mode": lambda v: v in ("validation", "self", "off"),
    "trainer.threshold": lambda v: _is_num(v) and math.isfinite(v),
    "trainer.val_fraction_per_batch": lambda v: _is_num(v) and 0 < v <= 1,
    "trainer.cache_refresh_steps": lambda v: isinstance(v, int) and v >= 1,
    "trainer.empty_batch_policy": lambda v: v in ("skip", "keep_top1"),
    "trainer.checkpoint_every": lambda v: isinstance(v, int) and v >= 0,
    "trainer.probe_sample_count": lambda v: isinstance(v, int) and v >= 0,
    "trainer.layer_calibration": lambda v: isinstance(v, bool),
    "trainer.precond_decay": lambda v: _is_num(v) and 0 < v < 1,
    "trainer.precond_floor": lambda v: _is_num(v) and v > 0,
    "fidelity.probe_batch_size": lambda v: isinstance(v, int) and v >= 2,
    "fidelity.checkpoint_every": lambda v: isinstance(v, int) and v >= 1,
    "fidelity.permutations": lambda v: isinstance(v, int) and v >= 1,
    "fidelity.exhaustive": lambda v: isinstance(v, bool),
    "fidelity.floor": lambda v: _is_num(v) and -1 <= v <= 1,
    "diagnose.checkpoint": lambda v: v is None or isinstance(v, str),
    "diagnose.pair_count": lambda v: isinstance(v, int) and v >= 1,
    "diagnose.resamples": lambda v: isinstance(v, int) and v >= 2,
    "diagnose.subset_size": lambda v: isinstance(v, int) and v >= 1,
}


def resolve_config(raw: dict) -> dict:
    """Overlay a user config on the defaults, rejecting unknown keys and
    validating every field; returns the fully expanded config."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    resolved = copy.deepcopy(DEFAULT_CONFIG)
    for key, value in raw.items():
        if key not in resolved:
            raise ConfigError(key, "unknown key")
        if isinstance(resolved[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(key, "expected an object")
            for sub, subval in value.items():
                if sub not in resolved[key]:
                    raise ConfigError(f"{key}.{sub}", "unknown key")
                resolved[key][sub] = subval
        else:
            resolved[key] = value
    for path, check in _VALIDATORS.items():
        parts = path.split(".")
        value = resolved[parts[0]] if len(parts) == 1 else resolved[parts[0]][parts[1]]
        if not check(value):
            raise ConfigError(path, f"invalid value {value!r}")
    model = resolved["model"]
    if len(model["activations"]) != len(model["layer_dims"]) - 1:
        raise ConfigError("model.activations", "need one activation per layer")
    if model["activations"][-1] != "linear":
        raise ConfigError("model.activations", "final layer activation must be linear")
    if resolved["trainer"]["warmup_epochs"] > resolved["trainer"]["epochs"]:
        raise ConfigError("trainer.warmup_epochs", "cannot exceed trainer.epochs")
    if resolved["dataset"]["kind"] == "blobs" \
            and model["layer_dims"][0] != resolved["dataset"]["feature_dim"]:
        raise ConfigError("model.layer_dims", "first dim must match dataset.feature_dim")
    if resolved["dataset"]["kind"] == "csv" and not resolved["dataset"]["dir"]:
        raise ConfigError("dataset.dir", "required when dataset.kind is 'csv'")
    if resolved["fidelity"]["exhaustive"] \
            and resolved["fidelity"]["probe_batch_size"] > EXHAUSTIVE_MAX:
        raise ConfigError("fidelity.exhaustive",
                          f"needs fidelity.probe_batch_size <= {EXHAUSTIVE_MAX}")
    return resolved


def apply_overrides(config: dict, sets: list[str], seed: int | None,
                    out: str | None) -> dict:
    config = copy.deepcopy(config)
    for item in sets:
        if "=" not in item:
            raise ConfigError("--set", f"expected key=value, got {item!r}")
        key, _, raw_value = item.partition("=")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        parts = key.split(".")
        node = config
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(key, "unknown key")
            node = node[part]
        if not isinstance(node, dict) or parts[-1] not in node:
            raise ConfigError(key, "unknown key")
        node[parts[-1]] = value
    if seed is not None:
        config["seed"] = seed
    if out is not None:
        config["output_dir"] = out
    return config


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError("--config", f"file not found: {path}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError("--config", f"invalid JSON: {exc}") from exc


def build_dataset(config: dict):
    ds = config["dataset"]
    if ds["kind"] == "csv" or ds["dir"]:
        d = Path(ds["dir"])
        for name in ("train.csv", "val.csv", "test.csv"):
            if not (d / name).exists():
                raise FileNotFoundError(f"dataset file missing: {d / name}")
        manifest_path = d / "manifest.json"
        noise = ds["flip_rate"]
        if manifest_path.exists():
            noise = serialize.load_json(manifest_path).get("flip_rate", noise)
        bundle = load_bundle(d, noise_rate=noise, seed=config["seed"])
        _check_csv_fits_model(d, bundle, config["model"]["layer_dims"])
        return bundle
    return make_noisy_blob_bundle(
        num_classes=ds["num_classes"], per_class=ds["per_class"],
        feature_dim=ds["feature_dim"], spread=ds["spread"],
        flip_rate=ds["flip_rate"], fractions=tuple(ds["fractions"]),
        seed=config["seed"])


def _check_csv_fits_model(d: Path, bundle, layer_dims: list[int]) -> None:
    """Reject CSV splits whose feature dim or labels the model cannot take."""
    in_dim, out_dim = layer_dims[0], layer_dims[-1]
    for name, samples in (("train.csv", bundle.train), ("val.csv", bundle.validation),
                          ("test.csv", bundle.test)):
        if samples and samples[0].features.shape[0] != in_dim:
            raise ValueError(f"{d / name}: feature dim {samples[0].features.shape[0]} "
                             f"!= model.layer_dims[0] = {in_dim}")
        for lineno, s in enumerate(samples, start=2):
            if s.label >= out_dim:
                raise ValueError(f"{d / name}: line {lineno}: label {s.label} "
                                 f">= model.layer_dims[-1] = {out_dim}")


def build_net(config: dict) -> MLP:
    model = config["model"]
    return MLP.initialize(model["layer_dims"], model["activations"], seed=config["seed"])


def build_trainer_config(config: dict) -> TrainerConfig:
    t = config["trainer"]
    return TrainerConfig(
        learning_rate=float(t["learning_rate"]), momentum=float(t["momentum"]),
        batch_size=t["batch_size"], epochs=t["epochs"],
        warmup_epochs=t["warmup_epochs"], estimator=Estimator(t["estimator"]),
        mode=t["mode"], threshold=float(t["threshold"]),
        val_fraction_per_batch=float(t["val_fraction_per_batch"]),
        cache_refresh_steps=t["cache_refresh_steps"], seed=config["seed"],
        empty_batch_policy=t["empty_batch_policy"],
        checkpoint_every=t["checkpoint_every"],
        probe_sample_count=t["probe_sample_count"],
        layer_calibration=t["layer_calibration"],
        precond_decay=float(t["precond_decay"]),
        precond_floor=float(t["precond_floor"]),
    )


def _prepare_out(config: dict) -> Path:
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    serialize.dump_json(config, out / "resolved_config.json")
    return out


def cmd_generate(config: dict) -> int:
    out = _prepare_out(config)
    bundle = build_dataset(config)
    from .data import write_bundle

    write_bundle(bundle, out, fractions=tuple(config["dataset"]["fractions"]))
    return 0


def cmd_train(config: dict) -> int:
    out = _prepare_out(config)
    bundle = build_dataset(config)
    net = build_net(config)
    cfg = build_trainer_config(config)
    hook = None
    if cfg.checkpoint_every > 0:
        ckpt_dir = out / "checkpoints"
        ckpt_dir.mkdir(exist_ok=True)

        def hook(step: int, snap: MLP) -> None:
            save_checkpoint(snap, ckpt_dir / f"step_{step:06d}.json")

    report, final_net = train(net, cfg, bundle, checkpoint_hook=hook)
    save_checkpoint(final_net, out / "checkpoint_final.json")
    emit_reports(None, None, report, out)
    return 0


def cmd_fidelity(config: dict) -> int:
    out = _prepare_out(config)
    bundle = build_dataset(config)
    net = build_net(config)
    cfg = build_trainer_config(config)
    f = config["fidelity"]
    records, summary = run_fidelity(
        net, cfg, bundle, probe_batch_size=f["probe_batch_size"],
        checkpoint_every=f["checkpoint_every"], permutations=f["permutations"],
        exhaustive=f["exhaustive"], floor=float(f["floor"]))
    emit_reports(records, summary, None, out)
    return 0


def cmd_diagnose(config: dict) -> int:
    out = _prepare_out(config)
    d = config["diagnose"]
    ckpt_path = Path(d["checkpoint"]) if d["checkpoint"] else out / "checkpoint_final.json"
    if not ckpt_path.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt_path}")
    net = load_checkpoint(ckpt_path)
    bundle = build_dataset(config)
    for name, rows in (("train.csv", bundle.train), ("val.csv", bundle.validation)):
        if not rows:  # only CSV splits can be empty: generated splits never are
            raise ValueError(f"{Path(config['dataset']['dir']) / name}: no rows")
    n = min(d["pair_count"], len(bundle.train))
    val_rows = [bundle.validation[i % len(bundle.validation)] for i in range(n)]
    bound = bound_diagnostics(sample_taps(net, val_rows, backward=True),
                              sample_taps(net, bundle.train[:n], backward=True))
    serialize.dump_json({
        "depth": bound.depth,
        "rho_hat": bound.rho_hat,
        "ca_hat": bound.ca_hat,
        "alpha_bar": bound.alpha_bar,
        "gap_defined": bound.measured_rel_gap is not None,
        "measured_rel_gap": bound.measured_rel_gap,
        "bound_finite": math.isfinite(bound.bound_value),
        "bound_value": bound.bound_value if math.isfinite(bound.bound_value) else None,
        "assumptions_hold": bound.assumptions_hold,
        "gap_within_bound": (bound.measured_rel_gap is not None
                             and math.isfinite(bound.bound_value)
                             and bound.measured_rel_gap <= bound.bound_value),
    }, out / "bound.json")
    subset_size = min(d["subset_size"], len(bundle.validation))
    var_ghost, var_lai = variance_diagnostic(
        net, (bundle.validation[0], bundle.train[0]), bundle.validation,
        resamples=d["resamples"], subset_size=subset_size, seed=config["seed"])
    serialize.dump_json({
        "var_ghost": var_ghost,
        "var_lai": var_lai,
        "lai_not_noisier": var_lai <= var_ghost,
        "resamples": d["resamples"],
        "subset_size": subset_size,
    }, out / "variance.json")
    cfg = build_trainer_config(config)
    batch = bundle.train[:cfg.batch_size]
    k = math.ceil(cfg.val_fraction_per_batch * len(bundle.validation))
    subset = bundle.validation[:k]
    ledger = CostLedger()
    for est in (Estimator.GHOST, Estimator.LAI, Estimator.LLI):
        cache = build_validation_cache(net, subset, est, step_id=0)
        curate_batch(net, batch, cache, dataclasses.replace(cfg, estimator=est),
                     step_id=0, ledger=ledger)
    record = ledger_compare(ledger, [Estimator.GHOST, Estimator.LAI, Estimator.LLI])
    serialize.dump_json(record, out / "cost.json")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "fidelity": cmd_fidelity,
    "diagnose": cmd_diagnose,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="layerval",
                                     description="online data valuation experiments")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON experiment config")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--seed", type=int, default=None, help="override global seed")
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config field (repeatable)")
    args = parser.parse_args(argv)
    try:
        raw = load_config(args.config)
        config = resolve_config(raw)
        config = apply_overrides(config, args.sets, args.seed, args.out)
        config = resolve_config(config)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "path": exc.path,
                          "message": exc.message}), file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command](config)
    except Exception as exc:  # runtime failures become machine-readable records
        print(json.dumps({"error": "runtime", "type": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
