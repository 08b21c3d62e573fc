"""Config-driven command line: generate / train / fidelity / diagnose.

One JSON config drives a run. Each `--set section.key=value`, then `--seed`
and `--out`, is a layer over it, and the result is checked once. Every run
writes `resolved_config.json` with all defaults expanded so outputs are
self-describing, once its inputs are loaded and checked. Exit codes: 0
success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import sys
from enum import Enum
from pathlib import Path

import numpy as np

from . import serialize
from .data import SPLIT_FILES, load_bundle, make_noisy_blob_bundle, write_bundle
from .evaluation import emit_reports, run_fidelity
from .influence import Estimator, bound_diagnostics, variance_diagnostic
from .network import MLP, batch_taps, load_checkpoint, save_checkpoint
from .oracle import EXHAUSTIVE_MAX
from .trainer import ConfigError, TrainerConfig, batch_cost, cache_rows, check_setting, train


_TRAINER = {f.name: (f.default, f.metadata.get("check")) for f in dataclasses.fields(TrainerConfig)}

# Every config field once, as (default, range check), each typed by its default
# under trainer.check_setting's rule; the trainer section is TrainerConfig's.
SCHEMA = {
    "seed": _TRAINER["seed"],
    "output_dir": ("runs/default", lambda v: v != ""),
    "dataset": {
        "kind": ("blobs", lambda v: v in ("blobs", "csv")),
        "num_classes": (3, lambda v: v >= 2),
        "per_class": (200, lambda v: v >= 1),
        "feature_dim": (8, lambda v: v >= 1),
        "spread": (0.35, lambda v: v >= 0),
        "flip_rate": (0.4, lambda v: 0 <= v <= 1),
        "fractions": ([0.8, 0.1, 0.1],
                      lambda v: len(v) == 3 and min(v) > 0 and abs(sum(v) - 1.0) < 1e-9),
        "dir": (None, None),
    },
    "model": {
        "layer_dims": ([8, 16, 3], lambda v: len(v) >= 2 and min(v) >= 1),
        "activations": (["relu", "linear"], lambda v: set(v) <= {"linear", "relu", "tanh"}),
    },
    "trainer": {name: spec for name, spec in _TRAINER.items() if name != "seed"},
    "fidelity": {
        "probe_batch_size": (16, lambda v: v >= 2),
        "checkpoint_every": (15, lambda v: v >= 1),
        "permutations": (1000, lambda v: v >= 1),
        "exhaustive": (False, None),
        "floor": (0.5, lambda v: -1 <= v <= 1),
    },
    "diagnose": {
        "checkpoint": (None, None),
        "pair_count": (8, lambda v: v >= 1),
        "resamples": (100, lambda v: v >= 2),
        "subset_size": (8, lambda v: v >= 1),
    },
}


def _plain(default):
    return default.value if isinstance(default, Enum) else default


DEFAULT_CONFIG = {key: {sub: _plain(d) for sub, (d, _) in spec.items()}
                  if isinstance(spec, dict) else _plain(spec[0])
                  for key, spec in SCHEMA.items()}


def _reads_csv(dataset: dict) -> bool:
    """Whether a run reads CSV splits from dataset.dir: set dir, or kind 'csv'."""
    return dataset["kind"] == "csv" or bool(dataset["dir"])


def resolve_config(*layers: dict) -> dict:
    """Overlay each layer in turn on the defaults, rejecting unknown keys, then
    check every field and the cross-field rules once; returns the fully
    expanded config. A section in a layer merges into the section so far."""
    resolved = copy.deepcopy(DEFAULT_CONFIG)
    for raw in layers:
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "config must be a JSON object")
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
    for key, spec in SCHEMA.items():
        if isinstance(spec, dict):
            for sub, (default, check) in spec.items():
                check_setting(f"{key}.{sub}", default, check, resolved[key][sub])
        else:
            check_setting(key, *spec, resolved[key])
    build_trainer_config(resolved)  # the cross-field trainer checks
    model, ds = resolved["model"], resolved["dataset"]
    if len(model["activations"]) != len(model["layer_dims"]) - 1:
        raise ConfigError("model.activations", "need one activation per layer")
    if model["activations"][-1] != "linear":
        raise ConfigError("model.activations", "final layer activation must be linear")
    if _reads_csv(ds):  # the commands that build a net check the files against it
        if not ds["dir"]:
            raise ConfigError("dataset.dir", "required when dataset.kind is 'csv'")
    elif model["layer_dims"][0] != ds["feature_dim"]:
        raise ConfigError("model.layer_dims", "first dim must match dataset.feature_dim")
    elif model["layer_dims"][-1] < ds["num_classes"]:
        raise ConfigError("model.layer_dims", "last dim must be at least dataset.num_classes")
    if resolved["fidelity"]["exhaustive"] \
            and resolved["fidelity"]["probe_batch_size"] > EXHAUSTIVE_MAX:
        raise ConfigError("fidelity.exhaustive",
                          f"needs fidelity.probe_batch_size <= {EXHAUSTIVE_MAX}")
    return resolved


def set_layer(item: str) -> dict:
    """A `--set path=value` as a config layer, {"a": {"b": value}} for path
    "a.b"; the value is read as JSON, else kept as a string."""
    if "=" not in item:
        raise ConfigError("--set", f"expected key=value, got {item!r}")
    key, _, value = item.partition("=")
    try:
        value = json.loads(value)
    except json.JSONDecodeError:
        pass
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


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
    """The CSV splits of dataset.dir, each with at least one row, or noisy blobs."""
    ds = config["dataset"]
    if _reads_csv(ds):
        d = Path(ds["dir"])
        for name in SPLIT_FILES:
            if not (d / name).exists():
                raise FileNotFoundError(f"dataset file missing: {d / name}")
        bundle = load_bundle(d)
        for name, rows in zip(SPLIT_FILES, (bundle.train, bundle.validation, bundle.test)):
            if not rows:
                raise ValueError(f"{d / name}: no rows")
        return bundle
    return make_noisy_blob_bundle(
        num_classes=ds["num_classes"], per_class=ds["per_class"],
        feature_dim=ds["feature_dim"], spread=ds["spread"],
        flip_rate=ds["flip_rate"], fractions=tuple(ds["fractions"]),
        seed=config["seed"])


def _check_csv_fits_model(config: dict, bundle) -> None:
    """Reject CSV splits whose feature dim or labels the model cannot take:
    for the commands that pair the data with a net."""
    if not _reads_csv(config["dataset"]):
        return
    d, layer_dims = Path(config["dataset"]["dir"]), config["model"]["layer_dims"]
    in_dim, out_dim = layer_dims[0], layer_dims[-1]
    for name, rows in zip(SPLIT_FILES, (bundle.train, bundle.validation, bundle.test)):
        if rows.features.shape[1] != in_dim:
            raise ValueError(f"{d / name}: feature dim {rows.features.shape[1]} "
                             f"!= model.layer_dims[0] = {in_dim}")
        if rows.labels.max() >= out_dim:
            row = int(np.argmax(rows.labels >= out_dim))
            raise ValueError(f"{d / name}: line {row + 2}: label {rows.labels[row]} "
                             f">= model.layer_dims[-1] = {out_dim}")


def build_net(config: dict) -> MLP:
    model = config["model"]
    return MLP.initialize(model["layer_dims"], model["activations"], seed=config["seed"])


def build_trainer_config(config: dict) -> TrainerConfig:
    return TrainerConfig(**config["trainer"], seed=config["seed"])


def _prepare_out(config: dict) -> Path:
    """Make the output directory and write resolved_config.json into it. Each
    command calls it once its inputs are loaded and checked, so a run whose
    inputs fail leaves no output behind."""
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    serialize.dump_json(config, out / "resolved_config.json")
    return out


def cmd_generate(config: dict) -> int:
    """Write the splits and a manifest. From CSV splits, num_classes is one past
    the largest label and flip_rate the source manifest's, if it has one."""
    bundle = build_dataset(config)
    ds = config["dataset"]
    num_classes, flip_rate = ds["num_classes"], ds["flip_rate"]
    if _reads_csv(ds):
        splits = (bundle.train, bundle.validation, bundle.test)
        num_classes = 1 + max(int(rows.labels.max()) for rows in splits)
        source = Path(ds["dir"]) / "manifest.json"
        if source.exists():
            manifest = serialize.load_json(source)
            if not isinstance(manifest, dict):
                raise ValueError(f"{source}: manifest must be a JSON object")
            flip_rate = manifest.get("flip_rate", flip_rate)
            check_setting(f"{source}: flip_rate", *SCHEMA["dataset"]["flip_rate"], flip_rate)
    write_bundle(bundle, _prepare_out(config), config["seed"], num_classes, flip_rate,
                 tuple(ds["fractions"]))
    return 0


def cmd_train(config: dict) -> int:
    bundle = build_dataset(config)
    _check_csv_fits_model(config, bundle)
    net = build_net(config)
    cfg = build_trainer_config(config)
    out = _prepare_out(config)
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
    bundle = build_dataset(config)
    _check_csv_fits_model(config, bundle)
    net = build_net(config)
    cfg = build_trainer_config(config)
    out = _prepare_out(config)
    f = config["fidelity"]
    records, summary = run_fidelity(
        net, cfg, bundle, probe_batch_size=f["probe_batch_size"],
        checkpoint_every=f["checkpoint_every"], permutations=f["permutations"],
        exhaustive=f["exhaustive"], floor=float(f["floor"]))
    emit_reports(records, summary, None, out)
    return 0


def cmd_diagnose(config: dict) -> int:
    d = config["diagnose"]
    ckpt_path = Path(d["checkpoint"] or Path(config["output_dir"]) / "checkpoint_final.json")
    if not ckpt_path.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt_path}")
    net = load_checkpoint(ckpt_path)
    dims = [net.in_dim] + [layer.out_dim for layer in net.layers]
    if dims != config["model"]["layer_dims"]:
        raise ValueError(f"{ckpt_path}: layer dims {dims} != model.layer_dims = "
                         f"{config['model']['layer_dims']}")
    bundle = build_dataset(config)
    _check_csv_fits_model(config, bundle)
    out = _prepare_out(config)

    val, n = bundle.validation, min(d["pair_count"], len(bundle.train))
    # the bound's pairs (validation row i % len(val), training row i), then the
    # variance anchor (validation row 0) ahead of the validation pool, and its probe
    bound_z, bound_j, var_z, var_j = (
        batch_taps(net, rows.features, rows.labels, backward=True)
        for rows in (val[np.arange(n) % len(val)], bundle.train[:n],
                     val[np.r_[0, :len(val)]], bundle.train[:1]))
    bound = bound_diagnostics(bound_z, bound_j)
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
    subset_size = min(d["subset_size"], len(val))
    var_ghost, var_lai = variance_diagnostic(var_z, var_j, resamples=d["resamples"],
                                             subset_size=subset_size, seed=config["seed"])
    serialize.dump_json({
        "var_ghost": var_ghost,
        "var_lai": var_lai,
        "lai_not_noisier": var_lai <= var_ghost,
        "resamples": d["resamples"],
        "subset_size": subset_size,
    }, out / "variance.json")
    cfg = build_trainer_config(config)
    n = min(cfg.batch_size, len(bundle.train))
    m = cache_rows(cfg, len(bundle.validation))
    costs = {est.value: dict(zip(("macs", "cache_bytes"), batch_cost(net, est, n, m)))
             for est in (Estimator.GHOST, Estimator.LAI, Estimator.LLI)}
    lai, ghost = costs[Estimator.LAI.value], costs[Estimator.GHOST.value]
    serialize.dump_json({
        "config": {"dims": dims, "batch_size": n, "validation_size": m},
        "depth": net.depth,
        "methods": costs,
        # true for every depth > 1; at depth 1 the MACs are equal
        "lai_cheaper_than_ghost": (lai["macs"] < ghost["macs"]
                                   and lai["cache_bytes"] < ghost["cache_bytes"]),
    }, out / "cost.json")
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
        layers = [load_config(args.config), *map(set_layer, args.sets)]
        if args.seed is not None:
            layers.append({"seed": args.seed})
        if args.out is not None:
            layers.append({"output_dir": args.out})
        config = resolve_config(*layers)
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
