"""Config resolution, subcommands, exit codes, and byte-level determinism."""

import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layerval
from layerval.cli import (
    ConfigError,
    main,
    resolve_config,
    set_layer,
)
from layerval.serialize import dumps
from layerval.trainer import TrainerConfig


def tiny_config(out_dir, **extra):
    cfg = {
        "seed": 7,
        "output_dir": str(out_dir),
        "dataset": {"num_classes": 3, "per_class": 10, "feature_dim": 4,
                    "spread": 0.4, "flip_rate": 0.4, "fractions": [0.8, 0.1, 0.1]},
        "model": {"layer_dims": [4, 6, 3], "activations": ["relu", "linear"]},
        "trainer": {"batch_size": 6, "epochs": 2, "warmup_epochs": 1,
                    "val_fraction_per_batch": 0.5},
        "fidelity": {"probe_batch_size": 3, "checkpoint_every": 2,
                     "permutations": 6, "exhaustive": True},
        "diagnose": {"pair_count": 3, "resamples": 4, "subset_size": 2},
    }
    for key, value in extra.items():
        cfg.setdefault(key, {}).update(value)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# At least one rejected value for every field of the `trainer` section.
BAD_TRAINER_VALUES = [
    ("probe_sample_count", -1),
    ("precond_decay", 1.5),
    ("precond_floor", 0.0),
    ("checkpoint_every", -2),
    ("layer_calibration", "no"),
    ("learning_rate", 0),
    ("learning_rate", math.inf),
    ("learning_rate", True),
    ("momentum", 1.0),
    ("momentum", "0.5"),
    ("batch_size", 0),
    ("batch_size", 4.0),
    ("epochs", -1),
    ("warmup_epochs", -1),
    ("warmup_epochs", 11),  # exceeds the default 10 epochs
    ("estimator", "bogus"),
    ("mode", "curate"),
    ("threshold", math.nan),
    ("threshold", -math.inf),
    ("val_fraction_per_batch", 0),
    ("val_fraction_per_batch", 1.5),
    ("cache_refresh_steps", 0),
    ("empty_batch_policy", "drop"),
    ("layer_calibration", 1),
    ("precond_floor", math.inf),
]


# At least one rejected value for every field outside the `trainer` section.
BAD_SECTION_VALUES = [
    ("seed", 1.5),
    ("output_dir", ""),
    ("output_dir", 3),
    ("dataset.kind", "parquet"),
    ("dataset.num_classes", 1),
    ("dataset.per_class", 0),
    ("dataset.per_class", True),
    ("dataset.feature_dim", 8.0),
    ("dataset.spread", math.inf),
    ("dataset.spread", -0.1),
    ("dataset.flip_rate", 1.5),
    ("dataset.flip_rate", "0.4"),
    ("dataset.fractions", [0.5, 0.5]),
    ("dataset.fractions", [0.8, 0.1, "0.1"]),
    ("dataset.fractions", [1.0, 0.0, 0.0]),
    ("dataset.dir", 3),
    ("model.layer_dims", [8, True, 3]),
    ("model.layer_dims", [8]),
    ("model.layer_dims", [8, 0, 3]),
    ("model.activations", ["relu", "softmax"]),
    ("model.activations", "linear"),
    ("fidelity.probe_batch_size", 1),
    ("fidelity.checkpoint_every", 0),
    ("fidelity.permutations", 0),
    ("fidelity.exhaustive", 1),
    ("fidelity.floor", math.nan),
    ("fidelity.floor", 1.5),
    ("diagnose.checkpoint", 5),
    ("diagnose.pair_count", True),
    ("diagnose.resamples", 1),
    ("diagnose.subset_size", 0),
]


def nest(path, value):
    """{"a": {"b": value}} for path "a.b"; {"a": value} for path "a"."""
    *sections, key = path.split(".")
    doc = {key: value}
    for section in reversed(sections):
        doc = {section: doc}
    return doc


class TestConfigResolution:
    def test_defaults_fill_in(self):
        resolved = resolve_config({})
        assert resolved["trainer"]["estimator"] == "lai"
        assert resolved["fidelity"]["permutations"] == 1000

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            resolve_config({"bogus": 1})
        assert err.value.path == "bogus"

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError) as err:
            resolve_config({"trainer": {"lr": 0.1}})
        assert err.value.path == "trainer.lr"

    def test_invalid_value_names_field(self):
        with pytest.raises(ConfigError) as err:
            resolve_config({"trainer": {"learning_rate": -1}})
        assert err.value.path == "trainer.learning_rate"

    @pytest.mark.parametrize("field,bad", BAD_TRAINER_VALUES)
    def test_bad_trainer_value_rejected_by_both_entries(self, field, bad):
        with pytest.raises(ConfigError) as lib_err:
            TrainerConfig(**{field: bad})
        with pytest.raises(ConfigError) as cli_err:
            resolve_config({"trainer": {field: bad}})
        assert lib_err.value.path == cli_err.value.path == f"trainer.{field}"

    def test_bad_values_cover_every_trainer_field(self):
        assert {field for field, _ in BAD_TRAINER_VALUES} == set(resolve_config({})["trainer"])
        assert {f.name for f in dataclasses.fields(TrainerConfig)} - \
            set(resolve_config({})["trainer"]) == {"seed"}

    @pytest.mark.parametrize("path,bad", BAD_SECTION_VALUES)
    def test_bad_section_value_rejected(self, path, bad, tmp_path, capsys):
        with pytest.raises(ConfigError) as err:
            resolve_config(nest(path, bad))
        assert err.value.path == path
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["train", "--config", str(cfg_path),
                     "--set", f"{path}={json.dumps(bad)}"]) == 1
        assert json.loads(capsys.readouterr().err.strip())["path"] == path
        assert not (tmp_path / "out").exists()

    def test_bad_values_cover_every_section_field(self):
        resolved = resolve_config({})
        paths = {f"{key}.{sub}" if isinstance(value, dict) else key
                 for key, value in resolved.items() if key != "trainer"
                 for sub in (value if isinstance(value, dict) else [None])}
        assert {path for path, _ in BAD_SECTION_VALUES} == paths

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError) as err:
            resolve_config({"seed": -1})
        assert err.value.path == "seed"
        with pytest.raises(ConfigError) as err:
            TrainerConfig(seed=-1)
        assert err.value.path == "trainer.seed"

    def test_trainer_defaults_pinned(self):
        # resolved_config.json spells these out; a dataclass edit must not move them
        assert dumps(resolve_config({})["trainer"]) == dumps({
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
        })

    def test_resolved_document_pinned(self):
        # resolved_config.json of an empty config: every section, key order and spelling
        assert dumps(resolve_config({})) == dumps({
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
        })

    def test_mismatched_model_and_dataset(self):
        with pytest.raises(ConfigError) as err:
            resolve_config({"dataset": {"feature_dim": 5}})
        assert err.value.path == "model.layer_dims"

    def test_blob_classes_need_output_width(self):
        with pytest.raises(ConfigError) as err:
            resolve_config({"dataset": {"num_classes": 4}})
        assert err.value.path == "model.layer_dims"
        assert resolve_config({"dataset": {"num_classes": 4},
                               "model": {"layer_dims": [8, 16, 4]}})
        assert resolve_config({"model": {"layer_dims": [8, 16, 5]}})

    def test_dir_reads_csv_whatever_kind_says(self):
        # a CSV source is checked against the model by the commands that build a net,
        # not by the blob fields
        raw = {"dataset": {"dir": "data", "feature_dim": 5, "num_classes": 9}}
        assert resolve_config(raw)["dataset"]["kind"] == "blobs"

    def test_exhaustive_needs_small_probe(self):
        with pytest.raises(ConfigError) as err:
            resolve_config({"fidelity": {"exhaustive": True}})
        assert err.value.path == "fidelity.exhaustive"
        with pytest.raises(ConfigError) as err:
            resolve_config({"fidelity": {"exhaustive": True, "probe_batch_size": 9}})
        assert err.value.path == "fidelity.exhaustive"
        assert resolve_config({"fidelity": {"exhaustive": True, "probe_batch_size": 8}})

    def test_round_trip_identity(self):
        resolved = resolve_config({"seed": 3, "trainer": {"momentum": 0.5}})
        again = resolve_config(json.loads(json.dumps(resolved)))
        assert again == resolved
        # and through the 17-digit emitter used for resolved_config.json
        from layerval.serialize import dumps

        assert resolve_config(json.loads(dumps(resolved))) == resolved

    def test_overrides(self):
        out = resolve_config({}, set_layer("trainer.estimator=ghost"), set_layer("seed=11"))
        assert out["trainer"]["estimator"] == "ghost"
        assert out["seed"] == 11
        out2 = resolve_config({}, {"seed": 42}, {"output_dir": "elsewhere"})
        assert out2["seed"] == 42 and out2["output_dir"] == "elsewhere"

    def test_bad_override_key(self):
        with pytest.raises(ConfigError):
            resolve_config({}, set_layer("trainer.nope=1"))


class TestLayers:
    """The file, each --set, --seed and --out are layers over the defaults,
    checked once after the last."""

    def resolved(self, out):
        return json.loads((out / "resolved_config.json").read_text())

    def test_set_repairs_a_bad_field_of_the_file(self, tmp_path):
        shipped = Path(__file__).resolve().parents[1] / "configs" / "curation.json"
        doc = json.loads(shipped.read_text())
        doc["trainer"]["learning_rate"] = -1
        bad = write_config(tmp_path, doc)
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "bad")]) == 1
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "repaired"),
                     "--set", "trainer.learning_rate=0.3"]) == 0
        assert main(["train", "--config", str(shipped), "--out", str(tmp_path / "shipped")]) == 0
        assert self.resolved(tmp_path / "repaired")["trainer"]["learning_rate"] == 0.3
        for name in ("training_report.json", "inclusion.csv", "scores.csv",
                     "checkpoint_final.json"):
            assert (tmp_path / "repaired" / name).read_bytes() == \
                (tmp_path / "shipped" / name).read_bytes(), name

    def test_a_whole_section_merges_into_the_file_section(self, tmp_path):
        shipped = Path(__file__).resolve().parents[1] / "configs" / "curation.json"
        assert main(["generate", "--config", str(shipped), "--out", str(tmp_path),
                     "--set", 'trainer={"momentum": 0.5}', "--set", "trainer.epochs=4"]) == 0
        trainer = self.resolved(tmp_path)["trainer"]
        assert (trainer["learning_rate"], trainer["momentum"], trainer["epochs"]) == (0.3, 0.5, 4)

    def test_seed_and_out_win_over_set(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "file"))
        assert main(["generate", "--config", str(cfg_path), "--seed", "42",
                     "--out", str(tmp_path / "flag"), "--set", "seed=11",
                     "--set", f"output_dir={tmp_path / 'set'}"]) == 0
        assert self.resolved(tmp_path / "flag")["seed"] == 42
        assert not (tmp_path / "set").exists() and not (tmp_path / "file").exists()

    @pytest.mark.parametrize("path", [f"{section}.nope" for section, value in
                                      resolve_config().items() if isinstance(value, dict)]
                             + ["nope"])
    def test_unknown_key_named_as_in_a_file(self, tmp_path, capsys, path):
        with pytest.raises(ConfigError) as err:
            resolve_config(nest(path, 1))
        assert err.value.path == path
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["train", "--config", str(cfg_path), "--set", f"{path}=1"]) == 1
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "config", "path": path, "message": "unknown key"}

    @pytest.mark.parametrize("item, path, message", [
        ("bogus.x=1", "bogus", "unknown key"),
        ("seed.x=1", "seed", "invalid value {'x': 1}"),
    ])
    def test_a_nested_set_is_read_as_a_file_would_be(self, tmp_path, capsys, item, path,
                                                      message):
        assert main(["generate", "--out", str(tmp_path), "--set", item]) == 1
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "config", "path": path, "message": message}


class TestGenerate:
    def test_files_and_manifest(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["generate", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        for name in ("train.csv", "val.csv", "test.csv", "manifest.json",
                     "resolved_config.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["train"] == 24
        assert manifest["flipped"] == int(0.4 * 24)

    @pytest.mark.parametrize("text, detail", [("[1", "invalid JSON"),
                                              ("[1]", "manifest must be a JSON object")])
    def test_malformed_source_manifest_named(self, tmp_path, capsys, text, detail):
        ds_dir = tmp_path / "dataset"
        assert main(["generate", "--config",
                     str(write_config(tmp_path, tiny_config(ds_dir), "gen.json"))]) == 0
        (ds_dir / "manifest.json").write_text(text)
        cfg = tiny_config(tmp_path / "again", dataset={"dir": str(ds_dir)})
        assert main(["generate", "--config", str(write_config(tmp_path, cfg, "again.json"))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["message"].startswith(f"{ds_dir / 'manifest.json'}: ")
        assert detail in err["message"]

    @pytest.mark.parametrize("flip_rate", ["high", math.nan, True])
    def test_bad_source_flip_rate_named_before_any_csv(self, tmp_path, capsys, flip_rate):
        ds_dir = tmp_path / "dataset"
        assert main(["generate", "--config",
                     str(write_config(tmp_path, tiny_config(ds_dir), "gen.json"))]) == 0
        manifest = ds_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["flip_rate"] = flip_rate
        manifest.write_text(json.dumps(doc))
        cfg = tiny_config(tmp_path / "again", dataset={"dir": str(ds_dir)})
        assert main(["generate", "--config", str(write_config(tmp_path, cfg, "again.json"))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["message"] == f"{manifest}: flip_rate: invalid value {flip_rate!r}"
        assert not list((tmp_path / "again").glob("*.csv"))

    def test_csv_source_need_not_fit_the_model(self, tmp_path):
        # generate builds no net: 5-feature splits pass under the default 8-wide model
        ds_dir = tmp_path / "dataset"
        cfg = tiny_config(ds_dir, dataset={"feature_dim": 5}, model={"layer_dims": [5, 6, 3]})
        assert main(["generate", "--config", str(write_config(tmp_path, cfg))]) == 0
        assert main(["generate", "--out", str(tmp_path / "again"),
                     "--set", f"dataset.dir={ds_dir}"]) == 0
        for name in ("train.csv", "val.csv", "test.csv"):
            assert (tmp_path / "again" / name).read_bytes() == (ds_dir / name).read_bytes()

    def test_header_only_source_split_named(self, tmp_path, capsys):
        ds_dir = tmp_path / "dataset"
        assert main(["generate", "--config",
                     str(write_config(tmp_path, tiny_config(ds_dir), "gen.json"))]) == 0
        path = ds_dir / "val.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        assert main(["generate", "--out", str(tmp_path / "again"),
                     "--set", f"dataset.dir={ds_dir}"]) == 2
        assert json.loads(capsys.readouterr().err.strip())["message"] == f"{path}: no rows"

    def test_rerun_byte_identical(self, tmp_path):
        cfg_a = write_config(tmp_path, tiny_config(tmp_path / "a"), "a.json")
        cfg_b = write_config(tmp_path, tiny_config(tmp_path / "b"), "b.json")
        assert main(["generate", "--config", str(cfg_a)]) == 0
        assert main(["generate", "--config", str(cfg_b)]) == 0
        for name in ("train.csv", "val.csv", "test.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestTrain:
    def test_vanilla_baseline(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        cfg["trainer"]["mode"] = "off"
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "training_report.json").read_text())
        assert all(e["kept_count"] == 24 for e in report["epochs"])
        assert (out / "checkpoint_final.json").exists()

    def test_warmup_then_curation_structure(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        cfg["trainer"].update({"epochs": 5, "warmup_epochs": 3, "estimator": "lai"})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(cfg_path)]) == 0
        report = json.loads(((tmp_path / "out") / "training_report.json").read_text())
        for e in report["epochs"][:3]:
            assert e["kept_count"] == 24 and e["scored_count"] == 0
        for e in report["epochs"][3:]:
            assert e["scored_count"] == 24

    def test_paired_estimator_override(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "lai"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "off"),
                     "--set", "trainer.mode=off"]) == 0
        a = json.loads((tmp_path / "lai" / "training_report.json").read_text())
        b = json.loads((tmp_path / "off" / "training_report.json").read_text())
        assert a["seed"] == b["seed"]
        assert a["mode"] != b["mode"]

    def test_int_and_float_learning_rate_train_alike(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "unused"))
        for name, value in (("int", "1"), ("float", "1.0")):
            assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / name),
                         "--set", f"trainer.learning_rate={value}"]) == 0
        names = sorted(p.name for p in (tmp_path / "int").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "float").iterdir())
        for name in names:
            if name != "resolved_config.json":
                assert (tmp_path / "int" / name).read_bytes() == \
                    (tmp_path / "float" / name).read_bytes(), name

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "out")
        cfg["trainer"]["warmup_epochs"] = 99
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert err["path"] == "trainer.warmup_epochs"

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "out")
        cfg["dataset"]["kind"] = "csv"
        cfg["dataset"]["dir"] = str(tmp_path / "missing")
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "runtime"

    def test_generate_then_train_from_dir(self, tmp_path):
        ds_dir = tmp_path / "dataset"
        cfg_path = write_config(tmp_path, tiny_config(ds_dir), "gen.json")
        assert main(["generate", "--config", str(cfg_path)]) == 0
        cfg = tiny_config(tmp_path / "run")
        cfg["dataset"]["dir"] = str(ds_dir)
        cfg_path2 = write_config(tmp_path, cfg, "train.json")
        assert main(["train", "--config", str(cfg_path2)]) == 0
        assert (tmp_path / "run" / "training_report.json").exists()

    @pytest.mark.parametrize("text", ["[1", "[1]"])
    def test_train_from_dir_ignores_manifest(self, tmp_path, text):
        ds_dir = tmp_path / "dataset"
        assert main(["generate", "--config",
                     str(write_config(tmp_path, tiny_config(ds_dir), "gen.json"))]) == 0
        (ds_dir / "manifest.json").write_text(text)
        cfg = tiny_config(tmp_path / "run", dataset={"dir": str(ds_dir)})
        assert main(["train", "--config", str(write_config(tmp_path, cfg, "train.json"))]) == 0

    def test_wider_output_than_blob_classes_trains(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", model={"layer_dims": [4, 6, 5]})
        assert main(["train", "--config", str(write_config(tmp_path, cfg))]) == 0

    def test_train_from_dir_alone(self, tmp_path):
        # only dataset.dir set: the blob fields keep their defaults (feature_dim 8)
        ds_dir = tmp_path / "dataset"
        assert main(["generate", "--config",
                     str(write_config(tmp_path, tiny_config(ds_dir), "gen.json"))]) == 0
        cfg = tiny_config(tmp_path / "run")
        cfg["dataset"] = {"dir": str(ds_dir)}
        assert main(["train", "--config", str(write_config(tmp_path, cfg, "train.json"))]) == 0
        assert (tmp_path / "run" / "training_report.json").exists()


class TestCsvDataFitsModel:
    """CSV splits must match the model's input width and class count."""

    def run_on_dataset(self, tmp_path, capsys, edit):
        ds_dir = tmp_path / "dataset"
        assert main(["generate", "--config",
                     str(write_config(tmp_path, tiny_config(ds_dir), "gen.json"))]) == 0
        edit(ds_dir)
        cfg = tiny_config(tmp_path / "run")
        cfg["dataset"].update({"kind": "csv", "dir": str(ds_dir)})
        assert main(["train", "--config", str(write_config(tmp_path, cfg, "train.json"))]) == 2
        return json.loads(capsys.readouterr().err.strip())["message"]

    def test_feature_dim_mismatch_rejected(self, tmp_path, capsys):
        def drop_last_feature(ds_dir):
            path = ds_dir / "val.csv"
            lines = path.read_text().splitlines()
            rows = [line.split(",") for line in lines]
            last = rows[0].index("label") - 1  # the last feature's column
            path.write_text("".join(",".join(r[:last] + r[last + 1:]) + "\n" for r in rows))

        message = self.run_on_dataset(tmp_path, capsys, drop_last_feature)
        assert "val.csv" in message and "feature dim 3" in message

    def test_label_beyond_output_dim_rejected(self, tmp_path, capsys):
        def relabel_second_row(ds_dir):
            path = ds_dir / "test.csv"
            lines = path.read_text().splitlines()
            row = lines[2].split(",")
            row[lines[0].split(",").index("label")] = "3"
            lines[2] = ",".join(row)
            path.write_text("\n".join(lines) + "\n")

        message = self.run_on_dataset(tmp_path, capsys, relabel_second_row)
        assert "test.csv" in message and "line 3" in message and "label 3" in message


    @pytest.mark.parametrize("name", ["train.csv", "val.csv", "test.csv"])
    def test_header_only_split_rejected(self, tmp_path, capsys, name):
        def keep_header(ds_dir):
            path = ds_dir / name
            path.write_text(path.read_text().splitlines()[0] + "\n")

        message = self.run_on_dataset(tmp_path, capsys, keep_header)
        assert message == f"{tmp_path / 'dataset' / name}: no rows"


def package_env(**overrides):
    """This environment, with the tested package first on PYTHONPATH, for a child interpreter."""
    src = str(Path(layerval.__file__).resolve().parents[1])
    return {**os.environ, **overrides,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestThreadCountDeterminism:
    """`train`, `diagnose` and `fidelity` write the same bytes under one and
    two OpenBLAS threads.

    The net is wide enough (8-256-256-3) that OpenBLAS may split its GEMMs,
    the Shapley oracle's stacked coalition matmuls included, across threads,
    so a sum whose order follows the thread split would show up here.
    """

    VARIANTS = {est: ["--set", f"trainer.estimator={est}"]
                for est in ("ip", "ghost", "lai", "lli", "precond_lai")}
    VARIANTS["self"] = ["--set", "trainer.mode=self"]
    OUTPUTS = ("training_report.json", "inclusion.csv", "scores.csv", "checkpoint_final.json",
               "bound.json", "variance.json", "cost.json")

    def run_all(self, argvs, threads):
        code = ("import json, sys\n"
                "from layerval.cli import main\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    if main(argv):\n"
                "        sys.exit(1)\n")
        subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                       env=package_env(OPENBLAS_NUM_THREADS=str(threads)),
                       check=True, timeout=300)

    def wide_config(self, tmp_path):
        cfg = tiny_config(tmp_path / "unused")
        cfg["dataset"].update({"per_class": 60, "feature_dim": 8})
        cfg["model"] = {"layer_dims": [8, 256, 256, 3],
                        "activations": ["relu", "relu", "linear"]}
        return cfg

    def test_one_and_two_threads_byte_identical(self, tmp_path):
        cfg = self.wide_config(tmp_path)
        cfg["trainer"].update({"batch_size": 64, "epochs": 2, "warmup_epochs": 1})
        cfg_path = write_config(tmp_path, cfg)
        for threads in (1, 2):
            out_root = tmp_path / f"t{threads}"
            self.run_all([[command, "--config", str(cfg_path), "--out", str(out_root / name),
                           "--set", "diagnose.pair_count=64"] + extra
                          for name, extra in self.VARIANTS.items()
                          for command in ("train", "diagnose")], threads)
        differing = [f"{name}/{f}" for name in self.VARIANTS for f in self.OUTPUTS
                     if (tmp_path / "t1" / name / f).read_bytes()
                     != (tmp_path / "t2" / name / f).read_bytes()]
        assert not differing

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 17: at 8-512-512-3 the bits of pair_matrix's "
                              "Gram products follow the OpenBLAS thread count")
    def test_wide_lai_train_one_and_two_threads_byte_identical(self, tmp_path):
        shipped = Path(__file__).resolve().parents[1] / "configs" / "curation.json"
        cfg = json.loads(shipped.read_text())
        cfg["model"] = {"layer_dims": [8, 512, 512, 3],
                        "activations": ["relu", "relu", "linear"]}
        cfg["trainer"].update({"batch_size": 64, "val_fraction_per_batch": 0.5, "epochs": 1,
                               "warmup_epochs": 0, "estimator": "lai"})
        cfg_path = write_config(tmp_path, cfg)
        for threads in (1, 2):
            self.run_all([["train", "--config", str(cfg_path),
                           "--out", str(tmp_path / f"t{threads}")]], threads)
        differing = [f for f in self.OUTPUTS[:4]
                     if (tmp_path / "t1" / f).read_bytes() != (tmp_path / "t2" / f).read_bytes()]
        assert not differing

    def test_fidelity_one_and_two_threads_byte_identical(self, tmp_path):
        cfg = self.wide_config(tmp_path)
        cfg["trainer"].update({"batch_size": 16, "epochs": 1})
        cfg["fidelity"] = {"probe_batch_size": 8, "checkpoint_every": 4,
                           "permutations": 40, "exhaustive": False}
        cfg_path = write_config(tmp_path, cfg)
        for threads in (1, 2):
            self.run_all([["fidelity", "--config", str(cfg_path),
                           "--out", str(tmp_path / f"t{threads}")]], threads)
        for name in ("fidelity.csv", "scores.csv", "fidelity_summary.json"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()

    def test_shapley_csv_one_and_two_threads_byte_identical(self, tmp_path):
        # an odd count, so the paired draw rounds up to whole pairs
        cfg = self.wide_config(tmp_path)
        cfg["trainer"].update({"batch_size": 16, "epochs": 1})
        cfg["fidelity"] = {"probe_batch_size": 8, "checkpoint_every": 4,
                           "permutations": 41, "exhaustive": False}
        cfg_path = write_config(tmp_path, cfg)
        for threads in (1, 2):
            self.run_all([["fidelity", "--config", str(cfg_path),
                           "--out", str(tmp_path / f"t{threads}")]], threads)
        assert ((tmp_path / "t1" / "shapley.csv").read_bytes()
                == (tmp_path / "t2" / "shapley.csv").read_bytes())


class TestFidelity:
    def test_exhaustive_small_run(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["fidelity", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "fidelity_summary.json").read_text())
        assert summary["exhaustive"] is True
        assert (out / "fidelity.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            cfg_path = write_config(tmp_path, tiny_config(tmp_path / sub), f"{sub}.json")
            assert main(["fidelity", "--config", str(cfg_path)]) == 0
        for name in ("fidelity.csv", "fidelity_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


START_METHOD_SCRIPT = """\
import multiprocessing
import sys

from layerval.cli import main

if __name__ == "__main__":
    if sys.argv[1] != "default":
        multiprocessing.set_start_method(sys.argv[1])
    sys.exit(main(["fidelity", "--config", sys.argv[2], "--seed", "0", "--out", sys.argv[3]]))
"""


class TestStartMethods:
    """The fidelity workers do not depend on the default start method: a
    script that sets another one gets the default run's bytes."""

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_same_bytes_as_the_default_method(self, tmp_path, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        script = tmp_path / "run_fidelity.py"
        script.write_text(START_METHOD_SCRIPT)
        config = Path(__file__).resolve().parents[1] / "configs" / "fidelity.json"
        for name in ("default", method):
            subprocess.run([sys.executable, str(script), name, str(config), str(tmp_path / name)],
                           env=package_env(), check=True, timeout=300)
        for name in ("fidelity.csv", "shapley.csv", "fidelity_summary.json"):
            assert (tmp_path / method / name).read_bytes() == \
                (tmp_path / "default" / name).read_bytes()


class TestImports:
    def test_cli_import_loads_no_process_pool(self):
        """Only run_fidelity imports the pool, so `train` and `diagnose` load none of it."""
        code = ("import sys\n"
                "import layerval.cli\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n")
        done = subprocess.run([sys.executable, "-c", code], env=package_env(),
                              capture_output=True, text=True, check=True, timeout=120)
        assert done.stdout.strip() == "[]"


class TestDiagnose:
    def test_diagnose_after_train(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["diagnose", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        bound = json.loads((out / "bound.json").read_text())
        assert "assumptions_hold" in bound and "rho_hat" in bound
        variance = json.loads((out / "variance.json").read_text())
        assert variance["var_ghost"] >= 0.0 and variance["var_lai"] >= 0.0
        cost = json.loads((out / "cost.json").read_text())
        assert cost["methods"]["lai"]["macs"] < cost["methods"]["ghost"]["macs"]
        assert cost["methods"]["lai"]["cache_bytes"] < cost["methods"]["ghost"]["cache_bytes"]

    def test_shipped_config_cost_json_pinned(self, tmp_path):
        # the closed-form figures for configs/curation.json: a cost-model
        # change has to show up here
        config = Path(__file__).resolve().parents[1] / "configs" / "curation.json"
        for command in ("train", "diagnose"):
            assert main([command, "--config", str(config), "--seed", "0",
                         "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "cost.json").read_text()) == {
            "config": {"dims": [8, 64, 3], "batch_size": 16, "validation_size": 18},
            "depth": 2,
            "methods": {"ghost": {"macs": 45280, "cache_bytes": 20304},
                        "lai": {"macs": 22464, "cache_bytes": 11088},
                        "lli": {"macs": 19872, "cache_bytes": 9792}},
            "lai_cheaper_than_ghost": True,
        }

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "fresh"))
        assert main(["diagnose", "--config", str(cfg_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "runtime"

    def test_depth_one_checkpoint_reports_zero_gap_and_bound(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        cfg["model"] = {"layer_dims": [4, 3], "activations": ["linear"]}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["diagnose", "--config", str(cfg_path)]) == 0
        bound = json.loads((tmp_path / "out" / "bound.json").read_text())
        assert bound["measured_rel_gap"] == 0.0
        assert bound["bound_value"] == 0.0

    def test_checkpoint_dims_must_match_model(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "out" / "checkpoint_final.json"
        cfg = tiny_config(tmp_path / "other", diagnose={"checkpoint": str(ckpt)})
        cfg["model"]["layer_dims"] = [4, 5, 3]
        assert main(["diagnose", "--config", str(write_config(tmp_path, cfg, "d.json"))]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "runtime"
        assert err["message"] == (f"{ckpt}: layer dims [4, 6, 3] != "
                                  f"model.layer_dims = [4, 5, 3]")

    # an edit returns the file's new text, or changes the parsed checkpoint in place
    @pytest.mark.parametrize("edit, detail", [
        (lambda doc: doc["layers"][1].pop("out_dim"), "missing field 'out_dim'"),
        (lambda doc: "nonsense", "invalid JSON"),
        (lambda doc: doc["layers"][0]["weights"].pop(), "layer 0: weight shape (5, 4) != spec"),
        (lambda doc: doc["layers"][0].update(in_dim=4.0), "layers[0].in_dim: invalid value 4.0"),
        (lambda doc: doc["layers"][0].update(in_dim=True), "layers[0].in_dim: invalid value True"),
        (lambda doc: doc["layers"][1].update(out_dim="3"), "layers[1].out_dim: invalid value '3'"),
        (lambda doc: doc["layers"][0].update(activation="sigmoid"),
         "layers[0].activation: invalid value 'sigmoid'"),
        (lambda doc: doc.update(seed=7.9), "seed: invalid value 7.9"),
        (lambda doc: doc.update(seed="7"), "seed: invalid value '7'"),
        (lambda doc: doc.update(seed=True), "seed: invalid value True"),
    ], ids=["missing_field", "not_json", "bad_shape", "real_dim", "bool_dim", "string_dim",
            "unknown_activation", "real_seed", "string_seed", "bool_seed"])
    def test_malformed_checkpoint_named(self, tmp_path, capsys, edit, detail):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "out" / "checkpoint_final.json"
        doc = json.loads(ckpt.read_text())
        edited = edit(doc)
        ckpt.write_text(edited if isinstance(edited, str) else json.dumps(doc))
        assert main(["diagnose", "--config", str(cfg_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "runtime"
        assert err["message"].startswith(f"{ckpt}: ") and detail in err["message"]

    @pytest.mark.parametrize("name", ["train.csv", "val.csv"])
    def test_empty_csv_split_is_runtime_error(self, tmp_path, capsys, name):
        ds_dir = tmp_path / "dataset"
        assert main(["generate", "--config",
                     str(write_config(tmp_path, tiny_config(ds_dir), "gen.json"))]) == 0
        cfg = tiny_config(tmp_path / "run")
        cfg["dataset"].update({"kind": "csv", "dir": str(ds_dir)})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(cfg_path)]) == 0
        path = ds_dir / name
        path.write_text(path.read_text().splitlines()[0] + "\n")  # header only
        assert main(["diagnose", "--config", str(cfg_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "runtime"
        assert err["message"] == f"{path}: no rows"


class TestOutputAfterInputs:
    """A command makes its output directory, resolved_config.json first, only
    once its inputs are loaded and checked."""

    @pytest.mark.parametrize("command", ["generate", "train", "fidelity", "diagnose"])
    def test_failed_input_leaves_no_resolved_config(self, tmp_path, capsys, command):
        ds_dir = tmp_path / "dataset"
        assert main(["generate", "--config",
                     str(write_config(tmp_path, tiny_config(ds_dir), "gen.json"))]) == 0
        cfg = tiny_config(tmp_path / "run")
        cfg["dataset"].update({"kind": "csv", "dir": str(ds_dir)})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(cfg_path)]) == 0  # diagnose's checkpoint
        val = ds_dir / "val.csv"
        val.write_text(val.read_text().splitlines()[0] + "\n")  # header only
        fresh = tmp_path / "fresh"
        argv = [command, "--config", str(cfg_path), "--out", str(fresh)]
        if command == "diagnose":
            argv += ["--set", f"diagnose.checkpoint={tmp_path / 'run' / 'checkpoint_final.json'}"]
        capsys.readouterr()
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["message"] == f"{val}: no rows"
        assert not (fresh / "resolved_config.json").exists()
