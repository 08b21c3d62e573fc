"""Config resolution, subcommands, exit codes, and byte-level determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layerval
from layerval.cli import (
    ConfigError,
    apply_overrides,
    main,
    resolve_config,
)


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

    def test_mismatched_model_and_dataset(self):
        with pytest.raises(ConfigError) as err:
            resolve_config({"dataset": {"feature_dim": 5}})
        assert err.value.path == "model.layer_dims"

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
        resolved = resolve_config({})
        out = apply_overrides(resolved, ["trainer.estimator=ghost", "seed=11"],
                              seed=None, out=None)
        assert out["trainer"]["estimator"] == "ghost"
        assert out["seed"] == 11
        out2 = apply_overrides(resolved, [], seed=42, out="elsewhere")
        assert out2["seed"] == 42 and out2["output_dir"] == "elsewhere"

    def test_bad_override_key(self):
        with pytest.raises(ConfigError):
            apply_overrides(resolve_config({}), ["trainer.nope=1"], None, None)


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
            path.write_text("".join(",".join(r[:-2] + r[-1:]) + "\n" for r in rows))

        message = self.run_on_dataset(tmp_path, capsys, drop_last_feature)
        assert "val.csv" in message and "feature dim 3" in message

    def test_label_beyond_output_dim_rejected(self, tmp_path, capsys):
        def relabel_second_row(ds_dir):
            path = ds_dir / "test.csv"
            lines = path.read_text().splitlines()
            head, _, _ = lines[2].rpartition(",")
            lines[2] = head + ",3"
            path.write_text("\n".join(lines) + "\n")

        message = self.run_on_dataset(tmp_path, capsys, relabel_second_row)
        assert "test.csv" in message and "line 3" in message and "label 3" in message


class TestThreadCountDeterminism:
    """`train` and `fidelity` write the same bytes under one and two OpenBLAS threads.

    The net is wide enough (8-256-256-3) that OpenBLAS may split its GEMMs,
    the Shapley oracle's stacked coalition matmuls included, across threads,
    so a sum whose order follows the thread split would show up here.
    """

    VARIANTS = {est: ["--set", f"trainer.estimator={est}"]
                for est in ("ip", "ghost", "lai", "lli", "precond_lai")}
    VARIANTS["self"] = ["--set", "trainer.mode=self"]
    OUTPUTS = ("training_report.json", "inclusion.csv", "scores.csv", "checkpoint_final.json")

    def run_all(self, argvs, threads):
        code = ("import json, sys\n"
                "from layerval.cli import main\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    if main(argv):\n"
                "        sys.exit(1)\n")
        src = str(Path(layerval.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
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
            self.run_all([["train", "--config", str(cfg_path), "--out", str(out_root / name)]
                          + extra for name, extra in self.VARIANTS.items()], threads)
        differing = [f"{name}/{f}" for name in self.VARIANTS for f in self.OUTPUTS
                     if (tmp_path / "t1" / name / f).read_bytes()
                     != (tmp_path / "t2" / name / f).read_bytes()]
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
        for name in ("fidelity.csv", "fidelity_summary.json"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()


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
