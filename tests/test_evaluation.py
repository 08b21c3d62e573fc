"""Correlation statistics, the fidelity protocol, and report file round trips."""

import multiprocessing
import threading
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerval import evaluation
from layerval.data import make_noisy_blob_bundle
from layerval.evaluation import (
    DegenerateInputError,
    FidelityRecord,
    FidelitySummary,
    average_ranks,
    emit_reports,
    pearson,
    run_fidelity,
    spearman,
    summarize_fidelity,
)
from layerval.influence import Estimator
from layerval.network import MLP, Activation, Layer, LayerSpec
from layerval.oracle import EXHAUSTIVE_MAX
from layerval.serialize import read_csv
from layerval.trainer import (
    CurationMode,
    TrainerConfig,
    mean_loss_and_accuracy,
    train,
)
from helpers import rows


class TestPearson:
    def test_affine_increasing(self):
        xs = np.array([1.0, 2.0, 5.0, 7.0])
        assert pearson(xs, 2 * xs + 1) == pytest.approx(1.0, abs=1e-12)

    def test_affine_decreasing(self):
        xs = np.array([1.0, 2.0, 5.0, 7.0])
        assert pearson(xs, -xs) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_product_moment(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_constant_input_flagged(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1.0], [1.0, 2.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        xs, ys = rng.normal(size=10), rng.normal(size=10)
        base_p, base_s = pearson(xs, ys), spearman(xs, ys)
        assert pearson(xs * 37.5, ys) == pytest.approx(base_p, abs=1e-12)
        assert spearman(xs * 37.5, ys) == pytest.approx(base_s, abs=1e-12)


class TestSpearman:
    def test_strictly_monotone_is_one(self):
        xs = np.array([0.3, 1.2, 2.0, 5.5])
        assert spearman(xs, np.exp(xs)) == pytest.approx(1.0, abs=1e-12)

    def test_reversed_is_minus_one(self):
        xs = np.array([0.3, 1.2, 2.0, 5.5])
        assert spearman(xs, -(xs ** 3)) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_case_ranks_equal_values(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_ties_use_average_rank(self):
        # ranks of ys: [1.5, 1.5, 3] (average rank for the tie)
        got = spearman([1.0, 2.0, 3.0], [5.0, 5.0, 9.0])
        want = pearson([1.0, 2.0, 3.0], [1.5, 1.5, 3.0])
        assert got == pytest.approx(want, abs=1e-12)


    @given(st.lists(st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_average_ranks_match_brute_force_definition(self, values):
        xs = np.array(values, dtype=np.float64)
        want = [1 + np.sum(xs < x) + (np.sum(xs == x) - 1) / 2 for x in xs]
        assert average_ranks(xs).tolist() == want


def accuracy(net, features, labels):
    return mean_loss_and_accuracy(net, rows(features, labels))[1]


class TestAccuracy:
    def identity_net(self):
        spec = LayerSpec(2, 2, Activation.LINEAR)
        return MLP(layers=[Layer(np.eye(2), np.zeros(2), spec)])

    def test_all_correct(self):
        net = self.identity_net()
        assert accuracy(net, [[3.0, 0.0], [0.0, 3.0]], [0, 1]) == 1.0

    def test_adversarial_labels(self):
        net = self.identity_net()
        assert accuracy(net, [[3.0, 0.0], [0.0, 3.0]], [1, 0]) == 0.0

    def test_hand_built_three_quarters(self):
        net = self.identity_net()
        features = [[2.0, 1.0], [1.0, 3.0], [0.0, 5.0], [4.0, 0.0]]
        assert accuracy(net, features, [0, 1, 0, 0]) == 0.75

    def test_argmax_tie_goes_to_lowest_index(self):
        net = self.identity_net()
        assert accuracy(net, [[2.0, 2.0]], [0]) == 1.0
        assert accuracy(net, [[2.0, 2.0]], [1]) == 0.0


def tiny_bundle(seed=0, classes=3, feature_dim=4):
    return make_noisy_blob_bundle(classes, 12, feature_dim, 0.4, flip_rate=0.25,
                                  fractions=(0.6, 0.2, 0.2), seed=seed)


class TestRunFidelity:
    def test_depth_one_estimators_collapse(self):
        bundle = tiny_bundle(seed=1)
        net = MLP.initialize([4, 3], ["linear"], seed=1)
        cfg = TrainerConfig(learning_rate=0.05, batch_size=6, epochs=1,
                            warmup_epochs=0, mode=CurationMode.OFF, seed=1)
        records, summary = run_fidelity(net, cfg, bundle, probe_batch_size=3,
                                        checkpoint_every=2, permutations=6,
                                        exhaustive=True)
        assert records
        for r in records:
            base = r.scores[Estimator.IP.value]
            for est in (Estimator.GHOST, Estimator.LAI, Estimator.LLI):
                np.testing.assert_allclose(r.scores[est.value], base, atol=1e-12)
            vals = [v for v in r.pearson.values() if v is not None]
            assert len(set(np.round(vals, 12))) <= 1

    def test_probe_batch_of_two_completes(self):
        bundle = tiny_bundle(seed=2)
        net = MLP.initialize([4, 8, 3], ["relu", "linear"], seed=2)
        cfg = TrainerConfig(learning_rate=0.05, batch_size=6, epochs=1,
                            warmup_epochs=0, mode=CurationMode.OFF, seed=2)
        records, summary = run_fidelity(net, cfg, bundle, probe_batch_size=2,
                                        checkpoint_every=1, permutations=2,
                                        exhaustive=True)
        for r in records:
            for val in r.pearson.values():
                assert val is None or abs(abs(val) - 1.0) < 1e-9
        assert summary.checkpoints_total == len(records)

    def test_interval_beyond_run_gives_single_checkpoint(self):
        bundle = tiny_bundle(seed=3)
        net = MLP.initialize([4, 8, 3], ["relu", "linear"], seed=3)
        cfg = TrainerConfig(learning_rate=0.05, batch_size=6, epochs=1,
                            warmup_epochs=0, mode=CurationMode.OFF, seed=3)
        records, _ = run_fidelity(net, cfg, bundle, probe_batch_size=3,
                                  checkpoint_every=10_000, permutations=6,
                                  exhaustive=True)
        assert len(records) == 1

    def test_correlations_bounded(self):
        bundle = tiny_bundle(seed=4)
        net = MLP.initialize([4, 6, 3], ["tanh", "linear"], seed=4)
        cfg = TrainerConfig(learning_rate=0.05, batch_size=6, epochs=2,
                            warmup_epochs=0, mode=CurationMode.OFF, seed=4)
        records, _ = run_fidelity(net, cfg, bundle, probe_batch_size=4,
                                  checkpoint_every=2, permutations=30)
        for r in records:
            for d in (r.pearson, r.spearman):
                for v in d.values():
                    assert v is None or -1.0 - 1e-12 <= v <= 1.0 + 1e-12


def within(seconds, fn):
    """fn() on a daemon thread, failing the test instead of hanging if it never returns."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # handed back to the test's thread below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no return within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestFidelityArguments:
    """Arguments no run can use are rejected before any training step."""

    @pytest.mark.parametrize("override, message", [
        ({"permutations": 0}, "at least one permutation"),
        ({"checkpoint_every": 0}, "checkpoint interval"),
        ({"exhaustive": True, "probe_batch_size": EXHAUSTIVE_MAX + 1},
         f"limited to {EXHAUSTIVE_MAX} samples"),
    ])
    def test_rejected_before_training(self, monkeypatch, override, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(evaluation, "train", unreachable)
        bundle = tiny_bundle(seed=7)
        net = MLP.initialize([4, 6, 3], ["relu", "linear"], seed=7)
        cfg = TrainerConfig(learning_rate=0.05, batch_size=6, epochs=1,
                            warmup_epochs=0, mode=CurationMode.OFF, seed=7)
        args = {"probe_batch_size": 3, "checkpoint_every": 2, "permutations": 6,
                **override}
        with pytest.raises(ValueError, match=message):
            run_fidelity(net, cfg, bundle, **args)


class TestFidelityWorkers:
    """The checkpoints are valued on spawned workers without changing a byte."""

    def fidelity_run(self):
        bundle = tiny_bundle(seed=8)
        net = MLP.initialize([4, 6, 3], ["tanh", "linear"], seed=8)
        cfg = TrainerConfig(learning_rate=0.05, batch_size=3, epochs=2,
                            warmup_epochs=0, mode=CurationMode.OFF, seed=8)
        # 14 steps, so 7 checkpoints: the worker takes the queue's head
        return lambda: run_fidelity(net, cfg, bundle, probe_batch_size=4,
                                    checkpoint_every=2, permutations=20)

    def test_records_and_files_identical_at_zero_and_one_worker(self, monkeypatch, tmp_path):
        run = self.fidelity_run()
        cancelled = set()  # shutdown may cancel a cancelled future again
        cancel = Future.cancel

        def counted_cancel(future):
            if not cancel(future):
                return False
            cancelled.add(future)
            return True

        monkeypatch.setattr(Future, "cancel", counted_cancel)
        outputs = {}
        for workers in (0, 1):
            monkeypatch.setattr(evaluation, "_worker_count", lambda: workers)
            records, summary = within(120, run)
            emit_reports(records, summary, None, tmp_path / str(workers))
            outputs[workers] = records
        assert len(outputs[0]) == 7
        assert outputs[1] == outputs[0]
        # the caller took some checkpoints back from the queue, the worker valued the rest
        assert 0 < len(cancelled) < len(outputs[1])
        for name in ("fidelity.csv", "fidelity_summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "0" / name).read_bytes()

    def test_no_worker_outlives_a_return_or_a_raise(self, monkeypatch):
        run = self.fidelity_run()
        monkeypatch.setattr(evaluation, "_worker_count", lambda: 1)
        within(120, run)
        assert multiprocessing.active_children() == []

        alive_while_failing = []

        def fail_here(*args):
            alive_while_failing.append(len(multiprocessing.active_children()))
            raise RuntimeError("scoring failed in the caller")

        # workers import their own evaluation module, so only the caller's scoring fails
        monkeypatch.setattr(evaluation, "_benefit_scores", fail_here)
        with pytest.raises(RuntimeError, match="scoring failed in the caller"):
            within(120, run)
        assert alive_while_failing == [1]
        assert multiprocessing.active_children() == []


class TestEmitReports:
    def test_empty_records_header_only(self, tmp_path):
        summary = summarize_fidelity([], floor=0.5)
        paths = emit_reports([], summary, None, tmp_path)
        header, rows = read_csv(tmp_path / "fidelity.csv")
        assert header == ["step", "estimator", "pearson", "spearman"]
        assert rows == []
        import json

        doc = json.loads((tmp_path / "fidelity_summary.json").read_text())
        assert doc["checkpoints_total"] == 0
        assert doc["estimators"]["lai"]["checkpoints"] == 0

    def test_single_record_round_trip(self, tmp_path):
        record = FidelityRecord(
            step=7,
            scores={"lai": [0.1, 0.2], "ghost": [0.3, 0.4],
                    "ip": [0.3, 0.4], "lli": [0.5, 0.6]},
            shapley=[0.01, 0.02], shapley_stderr=[0.001, 0.001],
            pearson={"lai": 0.75, "ghost": None, "ip": 1.0, "lli": -0.5},
            spearman={"lai": 1.0, "ghost": None, "ip": 1.0, "lli": -1.0})
        emit_reports([record], summarize_fidelity([record]), None, tmp_path)
        header, rows = read_csv(tmp_path / "fidelity.csv")
        parsed = {(int(r[0]), r[1]): (r[2], r[3]) for r in rows}
        assert parsed[(7, "ghost")] == ("", "")
        assert float(parsed[(7, "lai")][0]) == 0.75
        assert float(parsed[(7, "lli")][1]) == -1.0

    def test_training_report_files_round_trip(self, tmp_path):
        bundle = tiny_bundle(seed=5)
        net = MLP.initialize([4, 6, 3], ["relu", "linear"], seed=5)
        cfg = TrainerConfig(learning_rate=0.05, batch_size=6, epochs=3,
                            warmup_epochs=1, estimator=Estimator.LAI,
                            mode=CurationMode.VALIDATION,
                            val_fraction_per_batch=0.5, seed=5)
        report, _ = train(net, cfg, bundle)
        emit_reports(None, None, report, tmp_path)
        header, rows = read_csv(tmp_path / "inclusion.csv")
        assert header == ["epoch", "sample_id", "kept"]
        assert len(rows) == len(report.inclusion) * len(report.sample_ids)
        by_epoch = {}
        for r in rows:
            by_epoch.setdefault(int(r[0]), 0)
            by_epoch[int(r[0])] += int(r[2])
        for stats in report.epoch_stats:
            assert by_epoch[stats.epoch] == stats.kept_count
        header, rows = read_csv(tmp_path / "scores.csv")
        assert header == ["step", "sample_id", "estimator", "benefit"]
        assert len(rows) == len(report.score_rows)
        got = [(int(r[0]), int(r[1]), r[2], float(r[3])) for r in rows]
        assert got == report.score_rows
        import json

        doc = json.loads((tmp_path / "training_report.json").read_text())
        assert doc["steps_total"] == report.steps_total
        assert len(doc["epochs"]) == len(report.epoch_stats)
        assert doc["epochs"][0]["kept_count"] == report.epoch_stats[0].kept_count

    def test_rewrite_is_byte_identical(self, tmp_path):
        bundle = tiny_bundle(seed=6)
        net = MLP.initialize([4, 6, 3], ["relu", "linear"], seed=6)
        cfg = TrainerConfig(learning_rate=0.05, batch_size=6, epochs=2,
                            warmup_epochs=1, estimator=Estimator.LAI,
                            mode=CurationMode.VALIDATION,
                            val_fraction_per_batch=0.5, seed=6)
        report, _ = train(net, cfg, bundle)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        emit_reports(None, None, report, a_dir)
        report2, _ = train(net, cfg, bundle)
        emit_reports(None, None, report2, b_dir)
        for name in ("training_report.json", "inclusion.csv", "scores.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
