"""Correlation statistics, the fidelity protocol, and report file round trips."""

import hashlib
import json
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
from dataclasses import replace
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerval import cli, evaluation, network
from layerval.cli import main
from layerval.data import Split, make_noisy_blob_bundle
from layerval.evaluation import (
    FIDELITY_ESTIMATORS,
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
from layerval.influence import Estimator, pair_matrix
from layerval.network import MLP, Activation, Layer, LayerSpec, batch_taps
from layerval.oracle import EXHAUSTIVE_MAX
from layerval.serialize import fmt17, fmt17_column, read_csv
from layerval.trainer import (
    CurationMode,
    TrainerConfig,
    mean_loss_and_accuracy,
    train,
)
from helpers import rows
import reference


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

    def test_records_carry_the_probe_ids(self, tmp_path):
        bundle = tiny_bundle(seed=9)
        net = MLP.initialize([4, 6, 3], ["relu", "linear"], seed=9)
        cfg = TrainerConfig(learning_rate=0.05, batch_size=6, epochs=1,
                            warmup_epochs=0, mode=CurationMode.OFF, seed=9)
        records, summary = run_fidelity(net, cfg, bundle, probe_batch_size=4,
                                        checkpoint_every=2, permutations=10)
        ids = records[0].probe_ids
        assert len(ids) == 4 and set(ids) <= set(bundle.train.ids.tolist())
        emit_reports(records, summary, None, tmp_path)
        _, rows = read_csv(tmp_path / "shapley.csv")
        assert rows == [[str(r.step), str(sid), fmt17(v), fmt17(e)] for r in records
                        for sid, v, e in zip(ids, r.shapley, r.shapley_stderr)]

    def test_a_checkpoint_takes_two_tap_passes(self, monkeypatch):
        # the game's passes of the validation rows and of the probe, which the
        # scores read too: they match scores from separate passes of those rows
        bundle = tiny_bundle(seed=5)
        net = MLP.initialize([4, 6, 3], ["relu", "linear"], seed=5)
        cfg = TrainerConfig(learning_rate=0.05, batch_size=6, epochs=1,
                            warmup_epochs=0, mode=CurationMode.OFF, seed=5)
        probe, val = bundle.train[:4], bundle.validation
        passes, real_taps = [], network._taps

        def counted(net, X, labels, backward):
            passes.append(len(X))
            return real_taps(net, X, labels, backward)

        with monkeypatch.context() as counting:
            counting.setattr(network, "_taps", counted)
            record = evaluation._checkpoint_record(0, 1, net, probe, val, cfg,
                                                   permutations=4, exhaustive=False)
        assert sorted(passes) == sorted([len(val), len(probe)])
        val_taps, probe_taps = (batch_taps(net, rows.features, rows.labels, backward=True)
                                for rows in (val, probe))
        for est in FIDELITY_ESTIMATORS:
            np.testing.assert_allclose(
                record.scores[est.value],
                pair_matrix(est, val_taps, probe_taps).sum(axis=0), rtol=1e-12, atol=0)

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


def no_workers(monkeypatch):
    """run_fidelity values every checkpoint in this process from here on."""
    monkeypatch.setattr(evaluation, "_worker_count", lambda: 1)


def workers(monkeypatch, count):
    """run_fidelity forks count workers from here on: usable CPUs - 1."""
    monkeypatch.setattr(evaluation, "_worker_count", lambda: count + 1)


def train_with_hook(monkeypatch, after_checkpoint):
    """run_fidelity's train calls after_checkpoint(step) after each checkpoint
    hook call, in the caller."""
    real_train = evaluation.train

    def wrapped(net, cfg, data, checkpoint_hook):
        def hook(step, snap):
            checkpoint_hook(step, snap)
            after_checkpoint(step)
        return real_train(net, cfg, data, checkpoint_hook=hook)

    monkeypatch.setattr(evaluation, "train", wrapped)


def no_fork(method):
    raise AssertionError(f"a {method} context was requested")


def wait_for(path, seconds=60):
    deadline = time.monotonic() + seconds
    while not path.exists():
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.001)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers are forked on Linux")
class TestFidelityWorkers:
    """The checkpoints are valued on forked workers and the caller without changing a byte."""

    def fidelity_run(self):
        bundle = tiny_bundle(seed=8)
        net = MLP.initialize([4, 6, 3], ["tanh", "linear"], seed=8)
        cfg = TrainerConfig(learning_rate=0.05, batch_size=3, epochs=2,
                            warmup_epochs=0, mode=CurationMode.OFF, seed=8)
        # 14 steps, so 7 checkpoints: more than any worker count below
        return lambda: run_fidelity(net, cfg, bundle, probe_batch_size=4,
                                    checkpoint_every=2, permutations=20)

    def leaves_nothing_running(self, threads_before):
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) <= threads_before
        assert resource_tracker._resource_tracker._pid is None

    def test_records_and_files_identical_at_one_two_and_three_workers(self, monkeypatch,
                                                                       tmp_path):
        run = self.fidelity_run()
        no_workers(monkeypatch)
        reference, summary = run()
        emit_reports(reference, summary, None, tmp_path / "0")
        assert len(reference) == 7
        threads_before = set(threading.enumerate())
        for count in (1, 2, 3):
            workers(monkeypatch, count)
            records, summary = within(120, run)
            self.leaves_nothing_running(threads_before)
            assert records == reference
            emit_reports(records, summary, None, tmp_path / str(count))
            for name in ("fidelity.csv", "shapley.csv", "scores.csv", "fidelity_summary.json"):
                assert ((tmp_path / str(count) / name).read_bytes()
                        == (tmp_path / "0" / name).read_bytes())

    @pytest.mark.parametrize("every, checkpoints", [(1, 14), (4, 3), (100, 1)])
    def test_each_checkpoint_is_valued_by_one_process(self, monkeypatch, tmp_path, every,
                                                      checkpoints):
        bundle = tiny_bundle(seed=8)
        net = MLP.initialize([4, 6, 3], ["tanh", "linear"], seed=8)
        cfg = TrainerConfig(learning_rate=0.05, batch_size=3, epochs=2,
                            warmup_epochs=0, mode=CurationMode.OFF, seed=8)

        def run():  # 14 steps: every 1 fires 14 checkpoints, every 4 three, every 100 one
            return run_fidelity(net, cfg, bundle, probe_batch_size=4,
                                checkpoint_every=every, permutations=20)

        no_workers(monkeypatch)
        reference = run()
        assert len(reference[0]) == checkpoints
        log = tmp_path / "valued"
        record = evaluation._checkpoint_record

        def logged(k, *args):
            with open(log, "a") as f:  # one short append per call, so lines never mix
                f.write(f"{os.getpid()} {k}\n")
            return record(k, *args)

        monkeypatch.setattr(evaluation, "_checkpoint_record", logged)
        workers(monkeypatch, 5)  # more workers than checkpoints or cores
        threads_before = set(threading.enumerate())
        assert within(120, run) == reference
        self.leaves_nothing_running(threads_before)
        valued = sorted(int(line.split()[1]) for line in log.read_text().splitlines())
        assert valued == list(range(checkpoints))

    @pytest.mark.parametrize("every, checkpoints", [(100, 1), (4, 3)])
    def test_at_most_one_process_per_checkpoint(self, monkeypatch, every, checkpoints):
        bundle = tiny_bundle(seed=8)
        net = MLP.initialize([4, 6, 3], ["tanh", "linear"], seed=8)
        cfg = TrainerConfig(learning_rate=0.05, batch_size=3, epochs=2,
                            warmup_epochs=0, mode=CurationMode.OFF, seed=8)
        workers(monkeypatch, 5)
        if checkpoints == 1:
            monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        alive = []
        train_with_hook(monkeypatch, lambda step: alive.append(
            len(multiprocessing.active_children())))
        threads_before = set(threading.enumerate())
        records, _ = within(120, lambda: run_fidelity(net, cfg, bundle, probe_batch_size=4,
                                                      checkpoint_every=every, permutations=20))
        assert len(records) == checkpoints
        assert alive == [checkpoints - 1] * checkpoints
        self.leaves_nothing_running(threads_before)

    def test_records_follow_the_hook_calls_of_train(self, monkeypatch):
        # 21 training rows; no worker, so no process starts
        bundle = tiny_bundle(seed=5)
        net = MLP.initialize([4, 5, 3], ["relu", "linear"], seed=5)
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        no_workers(monkeypatch)
        for batch in (1, 3, 16):
            for epochs in (0, 1, 3):
                cfg = TrainerConfig(learning_rate=0.05, batch_size=batch, epochs=epochs,
                                    warmup_epochs=0, mode=CurationMode.OFF, seed=5)
                for every in (1, 2, 5, 50):
                    steps = []
                    train(net, replace(cfg, checkpoint_every=every), bundle,
                          checkpoint_hook=lambda step, snap: steps.append(step))
                    records, _ = run_fidelity(net, cfg, bundle, probe_batch_size=2,
                                              checkpoint_every=every, permutations=2)
                    assert [r.step for r in records] == steps

    def test_no_worker_off_linux(self, monkeypatch):
        run = self.fidelity_run()
        no_workers(monkeypatch)
        reference = run()
        workers(monkeypatch, 2)
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        monkeypatch.setattr(sys, "platform", "darwin")
        assert run() == reference

    def test_the_caller_runs_no_other_thread_during_train(self, monkeypatch):
        run = self.fidelity_run()
        workers(monkeypatch, 2)
        seen = []
        train_with_hook(monkeypatch, lambda step: seen.append(
            (threading.enumerate(), len(multiprocessing.active_children()))))
        run()  # on the main thread, so any other thread is a helper
        assert seen == [([threading.main_thread()], 2)] * 7
        self.leaves_nothing_running({threading.main_thread()})

    def test_no_worker_outlives_a_return_or_a_raise(self, monkeypatch):
        run = self.fidelity_run()
        workers(monkeypatch, 2)
        threads_before = set(threading.enumerate())
        within(120, run)
        self.leaves_nothing_running(threads_before)

        alive_at_raise = []

        def fail(step):
            alive_at_raise.append(len(multiprocessing.active_children()))
            raise RuntimeError("training failed after a checkpoint was sent")

        with monkeypatch.context() as failing:
            train_with_hook(failing, fail)
            with pytest.raises(RuntimeError, match="after a checkpoint was sent"):
                within(120, run)
        assert alive_at_raise == [2]
        self.leaves_nothing_running(threads_before)

    def test_a_raise_in_a_worker_surfaces_and_no_worker_outlives_it(self, monkeypatch,
                                                                    tmp_path):
        run = self.fidelity_run()
        workers(monkeypatch, 2)
        caller, raised_in = os.getpid(), tmp_path / "raised"
        score = evaluation.pair_matrix  # each checkpoint's scoring

        def fail_in_a_worker(*args):
            if os.getpid() == caller:
                return score(*args)
            with open(raised_in, "a") as f:
                f.write(f"{os.getpid()}\n")
            raise RuntimeError(f"scoring failed in process {os.getpid()}")

        monkeypatch.setattr(evaluation, "pair_matrix", fail_in_a_worker)
        # training waits at the first checkpoint until a worker has raised
        train_with_hook(monkeypatch, lambda step: wait_for(raised_in) if step == 2 else None)
        threads_before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="scoring failed in process") as raised:
            within(120, run)
        worker = str(raised.value).split()[-1]
        assert worker in raised_in.read_text().split() and worker != str(caller)
        assert f"in fidelity worker {worker}:" in str(raised.value.__cause__)
        assert "fail_in_a_worker" in str(raised.value.__cause__)  # the worker's traceback
        self.leaves_nothing_running(threads_before)

    def test_a_worker_killed_mid_run_makes_the_call_raise(self, monkeypatch):
        run = self.fidelity_run()
        workers(monkeypatch, 1)
        killed = []

        def kill_the_worker(step):
            if step == 2:
                (child,) = multiprocessing.active_children()
                os.kill(child.pid, signal.SIGKILL)
                killed.append(child.pid)

        train_with_hook(monkeypatch, kill_the_worker)
        threads_before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="exited with code -9") as raised:
            within(120, run)
        assert f"fidelity worker {killed[0]} " in str(raised.value)
        self.leaves_nothing_running(threads_before)


class TestShippedReferenceAccuracy:
    """The shipped Shapley reference (configs/fidelity.json: 100 orderings, so
    50 antithetic pairs) is no less accurate than the 1000 independent
    orderings it replaced, on the shipped net, data and checkpoint seeds."""

    CHECKPOINTS = 3  # the first few; all 20 would add seconds per seed

    def shipped_games(self, monkeypatch, seed):
        """(utility, seed) of each checkpoint of a shipped fidelity run."""
        config = cli.resolve_config({
            **json.loads((Path(__file__).resolve().parents[1] / "configs" / "fidelity.json")
                         .read_text()),
            "seed": seed})
        games = []
        shapley_mc = evaluation.shapley_mc

        def capture(u, permutations, seed, exhaustive=False):
            games.append((u, seed))
            return shapley_mc(u, permutations, seed, exhaustive)

        no_workers(monkeypatch)
        monkeypatch.setattr(evaluation, "shapley_mc", capture)
        f = config["fidelity"]
        assert f["permutations"] == 100 and not f["exhaustive"]
        run_fidelity(cli.build_net(config), cli.build_trainer_config(config),
                     cli.build_dataset(config), probe_batch_size=f["probe_batch_size"],
                     checkpoint_every=f["checkpoint_every"], permutations=f["permutations"])
        # the caller values the checkpoints from the back; each seed grows with k
        return sorted(games, key=lambda game: game[1])[:self.CHECKPOINTS]

    @pytest.mark.parametrize("seed", [0, 13])
    def test_fifty_pairs_no_worse_than_a_thousand_plain_orderings(self, monkeypatch, seed):
        paired, plain = [], []
        for u, mc_seed in self.shipped_games(monkeypatch, seed):
            # independent of both estimates' orderings; its own error is about
            # half that of 1000 plain orderings
            ref = reference.plain_shapley_mc(u, 4000, seed=[mc_seed, 1]).values
            spread = ref.max() - ref.min()
            for errors, est in ((paired, evaluation.shapley_mc(u, 100, mc_seed)),
                                (plain, reference.plain_shapley_mc(u, 1000, mc_seed))):
                errors.append(np.max(np.abs(est.values - ref)) / spread)
        assert np.mean(paired) <= np.mean(plain)


class TestFmt17Column:
    EDGES = [-0.0, 0.0, 5.0, 1e16, 1e17, 1.5e-300, 5e-324, 0.1 + 0.2]

    def test_edges_match_fmt17(self):
        assert list(fmt17_column(np.array(self.EDGES))) == [fmt17(x) for x in self.EDGES]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_any_finite_column_matches_fmt17(self, values):
        want = [fmt17(x) for x in values]
        assert list(fmt17_column(np.array(values, dtype=np.float64))) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_as_fmt17(self, bad):
        with pytest.raises(ValueError) as want:
            fmt17(bad)
        with pytest.raises(ValueError) as got:
            fmt17_column(np.array([1.0, bad, 2.0]))
        assert str(got.value) == str(want.value)


class TestEmitReports:
    @pytest.mark.parametrize("command, config, files, digest", [
        ("train", "curation.json",
         ["training_report.json", "inclusion.csv", "scores.csv", "checkpoint_final.json"],
         "6016da6d9c1033c0"),
        ("fidelity", "fidelity.json", ["fidelity.csv", "fidelity_summary.json"],
         "c436d13c6fb986d2")])
    def test_shipped_config_outputs_pinned(self, tmp_path, command, config, files, digest):
        # the digest perfbench/run.py takes of a seed-0 job's output files
        path = Path(__file__).resolve().parents[1] / "configs" / config
        assert main([command, "--config", str(path), "--seed", "0",
                     "--out", str(tmp_path)]) == 0
        h = hashlib.sha256()
        for name in files:
            h.update(name.encode() + b"\0" + (tmp_path / name).read_bytes())
        assert h.hexdigest()[:16] == digest

    def test_generate_outputs_pinned(self, tmp_path):
        # hashed as test_shipped_config_outputs_pinned hashes its files
        path = Path(__file__).resolve().parents[1] / "configs" / "curation.json"
        assert main(["generate", "--config", str(path), "--seed", "0",
                     "--out", str(tmp_path)]) == 0
        h = hashlib.sha256()
        for name in ("train.csv", "val.csv", "test.csv", "manifest.json"):
            h.update(name.encode() + b"\0" + (tmp_path / name).read_bytes())
        assert h.hexdigest()[:16] == "08fe0e18fb5ee4d9"

    @staticmethod
    def run_digest(tmp_path, argv, files):
        """Run a seed-0 command into tmp_path and digest its files as the pins above do."""
        assert main(argv + ["--seed", "0", "--out", str(tmp_path)]) == 0
        h = hashlib.sha256()
        for name in files:
            h.update(name.encode() + b"\0" + (tmp_path / name).read_bytes())
        return h.hexdigest()[:16]

    def test_precond_lai_outputs_pinned(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "configs" / "curation.json"
        assert self.run_digest(
            tmp_path, ["train", "--config", str(path), "--set", "trainer.estimator=precond_lai"],
            ["training_report.json", "inclusion.csv", "scores.csv", "checkpoint_final.json"],
        ) == "d17a5ec7817596d0"

    @pytest.mark.parametrize("setting, digest", [
        ("trainer.momentum=0.9", "33960a739115c6cf"),
        ("trainer.estimator=ghost", "dc311cbcf6c468a4"),
        ("trainer.estimator=ip", "35ba1f4641d3d9f6"),
        ("trainer.estimator=lli", "10926ec1c67f1d86"),
        ("trainer.mode=self", "a71a1587726402b1"),
        ("trainer.layer_calibration=true", "3ac5f380e15425e7"),
        ("trainer.mode=off", "239e47c1cc983e49")])
    def test_train_path_outputs_pinned(self, tmp_path, setting, digest):
        # the momentum, estimator, self-mode, calibration and warm-up-only paths
        # of the training step, each from the shipped curation config
        path = Path(__file__).resolve().parents[1] / "configs" / "curation.json"
        assert self.run_digest(
            tmp_path, ["train", "--config", str(path), "--set", setting],
            ["training_report.json", "inclusion.csv", "scores.csv", "checkpoint_final.json"],
        ) == digest

    def test_depth_three_train_outputs_pinned(self, tmp_path):
        # train on an 8-32-16-3 net: two hidden layers of different widths and
        # activations, where the backward chain runs below more than one layer
        path = Path(__file__).resolve().parents[1] / "configs" / "curation.json"
        assert self.run_digest(
            tmp_path, ["train", "--config", str(path), "--set", "model.layer_dims=[8, 32, 16, 3]",
                       "--set", 'model.activations=["tanh", "relu", "linear"]'],
            ["training_report.json", "inclusion.csv", "scores.csv", "checkpoint_final.json"],
        ) == "c21e3b6fd882d8d1"

    def test_shapley_csv_pinned(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "configs" / "fidelity.json"
        assert self.run_digest(tmp_path, ["fidelity", "--config", str(path)],
                               ["shapley.csv"]) == "0555ba529f349641"

    def test_diagnose_outputs_pinned(self, tmp_path):
        # diagnose on the checkpoint that train writes from the shipped curation config
        path = Path(__file__).resolve().parents[1] / "configs" / "curation.json"
        self.run_digest(tmp_path, ["train", "--config", str(path)], [])
        assert self.run_digest(tmp_path, ["diagnose", "--config", str(path)],
                               ["bound.json", "variance.json", "cost.json"]) == "2800859d0fb43489"

    def test_exhaustive_fidelity_outputs_pinned(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "configs" / "fidelity.json"
        assert self.run_digest(
            tmp_path, ["fidelity", "--config", str(path), "--set", "fidelity.exhaustive=true",
                       "--set", "fidelity.probe_batch_size=6"],
            ["fidelity.csv", "shapley.csv", "fidelity_summary.json"]) == "1667439bd67a8b75"

    def generate_twice(self, tmp_path):
        """generate from blobs into tmp_path/src, then from those CSVs into tmp_path/csv."""
        path = Path(__file__).resolve().parents[1] / "configs" / "curation.json"
        for out, extra in (("src", []), ("csv", ["--set", f"dataset.dir={tmp_path / 'src'}"])):
            digest = self.run_digest(tmp_path / out, ["generate", "--config", str(path), *extra],
                                     ["train.csv", "val.csv", "test.csv", "manifest.json"])
        manifests = [json.loads((tmp_path / d / "manifest.json").read_text())
                     for d in ("src", "csv")]
        return digest, manifests

    def test_generate_from_own_csv_pinned(self, tmp_path):
        digest, (source, again) = self.generate_twice(tmp_path)
        assert digest == "08fe0e18fb5ee4d9"
        for name in ("train.csv", "val.csv", "test.csv"):
            assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / "src" / name).read_bytes()
        source.pop("flipped"), again.pop("flipped")
        assert again == source

    def test_generate_from_own_csv_keeps_flipped(self, tmp_path):
        _, (source, again) = self.generate_twice(tmp_path)
        assert again["flipped"] == source["flipped"]

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
            spearman={"lai": 1.0, "ghost": None, "ip": 1.0, "lli": -1.0}, probe_ids=[3, 8])
        emit_reports([record], summarize_fidelity([record]), None, tmp_path)
        header, rows = read_csv(tmp_path / "fidelity.csv")
        parsed = {(int(r[0]), r[1]): (r[2], r[3]) for r in rows}
        assert parsed[(7, "ghost")] == ("", "")
        assert float(parsed[(7, "lai")][0]) == 0.75
        assert float(parsed[(7, "lli")][1]) == -1.0

    def test_shapley_csv_and_stderr_to_spread(self, tmp_path):
        record = FidelityRecord(
            step=7, scores={"lai": [0.1, 0.2]},
            shapley=[0.01, 0.03], shapley_stderr=[0.001, 0.003],
            pearson={"lai": 1.0}, spearman={"lai": 1.0}, probe_ids=[41, 5])
        # no spread: left out of the ratio; each checkpoint's rows carry its own ids
        flat = replace(record, step=9, shapley=[0.02, 0.02], probe_ids=[12, 0])
        emit_reports([record, flat], summarize_fidelity([record, flat]), None, tmp_path)
        header, rows = read_csv(tmp_path / "shapley.csv")
        assert header == ["step", "sample_id", "value", "stderr"]
        assert rows == [["7", "41", fmt17(0.01), fmt17(0.001)],
                        ["7", "5", fmt17(0.03), fmt17(0.003)],
                        ["9", "12", fmt17(0.02), fmt17(0.001)],
                        ["9", "0", fmt17(0.02), fmt17(0.003)]]
        doc = json.loads((tmp_path / "fidelity_summary.json").read_text())
        assert doc["mean_stderr_to_spread"] == 0.002 / (0.03 - 0.01)

    def test_fidelity_scores_csv_rows(self, tmp_path):
        record = FidelityRecord(
            step=7, scores={"lai": [0.1, -2.0], "ghost": [0.3, 1e17]},
            shapley=[0.01, 0.03], shapley_stderr=[0.001, 0.003],
            pearson={"lai": 1.0, "ghost": 1.0}, spearman={"lai": 1.0, "ghost": 1.0},
            probe_ids=[41, 5])
        emit_reports([record, replace(record, step=9)], None, None, tmp_path)
        header, rows = read_csv(tmp_path / "scores.csv")
        assert header == ["step", "sample_id", "estimator", "benefit"]
        assert rows == [[step, sid, name, benefit] for step in ("7", "9")
                        for sid, cells in (("41", [("ghost", "0.29999999999999999"),
                                                   ("lai", "0.10000000000000001")]),
                                           ("5", [("ghost", "1e+17"), ("lai", "-2.0")]))
                        for name, benefit in cells]

    @pytest.mark.parametrize("duplicated", [False, True])
    def test_fidelity_csv_recomputed_from_scores_and_shapley(self, tmp_path, duplicated):
        # fidelity.csv is each checkpoint's correlation of scores.csv with shapley.csv
        bundle = tiny_bundle(seed=6)
        if duplicated:  # every training row the same sample: constant scores, empty fields
            n = len(bundle.train)
            bundle = replace(bundle, train=Split(
                ids=bundle.train.ids, features=np.repeat(bundle.train.features[:1], n, axis=0),
                labels=np.repeat(bundle.train.labels[:1], n)))
        net = MLP.initialize([4, 6, 3], ["relu", "linear"], seed=6)
        cfg = TrainerConfig(learning_rate=0.05, batch_size=6, epochs=2,
                            warmup_epochs=0, mode=CurationMode.OFF, seed=6)
        records, summary = run_fidelity(net, cfg, bundle, probe_batch_size=5,
                                        checkpoint_every=2, permutations=20)
        emit_reports(records, summary, None, tmp_path)
        scores, shapley = {}, {}
        for step, sid, name, benefit in read_csv(tmp_path / "scores.csv")[1]:
            scores.setdefault((step, name), []).append((sid, float(benefit)))
        for step, sid, value, _ in read_csv(tmp_path / "shapley.csv")[1]:
            shapley.setdefault(step, []).append((sid, float(value)))
        written = read_csv(tmp_path / "fidelity.csv")[1]
        assert len(written) == len(scores) == len(records) * len(FIDELITY_ESTIMATORS)
        for step, name, *fields in written:
            ids, xs = zip(*scores[step, name])
            assert list(ids) == [sid for sid, _ in shapley[step]]
            ys = [value for _, value in shapley[step]]
            try:  # either correlation undefined marks the checkpoint degenerate
                want = [fmt17(pearson(xs, ys)), fmt17(spearman(xs, ys))]
            except DegenerateInputError:
                want = ["", ""]
            assert fields == want
        assert all(fields == ["", ""] if duplicated else "" not in fields
                   for _, _, *fields in written)

    def test_no_spread_gives_null_stderr_to_spread(self, tmp_path):
        emit_reports([], summarize_fidelity([]), None, tmp_path)
        assert (tmp_path / "shapley.csv").read_text() == "step,sample_id,value,stderr\n"
        assert (tmp_path / "scores.csv").read_text() == "step,sample_id,estimator,benefit\n"
        doc = json.loads((tmp_path / "fidelity_summary.json").read_text())
        assert doc["mean_stderr_to_spread"] is None

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
        epochs = len(report.inclusion)
        assert [int(r[1]) for r in rows] == np.tile(report.sample_ids, epochs).tolist()
        assert [int(r[2]) for r in rows] == report.inclusion.ravel().astype(int).tolist()
        by_epoch = {}
        for r in rows:
            by_epoch.setdefault(int(r[0]), 0)
            by_epoch[int(r[0])] += int(r[2])
        for stats in report.epoch_stats:
            assert by_epoch[stats.epoch] == stats.kept_count
        header, rows = read_csv(tmp_path / "scores.csv")
        assert header == ["step", "sample_id", "estimator", "benefit"]
        assert len(rows) == len(report.score_benefits)
        assert [int(r[0]) for r in rows] == report.score_steps.tolist()
        assert [int(r[1]) for r in rows] == report.score_ids.tolist()
        assert {r[2] for r in rows} == {report.estimator}
        assert [float(r[3]) for r in rows] == report.score_benefits.tolist()
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
