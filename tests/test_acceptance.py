"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Desk-scale analogues stand in for the large-model protocols; every
tolerance is fixed here, not calibrated at runtime.
"""

import json
import time

import numpy as np
import pytest

from layerval.cli import main
from layerval.data import Sample, make_noisy_blob_bundle
from layerval.evaluation import run_fidelity
from layerval.influence import Estimator, bound_diagnostics, pair_matrix
from layerval.network import MLP, Activation, Layer, batch_taps
from layerval.oracle import UtilityFn, shapley_mc
from layerval.trainer import (
    CurationMode,
    TrainerConfig,
    build_validation_cache,
    cache_reals_per_sample,
    curate_batch,
    pair_macs,
    train,
)
from helpers import from_samples
from reference import shapley_exact

ACTS = [Activation.LINEAR, Activation.RELU, Activation.TANH]


def report_line(number, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def random_architecture(rng, max_depth=3, max_dim=8, out_min=2):
    depth = int(rng.integers(1, max_depth + 1))
    dims = [int(rng.integers(2, max_dim + 1)) for _ in range(depth + 1)]
    dims[-1] = max(dims[-1], out_min)
    acts = [ACTS[int(rng.integers(3))] for _ in range(depth - 1)] + [Activation.LINEAR]
    return dims, acts


def row_taps(net, x, label, backward=True):
    """batch_taps of the single row (x, label)."""
    return batch_taps(net, x[None, :], np.array([label]), backward)


def sample_off_kinks(net, rng, margin=1e-3, tries=200):
    """Draw an input whose ReLU pre-activations sit away from the kink.

    Central differences are only a valid oracle at differentiable points;
    zero-initialized biases can park dead layers exactly on the kink.
    """
    for _ in range(tries):
        x = rng.normal(size=net.in_dim)
        taps = row_taps(net, x, 0, backward=False)
        # s(l) = [W|b](l) [a(l-1), 1] from the augmented activation block
        if all(layer.activation is not Activation.RELU
               or np.min(np.abs(a @ np.hstack([layer.weights, layer.bias[:, None]]).T)) >= margin
               for layer, a in zip(net.layers, taps.acts)):
            return x
    return None


def flat_gradient(net, x, label):
    """[dW(1), db(1), ..., dW(L), db(L)] flattened from the rank-1 rows g(l) (x) a~(l-1)."""
    taps = row_taps(net, x, label)
    parts = []
    for a, g in zip(taps.acts, taps.grads):
        outer = np.outer(g[0], a[0])
        parts += [outer[:, :-1].ravel(), outer[:, -1]]
    return np.concatenate(parts)


def finite_difference_flat(net, x, label, step=1e-5):
    def loss():
        return row_taps(net, x, label, backward=False).losses[0]

    flat = []
    for layer in net.layers:
        for arr in (layer.weights, layer.bias):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                lp = loss()
                arr[idx] = orig - step
                lm = loss()
                arr[idx] = orig
                flat.append((lp - lm) / (2 * step))
    return np.array(flat)


def test_criterion_1_gradient_oracle():
    """200 seeded nets, depth <= 3, dims <= 8: batched-tap gradients vs central differences."""
    t0 = time.time()
    worst = 0.0
    checked = 0
    trial = 0
    while checked < 200:
        rng = np.random.default_rng(trial)
        trial += 1
        dims, acts = random_architecture(rng)
        net = MLP.initialize(dims, acts, seed=trial)
        x = sample_off_kinks(net, rng)
        if x is None:
            continue  # net collapses every input onto a kink; skip it
        label = int(rng.integers(dims[-1]))
        analytic = flat_gradient(net, x, label)
        fd = finite_difference_flat(net, x, label)
        denom = np.maximum(np.abs(fd), 1e-4)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
        checked += 1
    elapsed = time.time() - t0
    report_line(1, worst <= 1e-5 and elapsed < 60,
                f"gradient oracle: max rel err {worst:.2e} over {checked} nets "
                f"({elapsed:.1f}s)")


def draw_pairs(rng, dims, count):
    """`count` (z, j) input/label pairs, drawn z then j as one pair at a time."""
    draws = [(rng.normal(size=dims[0]), int(rng.integers(dims[-1])))
             for _ in range(2 * count)]
    return draws[0::2], draws[1::2]


def pair_taps(net, rows):
    return batch_taps(net, np.stack([x for x, _ in rows]),
                      np.array([label for _, label in rows]), backward=True)


def test_criterion_2_ghost_equals_ip():
    """100 seeded nets, any activations, 10 pairs: |Ghost - IP| relative <= 1e-10."""
    t0 = time.time()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        dims, acts = random_architecture(rng)
        net = MLP.initialize(dims, acts, seed=trial)
        z_taps, j_taps = (pair_taps(net, rows) for rows in draw_pairs(rng, dims, 10))
        ip = np.diag(pair_matrix(Estimator.IP, z_taps, j_taps))
        ghost = np.diag(pair_matrix(Estimator.GHOST, z_taps, j_taps))
        worst = max(worst, float(np.max(np.abs(ghost - ip) / np.maximum(np.abs(ip), 1e-12))))
    elapsed = time.time() - t0
    report_line(2, worst <= 1e-10 and elapsed < 60,
                f"ghost == ip: max rel gap {worst:.2e} over 1000 pairs ({elapsed:.1f}s)")


def test_criterion_3_depth_one_collapse():
    """L=1 nets: IP = Ghost = LAI = LLI to 1e-12 on every tested pair."""
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(2000 + trial)
        in_dim = int(rng.integers(2, 9))
        out_dim = int(rng.integers(2, 9))
        net = MLP.initialize([in_dim, out_dim], [Activation.LINEAR], seed=trial)
        z_taps, j_taps = (pair_taps(net, rows)
                          for rows in draw_pairs(rng, [in_dim, out_dim], 5))
        values = np.array([np.diag(pair_matrix(est, z_taps, j_taps)) for est in
                           (Estimator.IP, Estimator.GHOST, Estimator.LAI, Estimator.LLI)])
        worst = max(worst, float(np.max(values.max(axis=0) - values.min(axis=0))))
    report_line(3, worst <= 1e-12,
                f"depth-1 collapse: max spread {worst:.2e} across 250 pairs")


def test_criterion_4_shapley_efficiency_and_mc():
    """Exact efficiency to 1e-9 on batches <= 8; MC(1000) within 5% of range."""
    t0 = time.time()
    eff_worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(3000 + seed)
        net = MLP.initialize([4, 6, 3], ["relu", "linear"], seed=seed)
        batch = from_samples([Sample(id=i, features=rng.normal(size=4),
                                     label=int(rng.integers(3))) for i in range(8)])
        val = from_samples([Sample(id=100 + i, features=rng.normal(size=4),
                                   label=int(rng.integers(3))) for i in range(6)])
        u = UtilityFn(net, val, batch, learning_rate=0.1)
        est = shapley_exact(u)
        grand = u.utilities(np.ones((1, 8), dtype=bool))[0]
        eff_worst = max(eff_worst, abs(est.values.sum() - grand))
    mc_worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(4000 + seed)
        net = MLP.initialize([4, 6, 3], ["relu", "linear"], seed=seed)
        batch = from_samples([Sample(id=i, features=rng.normal(size=4),
                                     label=int(rng.integers(3))) for i in range(6)])
        val = from_samples([Sample(id=100 + i, features=rng.normal(size=4),
                                   label=int(rng.integers(3))) for i in range(6)])
        u = UtilityFn(net, val, batch, learning_rate=0.1)
        exact = shapley_exact(u)
        spread = float(exact.values.max() - exact.values.min())
        mc = shapley_mc(u, permutations=1000, seed=seed)
        mc_worst = max(mc_worst, float(np.max(np.abs(mc.values - exact.values))) / spread)
    elapsed = time.time() - t0
    report_line(4, eff_worst <= 1e-9 and mc_worst <= 0.05 and elapsed < 300,
                f"shapley: efficiency gap {eff_worst:.2e}, MC worst error "
                f"{100 * mc_worst:.2f}% of range ({elapsed:.1f}s)")


def test_criterion_5_fidelity_floor():
    """2-layer ReLU 8-16-3, 20% flips, probe 16, 20 checkpoints, 1000 permutations."""
    t0 = time.time()
    bundle = make_noisy_blob_bundle(3, 200, 8, 0.8, flip_rate=0.2,
                                    fractions=(0.8, 0.1, 0.1), seed=0)
    net = MLP.initialize([8, 16, 3], ["relu", "linear"], seed=0)
    cfg = TrainerConfig(learning_rate=0.05, momentum=0.0, batch_size=16,
                        epochs=10, warmup_epochs=0, mode=CurationMode.OFF, seed=0)
    records, summary = run_fidelity(net, cfg, bundle, probe_batch_size=16,
                                    checkpoint_every=15, permutations=1000)
    lai = summary.per_estimator["lai"]
    ghost = summary.per_estimator["ghost"]
    elapsed = time.time() - t0
    ok = (summary.checkpoints_total == 20
          and lai.checkpoints == 20
          and lai.mean >= 0.5
          and lai.mean >= ghost.mean - 0.10
          and elapsed < 900)
    report_line(5, ok,
                f"fidelity: mean Pearson LAI {lai.mean:.4f} (std {lai.std:.4f}), "
                f"Ghost {ghost.mean:.4f} over {summary.checkpoints_total} "
                f"checkpoints ({elapsed:.0f}s)")


def test_criterion_6_curation_benefit():
    """40%-flip benchmark: LAI curation beats paired-seed vanilla by >= 2pp."""
    t0 = time.time()
    gaps = []
    for seed in range(5):
        bundle = make_noisy_blob_bundle(3, 300, 8, 0.8, flip_rate=0.4,
                                        fractions=(0.6, 0.2, 0.2), seed=seed)
        accs = {}
        for mode in (CurationMode.OFF, CurationMode.VALIDATION):
            net = MLP.initialize([8, 64, 3], ["relu", "linear"], seed=seed)
            cfg = TrainerConfig(learning_rate=0.3, momentum=0.0, batch_size=16,
                                epochs=10, warmup_epochs=3,
                                estimator=Estimator.LAI, mode=mode,
                                val_fraction_per_batch=0.1, seed=seed)
            report, _ = train(net, cfg, bundle)
            accs[mode] = report.epoch_stats[-1].test_accuracy
        gaps.append(accs[CurationMode.VALIDATION] - accs[CurationMode.OFF])
    mean_gap = float(np.mean(gaps))
    elapsed = time.time() - t0
    report_line(6, mean_gap >= 0.02 and elapsed < 600,
                f"curation: mean accuracy gain {100 * mean_gap:+.2f}pp over 5 seeds, "
                f"per-seed {[f'{100 * g:+.1f}' for g in gaps]} ({elapsed:.0f}s)")


def test_criterion_7_cost_ordering():
    """LAI < Ghost scoring MACs and cache bytes for every L >= 2; equal MACs at L = 1."""
    t0 = time.time()
    violations = []
    configs = [
        ([5, 3], ["linear"]),
        ([8, 16, 3], ["relu", "linear"]),
        ([8, 16, 16, 4], ["relu", "relu", "linear"]),
        ([3, 20, 2], ["tanh", "linear"]),
        ([12, 4, 4, 4, 3], ["relu", "tanh", "relu", "linear"]),
        ([2, 2, 2], ["linear", "linear"]),
    ]
    for dims, acts in configs:
        net = MLP.initialize(dims, acts, seed=0)
        lai_m, ghost_m = pair_macs(net, Estimator.LAI), pair_macs(net, Estimator.GHOST)
        lai_b = cache_reals_per_sample(net, Estimator.LAI)
        ghost_b = cache_reals_per_sample(net, Estimator.GHOST)
        if net.depth == 1:
            if lai_m != ghost_m:
                violations.append((dims, "depth-1 MACs differ"))
        else:
            if not (lai_m < ghost_m and lai_b < ghost_b):
                violations.append((dims, "ordering violated"))
    elapsed = time.time() - t0
    report_line(7, not violations and elapsed < 60,
                f"cost ordering: {len(configs)} configs checked, "
                f"violations {violations or 'none'} ({elapsed:.1f}s)")


def scaled_orthogonal_net(width, depth, scale, seed):
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(depth):
        q, _ = np.linalg.qr(rng.normal(size=(width, width)))
        layers.append(Layer(scale * q, np.zeros(width), Activation.LINEAR))
    return MLP(layers=layers, seed=seed)


def test_criterion_8_bound_diagnostic():
    """Contractive all-linear nets with assumptions_hold: gap <= bound, 100/100."""
    t0 = time.time()
    held = within = 0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        width = int(rng.integers(2, 7))
        depth = int(rng.integers(2, 5))
        net = scaled_orthogonal_net(width, depth, scale=0.9, seed=trial)
        x = 0.5 * rng.normal(size=width)
        taps = row_taps(net, x, int(rng.integers(width)))
        rep = bound_diagnostics(taps, taps)
        if rep.assumptions_hold:
            held += 1
            if rep.measured_rel_gap is not None \
                    and rep.measured_rel_gap <= rep.bound_value:
                within += 1
    elapsed = time.time() - t0
    report_line(8, held == 100 and within == 100 and elapsed < 60,
                f"bound diagnostic: assumptions held {held}/100, "
                f"gap within bound {within}/{held} ({elapsed:.1f}s)")


def test_criterion_9_determinism(tmp_path):
    """Rerunning a subcommand with the identical resolved config is byte-identical."""
    config = {
        "seed": 3,
        "output_dir": str(tmp_path / "run"),
        "dataset": {"num_classes": 3, "per_class": 12, "feature_dim": 4,
                    "spread": 0.5, "flip_rate": 0.25, "fractions": [0.7, 0.15, 0.15]},
        "model": {"layer_dims": [4, 6, 3], "activations": ["relu", "linear"]},
        "trainer": {"batch_size": 5, "epochs": 3, "warmup_epochs": 1,
                    "val_fraction_per_batch": 0.5},
        "fidelity": {"probe_batch_size": 3, "checkpoint_every": 3,
                     "permutations": 6, "exhaustive": True},
        "diagnose": {"pair_count": 3, "resamples": 4, "subset_size": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    tracked = {
        "generate": ["train.csv", "val.csv", "test.csv", "manifest.json"],
        "train": ["training_report.json", "inclusion.csv", "scores.csv",
                  "checkpoint_final.json", "resolved_config.json"],
        "fidelity": ["fidelity.csv", "fidelity_summary.json"],
        "diagnose": ["bound.json", "variance.json", "cost.json"],
    }
    mismatches = []
    for command in ("generate", "train", "fidelity", "diagnose"):
        assert main([command, "--config", str(cfg_path)]) == 0
        first = {name: (tmp_path / "run" / name).read_bytes()
                 for name in tracked[command]}
        assert main([command, "--config", str(cfg_path)]) == 0
        for name, blob in first.items():
            if (tmp_path / "run" / name).read_bytes() != blob:
                mismatches.append(f"{command}/{name}")
    report_line(9, not mismatches,
                f"determinism: reruns byte-identical "
                f"({'all files' if not mismatches else mismatches})")


def test_criterion_10_threshold_monotonicity():
    """Kept sets nest as the threshold sweeps {-0.1, 0, 0.1} at a fixed step.

    A near-converged net concentrates benefit scores around zero, so every
    threshold in the sweep actually pinches the kept set.
    """
    bundle = make_noisy_blob_bundle(3, 40, 4, 0.4, flip_rate=0.0,
                                    fractions=(0.7, 0.15, 0.15), seed=6)
    net = MLP.initialize([4, 8, 3], ["relu", "linear"], seed=6)
    warm = TrainerConfig(learning_rate=0.5, batch_size=16, epochs=120,
                         warmup_epochs=120, mode=CurationMode.OFF, seed=6)
    _, net = train(net, warm, bundle)
    rows = bundle.train[:16]
    batch = batch_taps(net, rows.features, rows.labels, backward=False)
    cache = build_validation_cache(net, batch_taps(net, bundle.validation.features,
                                                   bundle.validation.labels, backward=False),
                                   Estimator.LAI)
    kept_sets = []
    for thr in (-0.1, 0.0, 0.1):
        cfg = TrainerConfig(learning_rate=0.5, batch_size=16, epochs=1,
                            warmup_epochs=0, estimator=Estimator.LAI,
                            mode=CurationMode.VALIDATION, threshold=thr, seed=6)
        decision = curate_batch(batch, cache, cfg)
        kept_sets.append({i for i, k in enumerate(decision.kept_mask) if k})
    nested = kept_sets[0] >= kept_sets[1] >= kept_sets[2]
    strict = len(kept_sets[0]) > len(kept_sets[1]) > len(kept_sets[2])
    report_line(10, nested,
                f"threshold monotonicity: kept sizes "
                f"{[len(s) for s in kept_sets]} nested"
                f"{' (strictly shrinking)' if strict else ''}")
