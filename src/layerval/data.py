"""Synthetic classification data: seeded blob generators, label noise, splits, CSV IO."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import serialize


@dataclass
class Sample:
    id: int
    features: np.ndarray
    label: int
    noisy: bool = False


@dataclass
class DatasetBundle:
    train: list[Sample]
    validation: list[Sample]
    test: list[Sample]
    num_classes: int
    feature_dim: int
    noise_rate: float
    seed: int


class CsvFormatError(ValueError):
    """Raised on malformed dataset CSV; `kind` names the defect."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def generate_blobs(num_classes: int, per_class: int, feature_dim: int,
                   spread: float, seed: int) -> list[Sample]:
    """Gaussian clusters around seeded standard-normal centers."""
    if num_classes < 1 or per_class < 1 or feature_dim < 1:
        raise ValueError("counts must be positive")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(num_classes, feature_dim))
    samples = []
    next_id = 0
    for c in range(num_classes):
        for _ in range(per_class):
            x = centers[c] + spread * rng.normal(0.0, 1.0, size=feature_dim)
            samples.append(Sample(id=next_id, features=x, label=c))
            next_id += 1
    return samples


def inject_label_noise(samples: list[Sample], flip_rate: float, num_classes: int,
                       seed: int) -> list[Sample]:
    """Flip floor(flip_rate * n) labels to a uniformly random different class."""
    if not 0.0 <= flip_rate <= 1.0:
        raise ValueError("flip_rate must lie in [0, 1]")
    if flip_rate > 0.0 and num_classes < 2:
        raise ValueError("cannot flip labels with fewer than two classes")
    rng = np.random.default_rng(seed)
    n_flip = int(math.floor(flip_rate * len(samples)))
    flip_idx = set(rng.choice(len(samples), size=n_flip, replace=False).tolist()) if n_flip else set()
    out = []
    for i, s in enumerate(samples):
        if i in flip_idx:
            offset = int(rng.integers(1, num_classes))
            out.append(replace(s, label=(s.label + offset) % num_classes, noisy=True))
        else:
            out.append(replace(s, noisy=False))
    return out


def split(samples: list[Sample], fractions: tuple[float, float, float],
          seed: int, num_classes: int | None = None) -> DatasetBundle:
    """Seeded shuffle then contiguous train/validation/test partition."""
    if any(f <= 0.0 for f in fractions):
        raise ValueError("all split fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    n = len(samples)
    n_train = int(math.floor(fractions[0] * n))
    n_val = int(math.floor(fractions[1] * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"split produced an empty part: {n_train}/{n_val}/{n_test}")
    shuffled = [samples[i] for i in order]
    if num_classes is None:
        num_classes = max(s.label for s in samples) + 1
    return DatasetBundle(
        train=shuffled[:n_train],
        validation=shuffled[n_train:n_train + n_val],
        test=shuffled[n_train + n_val:],
        num_classes=num_classes,
        feature_dim=samples[0].features.shape[0] if samples else 0,
        noise_rate=0.0,
        seed=seed,
    )


def make_noisy_blob_bundle(num_classes: int, per_class: int, feature_dim: int,
                           spread: float, flip_rate: float,
                           fractions: tuple[float, float, float],
                           seed: int) -> DatasetBundle:
    """generate -> split -> flip training labels only (validation/test stay clean)."""
    samples = generate_blobs(num_classes, per_class, feature_dim, spread, seed)
    bundle = split(samples, fractions, seed + 1, num_classes=num_classes)
    noisy_train = inject_label_noise(bundle.train, flip_rate, num_classes, seed + 2)
    return replace(bundle, train=noisy_train, noise_rate=flip_rate, seed=seed)


def save_csv(samples: list[Sample], path: str | Path) -> None:
    """Rows `id,f1,...,fd,label`; features carry 17 significant digits."""
    if samples:
        dim = samples[0].features.shape[0]
    else:
        dim = 0
    header = ["id"] + [f"f{i + 1}" for i in range(dim)] + ["label"]
    rows = [[s.id] + [float(v) for v in s.features] + [s.label] for s in samples]
    serialize.write_csv(path, header, rows)


def load_csv(path: str | Path) -> list[Sample]:
    header, rows = serialize.read_csv(path)
    if not header:
        raise CsvFormatError("missing_header", f"{path}: empty file, header required")
    if len(header) < 3 or header[0] != "id" or header[-1] != "label":
        raise CsvFormatError("bad_header", f"{path}: header must be id,f1,...,fd,label")
    dim = len(header) - 2
    samples = []
    seen_ids: set[int] = set()
    for lineno, row in enumerate(rows, start=2):
        if len(row) != dim + 2:
            raise CsvFormatError("ragged_row",
                                 f"{path}: line {lineno}: expected {dim + 2} fields, got {len(row)}")
        try:
            sid = int(row[0])
            feats = np.array([float(v) for v in row[1:-1]], dtype=np.float64)
            label = int(row[-1])
        except ValueError as exc:
            raise CsvFormatError("non_numeric",
                                 f"{path}: line {lineno}: non-numeric field ({exc})") from exc
        if not np.all(np.isfinite(feats)):
            raise CsvFormatError("non_finite", f"{path}: line {lineno}: non-finite feature")
        if label < 0:
            raise CsvFormatError("negative_label",
                                 f"{path}: line {lineno}: negative label {label}")
        if sid in seen_ids:
            raise CsvFormatError("duplicate_id", f"{path}: line {lineno}: duplicate id {sid}")
        seen_ids.add(sid)
        samples.append(Sample(id=sid, features=feats, label=label))
    return samples


def write_bundle(bundle: DatasetBundle, out_dir: str | Path,
                 fractions: tuple[float, float, float] | None = None) -> None:
    """Write train/val/test CSVs plus a manifest describing the construction."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(bundle.train, out / "train.csv")
    save_csv(bundle.validation, out / "val.csv")
    save_csv(bundle.test, out / "test.csv")
    manifest = {
        "seed": bundle.seed,
        "num_classes": bundle.num_classes,
        "feature_dim": bundle.feature_dim,
        "flip_rate": bundle.noise_rate,
        "fractions": list(fractions) if fractions else None,
        "counts": {
            "train": len(bundle.train),
            "validation": len(bundle.validation),
            "test": len(bundle.test),
        },
        "flipped": sum(1 for s in bundle.train if s.noisy),
    }
    serialize.dump_json(manifest, out / "manifest.json")


def load_bundle(dir_path: str | Path, num_classes: int | None = None,
                noise_rate: float = 0.0, seed: int = 0) -> DatasetBundle:
    d = Path(dir_path)
    train = load_csv(d / "train.csv")
    val = load_csv(d / "val.csv")
    test = load_csv(d / "test.csv")
    if num_classes is None:
        num_classes = max(s.label for s in train + val + test) + 1
    dim = train[0].features.shape[0] if train else 0
    return DatasetBundle(train=train, validation=val, test=test,
                         num_classes=num_classes, feature_dim=dim,
                         noise_rate=noise_rate, seed=seed)
