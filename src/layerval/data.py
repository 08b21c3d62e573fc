"""Synthetic classification data: seeded blob generators, label noise, splits, CSV IO.

Each split is a Split of aligned columns, checked where its rows enter: its
constructor names the first bad row, and load_csv turns that into a file and line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import serialize


@dataclass
class Sample:  # one row of a Split
    id: int
    features: np.ndarray
    label: int
    noisy: bool = False


class SplitError(ValueError):
    """A rejected Split; `kind` names the defect and `row` the first bad row."""

    def __init__(self, kind: str, row: int, detail: str):
        super().__init__(f"row {row}: {detail}")
        self.kind, self.row, self.detail = kind, row, detail


@dataclass(eq=False)
class Split:
    """n rows as aligned columns: ids (int64), features (n x d float64),
    labels (int64, >= 0) and noisy (bool, all False unless given).
    len(split) is n, split[i] is row i as a Sample (so iterating gives the
    rows), and split[slice or index array] is the Split of those rows."""

    ids: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    noisy: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.features)
        if X.ndim != 2:
            raise ValueError(f"features must be an (n, d) array, got shape {X.shape}")
        n = len(X)
        noisy = np.zeros(n, dtype=bool) if self.noisy is None else self.noisy
        for name, col, ndim, kinds, dtype in (("ids", self.ids, 1, "iu", np.int64),
                                              ("features", X, 2, "iuf", np.float64),
                                              ("labels", self.labels, 1, "iu", np.int64),
                                              ("noisy", noisy, 1, "b", bool)):
            col = np.asarray(col)
            if col.ndim != ndim or len(col) != n:
                raise SplitError("ragged", min(n, col.size), f"columns of different lengths: "
                                 f"{name} {col.shape}, features {X.shape}")
            if n and col.dtype.kind not in kinds:
                raise SplitError("dtype", 0, f"{name} of dtype {col.dtype}")
            setattr(self, name, col.astype(dtype, copy=False))
        finite = np.isfinite(self.features).all(axis=1)
        if not finite.all():
            raise SplitError("non_finite", int(np.argmin(finite)), "non-finite feature")
        if np.any(self.labels < 0):
            row = int(np.argmax(self.labels < 0))
            raise SplitError("negative_label", row, f"negative label {self.labels[row]}")

    def __len__(self) -> int:
        return len(self.features)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Sample(int(self.ids[index]), self.features[index],
                          int(self.labels[index]), bool(self.noisy[index]))
        return Split(self.ids[index], self.features[index], self.labels[index],
                     self.noisy[index])


@dataclass
class DatasetBundle:
    train: Split
    validation: Split
    test: Split


class CsvFormatError(ValueError):
    """Raised on malformed dataset CSV; `kind` names the defect."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def generate_blobs(num_classes: int, per_class: int, feature_dim: int,
                   spread: float, seed: int) -> Split:
    """Gaussian clusters around seeded standard-normal centers, class by class."""
    if num_classes < 1 or per_class < 1 or feature_dim < 1:
        raise ValueError("counts must be positive")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(num_classes, feature_dim))
    noise = rng.normal(0.0, 1.0, size=(num_classes, per_class, feature_dim))
    features = (centers[:, None, :] + spread * noise).reshape(-1, feature_dim)
    return Split(ids=np.arange(len(features)), features=features,
                 labels=np.repeat(np.arange(num_classes), per_class))


def inject_label_noise(rows: Split, flip_rate: float, num_classes: int, seed: int) -> Split:
    """Flip floor(flip_rate * n) labels to a uniformly random different class."""
    if not 0.0 <= flip_rate <= 1.0:
        raise ValueError("flip_rate must lie in [0, 1]")
    if flip_rate > 0.0 and num_classes < 2:
        raise ValueError("cannot flip labels with fewer than two classes")
    rng = np.random.default_rng(seed)
    n_flip = int(math.floor(flip_rate * len(rows)))
    labels = rows.labels.copy()
    noisy = np.zeros(len(rows), dtype=bool)
    if n_flip:
        flipped = np.sort(rng.choice(len(rows), size=n_flip, replace=False))
        offsets = rng.integers(1, num_classes, size=n_flip)
        labels[flipped] = (labels[flipped] + offsets) % num_classes
        noisy[flipped] = True
    return replace(rows, labels=labels, noisy=noisy)


def split(rows: Split, fractions: tuple[float, float, float], seed: int) -> DatasetBundle:
    """Seeded shuffle then contiguous train/validation/test partition."""
    if any(f <= 0.0 for f in fractions):
        raise ValueError("all split fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    rng = np.random.default_rng(seed)
    n = len(rows)
    shuffled = rows[rng.permutation(n)]
    n_train = int(math.floor(fractions[0] * n))
    n_val = int(math.floor(fractions[1] * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"split produced an empty part: {n_train}/{n_val}/{n_test}")
    return DatasetBundle(
        shuffled[:n_train], shuffled[n_train:n_train + n_val], shuffled[n_train + n_val:])


def make_noisy_blob_bundle(num_classes: int, per_class: int, feature_dim: int,
                           spread: float, flip_rate: float,
                           fractions: tuple[float, float, float],
                           seed: int) -> DatasetBundle:
    """generate -> split -> flip training labels only (validation/test stay clean)."""
    rows = generate_blobs(num_classes, per_class, feature_dim, spread, seed)
    bundle = split(rows, fractions, seed + 1)
    noisy_train = inject_label_noise(bundle.train, flip_rate, num_classes, seed + 2)
    return replace(bundle, train=noisy_train)


def save_csv(rows: Split, path: str | Path) -> None:
    """Rows `id,f1,...,fd,label`; features carry 17 significant digits."""
    header = ["id"] + [f"f{i + 1}" for i in range(rows.features.shape[1])] + ["label"]
    serialize.write_csv(path, header, [
        [sid, *feats, label] for sid, feats, label
        in zip(rows.ids.tolist(), rows.features.tolist(), rows.labels.tolist())])


def load_csv(path: str | Path) -> Split:
    """Parse `id,f1,...,fd,label` rows; every defect names the file and line."""
    header, rows = serialize.read_csv(path)
    if not header:
        raise CsvFormatError("missing_header", f"{path}: empty file, header required")
    if len(header) < 3 or header[0] != "id" or header[-1] != "label":
        raise CsvFormatError("bad_header", f"{path}: header must be id,f1,...,fd,label")
    dim = len(header) - 2
    ids, features, labels = [], [], []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != dim + 2:
            raise CsvFormatError("ragged_row",
                                 f"{path}: line {lineno}: expected {dim + 2} fields, got {len(row)}")
        try:
            ids.append(int(row[0]))
            features.append([float(v) for v in row[1:-1]])
            labels.append(int(row[-1]))
        except ValueError as exc:
            raise CsvFormatError("non_numeric",
                                 f"{path}: line {lineno}: non-numeric field ({exc})") from exc
    try:
        loaded = Split(ids=np.array(ids, dtype=np.int64),
                       features=np.array(features, dtype=np.float64).reshape(-1, dim),
                       labels=np.array(labels, dtype=np.int64))
    except SplitError as exc:
        raise CsvFormatError(exc.kind, f"{path}: line {exc.row + 2}: {exc.detail}") from exc
    repeated = np.ones(len(loaded), dtype=bool)
    repeated[np.unique(loaded.ids, return_index=True)[1]] = False
    if repeated.any():
        row = int(np.argmax(repeated))
        raise CsvFormatError("duplicate_id",
                             f"{path}: line {row + 2}: duplicate id {loaded.ids[row]}")
    return loaded


def write_bundle(bundle: DatasetBundle, out_dir: str | Path, seed: int, num_classes: int,
                 flip_rate: float, fractions: tuple[float, float, float]) -> None:
    """Write train/val/test CSVs plus a manifest of the construction the caller states."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(bundle.train, out / "train.csv")
    save_csv(bundle.validation, out / "val.csv")
    save_csv(bundle.test, out / "test.csv")
    manifest = {
        "seed": seed,
        "num_classes": num_classes,
        "feature_dim": bundle.train.features.shape[1],
        "flip_rate": flip_rate,
        "fractions": list(fractions),
        "counts": {"train": len(bundle.train), "validation": len(bundle.validation),
                   "test": len(bundle.test)},
        "flipped": int(np.count_nonzero(bundle.train.noisy)),
    }
    serialize.dump_json(manifest, out / "manifest.json")


def load_bundle(dir_path: str | Path) -> DatasetBundle:
    """The train/val/test CSVs of a directory."""
    d = Path(dir_path)
    return DatasetBundle(*(load_csv(d / name) for name in ("train.csv", "val.csv", "test.csv")))
