"""Splits for tests: from arrays, from one seeded draw, or from Sample records."""

import numpy as np

from layerval.data import Split


def rows(features, labels) -> Split:
    """A Split of the given rows, with ids 0..n-1."""
    features = np.asarray(features, dtype=np.float64)
    return Split(ids=np.arange(len(features)), features=features, labels=labels)


def toy_split(net, n, seed) -> Split:
    """n rows for net from one draw: standard-normal features, then labels
    uniform over the net's classes."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, net.in_dim))
    return rows(features, rng.integers(net.out_dim, size=n))


def from_samples(samples) -> Split:
    """The Split of Sample records, for data drawn one sample at a time."""
    return Split(ids=[s.id for s in samples], features=np.stack([s.features for s in samples]),
                 labels=[s.label for s in samples], noisy=[s.noisy for s in samples])
