"""Minimal dense feed-forward network with exposed per-layer taps.

Forward:   s(l) = W(l) a(l-1) + b(l),   a(l) = act(s(l)),   logits = s(L)
Backward:  g(L) = softmax(logits) - onehot(label)
           g(l-1) = W(l)^T g(l) * act'(s(l-1))
Grads:     dW(l) = g(l) a(l-1)^T,   db(l) = g(l)

act' comes from a = act(s) (relu: a > 0, tanh: 1 - a^2, linear: 1): the same bits.

batch_taps runs these passes for a whole batch at once and row-stacks every
augmented activation [a(l-1), 1] and loss-to-pre-activation gradient g(l)
in a BatchTaps; every command takes its taps from it. It is check_rows
(rows must fit the net) then _taps, the check-free pass that the trainer
runs on rows it checked once. backward_chain finishes the backward pass of
any rows of forward-only taps. The per-sample functions (forward,
loss_and_output_grad, backward_taps, param_grads, evaluate_sample and their
SampleTaps/ParamGrads records) are called by no command. They stay because
the benchmark tracer (perfbench/job.py) binds them by name, and the tests
check batch_taps against them. All arithmetic is float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import serialize


class Activation(str, Enum):
    LINEAR = "linear"
    RELU = "relu"
    TANH = "tanh"


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: Activation

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError(f"layer dims must be positive, got {self.in_dim}x{self.out_dim}")


@dataclass
class Layer:
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    spec: LayerSpec


@dataclass
class MLP:
    layers: list[Layer]
    seed: int = 0

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for i, layer in enumerate(self.layers):
            spec = layer.spec
            if layer.weights.shape != (spec.out_dim, spec.in_dim):
                raise ValueError(f"layer {i}: weight shape {layer.weights.shape} != spec")
            if layer.bias.shape != (spec.out_dim,):
                raise ValueError(f"layer {i}: bias shape {layer.bias.shape} != spec")
            if i > 0 and spec.in_dim != self.layers[i - 1].spec.out_dim:
                raise ValueError(f"layer {i}: in_dim {spec.in_dim} != previous out_dim")
            if not (np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))):
                raise ValueError(f"layer {i}: non-finite parameters")
        if self.layers[-1].spec.activation is not Activation.LINEAR:
            raise ValueError("final layer activation must be linear (logits feed softmax)")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].spec.in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].spec.out_dim

    @property
    def num_params(self) -> int:
        return sum(l.weights.size + l.bias.size for l in self.layers)

    def copy(self) -> "MLP":
        return MLP(
            layers=[Layer(l.weights.copy(), l.bias.copy(), l.spec) for l in self.layers],
            seed=self.seed,
        )

    @staticmethod
    def initialize(dims: list[int], activations: list[Activation | str], seed: int = 0) -> "MLP":
        """Build a seeded net; weights uniform in [-1/sqrt(in_dim), +1/sqrt(in_dim)], biases zero."""
        if len(dims) < 2:
            raise ValueError("dims must list input plus at least one layer output")
        if len(activations) != len(dims) - 1:
            raise ValueError("need one activation per layer")
        rng = np.random.default_rng(seed)
        layers = []
        for i in range(len(dims) - 1):
            act = Activation(activations[i])
            spec = LayerSpec(dims[i], dims[i + 1], act)
            bound = 1.0 / np.sqrt(spec.in_dim)
            w = rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim))
            b = np.zeros(spec.out_dim)
            layers.append(Layer(w, b, spec))
        return MLP(layers=layers, seed=seed)


@dataclass
class SampleTaps:
    """Per-sample forward/backward record: a(0..L-1), s(1..L), loss, g(1..L)."""

    activations: list[np.ndarray]
    pre_activations: list[np.ndarray]
    loss: float | None = None
    output_grad: np.ndarray | None = None
    layer_grads: list[np.ndarray] | None = None

    @property
    def complete(self) -> bool:
        return self.layer_grads is not None and self.output_grad is not None


@dataclass
class ParamGrads:
    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]

    def flatten(self) -> np.ndarray:
        parts: list[np.ndarray] = []
        for w, b in zip(self.weight_grads, self.bias_grads):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)


def _apply_activation(kind: Activation, s: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The activation of s, written into out when it is given (out may be s itself)."""
    if kind is Activation.RELU:
        return np.maximum(s, 0.0, out=out)
    if kind is Activation.TANH:
        return np.tanh(s, out=out)
    if out is None:
        return s
    if out is not s:
        out[...] = s
    return out


def _activation_derivative(kind: Activation, a: np.ndarray) -> np.ndarray:
    if kind is Activation.LINEAR:
        return np.ones_like(a)
    if kind is Activation.RELU:
        # derivative at exactly 0 is 0 (deterministic tie-break)
        return (a > 0.0).astype(np.float64)
    return 1.0 - a * a


def forward(net: MLP, x: np.ndarray) -> tuple[np.ndarray, SampleTaps]:
    """Run the forward pass, recording every a(l) and s(l)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.in_dim,):
        raise ValueError(f"input shape {x.shape} != ({net.in_dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    activations = [x]
    pre_activations = []
    a = x
    for i, layer in enumerate(net.layers):
        s = layer.weights @ a + layer.bias
        pre_activations.append(s)
        a = _apply_activation(layer.spec.activation, s)
        if i < net.depth - 1:
            activations.append(a)
    logits = pre_activations[-1]
    return logits, SampleTaps(activations=activations, pre_activations=pre_activations)


def loss_and_output_grad(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy loss and its gradient w.r.t. the logits.

    loss = -log softmax(logits)[label],  g = softmax(logits) - onehot(label)
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range for {logits.shape[0]} logits")
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    total = exp.sum()
    probs = exp / total
    loss = float(np.log(total) - shifted[label])
    grad = probs.copy()
    grad[label] -= 1.0
    return loss, grad


def backward_taps(net: MLP, taps: SampleTaps, output_grad: np.ndarray) -> SampleTaps:
    """Complete taps with g(l) = dloss/ds(l) for every layer, top down."""
    if len(taps.pre_activations) != net.depth:
        raise ValueError("taps do not match network depth")
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != (net.out_dim,):
        raise ValueError(f"output grad shape {g.shape} != ({net.out_dim},)")
    grads = [g]
    for l in range(net.depth - 1, 0, -1):
        upstream = net.layers[l].weights.T @ grads[0]
        grads.insert(0, upstream * _activation_derivative(
            net.layers[l - 1].spec.activation, taps.activations[l]))
    taps.output_grad = g
    taps.layer_grads = grads
    return taps


def param_grads(taps: SampleTaps) -> ParamGrads:
    """Per-layer gradients dW(l) = g(l) a(l-1)^T, db(l) = g(l)."""
    if not taps.complete:
        raise ValueError("taps are incomplete: run backward_taps first")
    weight_grads = [np.outer(g, a) for g, a in zip(taps.layer_grads, taps.activations)]
    bias_grads = [g.copy() for g in taps.layer_grads]
    return ParamGrads(weight_grads=weight_grads, bias_grads=bias_grads)


def evaluate_sample(net: MLP, x: np.ndarray, label: int) -> SampleTaps:
    """Forward + loss + backward in one call; returns completed taps."""
    logits, taps = forward(net, x)
    loss, g = loss_and_output_grad(logits, label)
    taps.loss = loss
    return backward_taps(net, taps, g)


@dataclass
class BatchTaps:
    """Row-stacked taps of a batch, one row per sample.

    acts[l-1] is the augmented activation block [a(l-1), 1] of layer l, for
    l = 1..L. grads holds the g(l) blocks of every layer after a full
    backward pass, and only [g(L)] otherwise.
    """

    acts: list[np.ndarray]
    grads: list[np.ndarray]
    losses: np.ndarray
    logits: np.ndarray

    def __len__(self) -> int:
        return self.losses.shape[0]

    @property
    def full(self) -> bool:
        return len(self.grads) == len(self.acts)

    def flat_grads(self, l: int) -> np.ndarray:
        """Row-stacked flattened gradients [dW, db] = g [a, 1]^T of layer l + 1
        (grads[l] and acts[l]); forward-only taps have them for the last layer only."""
        g, a = self.grads[l - len(self.acts)], self.acts[l]
        return (g[:, :, None] * a[:, None, :]).reshape(len(self), -1)

    def rows(self, index) -> "BatchTaps":
        """The taps of the rows a slice or an index array selects."""
        return BatchTaps([a[index] for a in self.acts], [g[index] for g in self.grads],
                         self.losses[index], self.logits[index])


def batch_taps(net: MLP, X: np.ndarray, labels, backward: bool) -> BatchTaps:
    """Forward, loss and output gradient for every row of X; with backward=True
    also g(l) of every layer. Row i of each block matches evaluate_sample on
    (X[i], labels[i]) up to rounding. Bad rows raise (see check_rows)."""
    return _taps(net, *check_rows(net, X, labels), backward)


def check_rows(net: MLP, X, labels) -> tuple[np.ndarray, np.ndarray]:
    """X as float64 and labels as an array, once X is (batch, in_dim) of finite
    rows with one integer label in [0, out_dim) per row; else ValueError
    naming the first bad row."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    if X.ndim != 2 or X.shape[1] != net.in_dim:
        raise ValueError(f"input shape {X.shape} != (batch, {net.in_dim})")
    if labels.shape != (X.shape[0],) or (labels.size and labels.dtype.kind not in "iu"):
        raise ValueError(f"need one integer label per row, got shape {labels.shape}")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite input in row {int(np.argmin(finite))}")
    bad = (labels < 0) | (labels >= net.out_dim)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"label {labels[row]} in row {row} out of range "
                         f"for {net.out_dim} logits")
    return X, labels


def _taps(net: MLP, X: np.ndarray, labels: np.ndarray, backward: bool) -> BatchTaps:
    """batch_taps without check_rows, for float64 rows that passed it."""
    rows = np.arange(X.shape[0])
    ones = np.ones((X.shape[0], 1))
    acts = []
    a = X
    for layer in net.layers:
        acts.append(np.hstack([a, ones]))
        s = a @ layer.weights.T + layer.bias
        a = _apply_activation(layer.spec.activation, s)
    logits = s
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    losses = np.log(total) - shifted[rows, labels]
    g = exp / total[:, None]
    g[rows, labels] -= 1.0
    taps = BatchTaps(acts=acts, grads=[g], losses=losses, logits=logits)
    return backward_chain(net, taps) if backward else taps


def backward_chain(net: MLP, taps: BatchTaps) -> BatchTaps:
    """Forward-only taps completed with g(l) of every layer; full taps as they are."""
    if taps.full:
        return taps
    grads = list(taps.grads)
    for l in range(net.depth - 1, 0, -1):
        upstream = grads[0] @ net.layers[l].weights
        grads.insert(0, upstream * _activation_derivative(
            net.layers[l - 1].spec.activation, taps.acts[l][:, :-1]))
    return BatchTaps(acts=taps.acts, grads=grads, losses=taps.losses, logits=taps.logits)


def save_checkpoint(net: MLP, path: str | Path) -> None:
    """Write the net as JSON; reals carry 17 significant digits (exact round trip)."""
    doc = {
        "format": "mlp-checkpoint-v1",
        "seed": net.seed,
        "layers": [
            {
                "in_dim": l.spec.in_dim,
                "out_dim": l.spec.out_dim,
                "activation": l.spec.activation.value,
                "weights": [list(map(float, row)) for row in l.weights],
                "bias": list(map(float, l.bias)),
            }
            for l in net.layers
        ],
    }
    serialize.dump_json(doc, path)


def load_checkpoint(path: str | Path) -> MLP:
    """Read a save_checkpoint file; any defect raises ValueError naming the file."""
    doc = serialize.load_json(path)
    if not isinstance(doc, dict) or doc.get("format") != "mlp-checkpoint-v1":
        raise ValueError(f"unrecognized checkpoint format in {path}")
    try:
        return MLP(layers=[Layer(np.array(e["weights"], dtype=np.float64),
                                 np.array(e["bias"], dtype=np.float64),
                                 LayerSpec(e["in_dim"], e["out_dim"], Activation(e["activation"])))
                           for e in doc["layers"]], seed=int(doc["seed"]))
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
