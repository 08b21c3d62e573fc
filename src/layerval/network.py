"""Minimal dense feed-forward network with exposed per-layer taps.

Forward:   s(l) = W(l) a(l-1) + b(l),   a(l) = act(s(l)),   logits = s(L)
Backward:  g(L) = softmax(logits) - onehot(label)
           g(l-1) = W(l)^T g(l) * act'(s(l-1))
Grads:     dW(l) = g(l) a(l-1)^T,   db(l) = g(l)

act' comes from a = act(s) (relu: a > 0, tanh: 1 - a^2, linear: 1): the same bits.
Each Layer keeps [W(l) | b(l)] as one block, the shape of [dW(l) | db(l)],
and reads its in_dim and out_dim off that block's shape.

batch_taps runs these passes for a whole batch at once and row-stacks every
augmented activation [a(l-1), 1], loss-to-pre-activation gradient g(l) and
loss in a BatchTaps; every command takes its taps from it. It is check_rows
(rows must fit the net) then _taps, the check-free pass that the trainer
runs on the augmented rows [X, 1] (augment) that it checked and stacked
once. _taps is _logits (the forward pass; epoch evaluation runs it alone),
_cross_entropy (losses and g(L)) and, for a full backward pass, _chain,
which the SGD step also runs on the kept rows of forward-only taps. The
per-sample functions (forward, loss_and_output_grad, backward_taps,
param_grads, evaluate_sample and their SampleTaps/ParamGrads records) are
called by no command. They stay because the benchmark tracer
(perfbench/job.py) binds them by name, and the tests check batch_taps
against them. All arithmetic is float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import serialize


class Activation(str, Enum):
    LINEAR = "linear"
    RELU = "relu"
    TANH = "tanh"


class Layer:
    """One dense layer: its activation and one parameter block params =
    [W | b], shaped (out_dim, in_dim + 1). A per-sample gradient
    g(l) [a(l-1), 1]^T has this shape, so the SGD step updates the block at
    once, and the block is the layer's only record of its dims. weights and
    bias are views of the block with no setter: params is the one write
    path, and a slice write such as layer.weights[:] = w lands in it.
    Layer(weights, bias, activation) copies both into a new block; an empty
    weight matrix, or a bias whose length is not the number of weight rows,
    raises."""

    __slots__ = ("params", "activation")

    def __init__(self, weights, bias, activation: Activation):
        weights, bias = np.asarray(weights, dtype=np.float64), np.asarray(bias, dtype=np.float64)
        if weights.ndim != 2 or not weights.size:
            raise ValueError(f"weight shape {weights.shape} is not a nonempty matrix")
        if bias.shape != weights.shape[:1]:
            raise ValueError(f"bias shape {bias.shape} != {weights.shape[:1]}")
        self.params = np.empty((weights.shape[0], weights.shape[1] + 1))
        self.params[:, :-1] = weights
        self.params[:, -1] = bias
        self.activation = Activation(activation)

    @property
    def in_dim(self) -> int:
        return self.params.shape[1] - 1

    @property
    def out_dim(self) -> int:
        return self.params.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return self.params[:, :-1]

    @property
    def bias(self) -> np.ndarray:
        return self.params[:, -1]


@dataclass
class MLP:
    """A stack of layers, each one's in_dim the previous one's out_dim, with
    finite parameters and a linear last layer (its outputs are the logits);
    the net's dims are its first layer's in_dim and its last layer's out_dim."""

    layers: list[Layer]
    seed: int = 0

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for i, layer in enumerate(self.layers):
            if i > 0 and layer.in_dim != self.layers[i - 1].out_dim:
                raise ValueError(f"layer {i}: in_dim {layer.in_dim} != previous out_dim")
            if not np.isfinite(layer.params).all():
                raise ValueError(f"layer {i}: non-finite parameters")
        if self.layers[-1].activation is not Activation.LINEAR:
            raise ValueError("final layer activation must be linear (logits feed softmax)")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def num_params(self) -> int:
        return sum(l.params.size for l in self.layers)

    def copy(self) -> "MLP":
        """A net with the same parameters in new blocks: it shares no memory with this one."""
        return MLP(layers=[Layer(l.weights, l.bias, l.activation) for l in self.layers],
                   seed=self.seed)

    @staticmethod
    def initialize(dims: list[int], activations: list[Activation | str], seed: int = 0) -> "MLP":
        """Build a seeded net; weights uniform in [-1/sqrt(in_dim), +1/sqrt(in_dim)], biases zero."""
        if len(dims) < 2:
            raise ValueError("dims must list input plus at least one layer output")
        if len(activations) != len(dims) - 1:
            raise ValueError("need one activation per layer")
        if min(dims) < 1:
            raise ValueError(f"layer dims must be positive, got {dims}")
        rng = np.random.default_rng(seed)
        layers = []
        for in_dim, out_dim, act in zip(dims, dims[1:], activations):
            bound = 1.0 / np.sqrt(in_dim)
            w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
            layers.append(Layer(w, np.zeros(out_dim), act))
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


def _apply_activation(kind: Activation, s: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The activation of s; out, where a caller passes it, is s itself (in place)."""
    if kind is Activation.RELU:
        return np.maximum(s, 0.0, out=out)
    if kind is Activation.TANH:
        return np.tanh(s, out=out)
    return s


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
        a = _apply_activation(layer.activation, s)
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
            net.layers[l - 1].activation, taps.activations[l]))
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
    backward pass, and only [g(L)] otherwise. No logits are kept: the
    softmax probabilities are g(L) + onehot(label).
    """

    acts: list[np.ndarray]
    grads: list[np.ndarray]
    losses: np.ndarray

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
        """The taps of the rows a slice, an index array or a boolean mask
        selects; a mask is turned into its index array once, for every block."""
        if isinstance(index, np.ndarray) and index.dtype == bool:
            index = index.nonzero()[0]
        pick = itemgetter(index)
        return BatchTaps(list(map(pick, self.acts)), list(map(pick, self.grads)),
                         pick(self.losses))


def augment(X: np.ndarray) -> np.ndarray:
    """[X, 1]: the rows with a 1 appended, the input block acts[0] of layer 1."""
    return np.concatenate((X, np.ones((X.shape[0], 1))), 1)


def batch_taps(net: MLP, X: np.ndarray, labels, backward: bool) -> BatchTaps:
    """Forward, loss and output gradient for every row of X; with backward=True
    also g(l) of every layer. Row i of each block matches evaluate_sample on
    (X[i], labels[i]) up to rounding. Bad rows raise (see check_rows); the
    rows are augmented once, to [X, 1], which becomes acts[0]."""
    X, labels = check_rows(net, X, labels)
    return _taps(net, augment(X), labels, backward)


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


def _taps(net: MLP, A: np.ndarray, labels: np.ndarray, backward: bool) -> BatchTaps:
    """batch_taps without check_rows, on the augmented rows A = [X, 1] (see
    augment) of float64 rows that passed it; A becomes acts[0]."""
    acts = [A]
    losses, g = _cross_entropy(_logits(net, A[:, :-1], acts), labels, grad=True)
    return BatchTaps(acts, _chain(net, acts, g) if backward else [g], losses)


def _logits(net: MLP, a: np.ndarray, acts: list[np.ndarray] | None = None) -> np.ndarray:
    """The logits of the rows a: the forward pass alone, check-free; a
    non-finite logit raises ValueError. With a list `acts`, each hidden
    layer's activations are also copied into a new [a(l), 1] block appended
    to it. Each layer works on contiguous blocks: numpy's elementwise loops
    on the strided a(l) part of an [a(l), 1] block ran ~3x slower."""
    last = net.layers[-1]
    for layer in net.layers:
        p = layer.params
        s = a @ p[:, :-1].T
        s += p[:, -1]
        a = _apply_activation(layer.activation, s, out=s)
        if acts is not None and layer is not last:
            acts.append(np.empty((a.shape[0], a.shape[1] + 1)))
            acts[-1][:, :-1] = a
            acts[-1][:, -1] = 1.0
    if not np.logical_and.reduce(np.isfinite(a), None):
        raise ValueError("non-finite logits")
    return a


def _cross_entropy(logits: np.ndarray, labels: np.ndarray,
                   grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Each row's loss -log softmax(logits)[label] and, with grad=True, its
    gradient softmax(logits) - onehot(label) with respect to the logits."""
    shifted = logits - np.maximum.reduce(logits, 1, keepdims=True)
    exp = np.exp(shifted)
    total = np.add.reduce(exp, 1)
    at = np.arange(0, shifted.size, shifted.shape[1]) + labels  # each row's label, flat
    losses = np.log(total) - shifted.ravel()[at]
    if not grad:
        return losses, None
    exp /= total[:, None]
    exp.ravel()[at] -= 1.0
    return losses, exp


def _chain(net: MLP, acts: list[np.ndarray], g: np.ndarray) -> list[np.ndarray]:
    """g(l) of every layer, from g(L) = g down through the [a, 1] blocks acts."""
    grads = [g]
    for l in range(len(acts) - 1, 0, -1):
        g = g @ net.layers[l].params[:, :-1]
        kind, a = net.layers[l - 1].activation, acts[l]
        if kind is Activation.RELU:
            g *= (a > 0.0)[:, :-1]  # the whole block's mask, sliced: the strided view's is slower
        elif kind is Activation.TANH:
            g *= 1.0 - a[:, :-1] * a[:, :-1]
        grads.append(g)
    grads.reverse()
    return grads


def save_checkpoint(net: MLP, path: str | Path) -> None:
    """Write the net as JSON; reals carry 17 significant digits (exact round trip)."""
    doc = {
        "format": "mlp-checkpoint-v1",
        "seed": net.seed,
        "layers": [
            {
                "in_dim": l.in_dim,
                "out_dim": l.out_dim,
                "activation": l.activation.value,
                "weights": l.weights.tolist(),
                "bias": l.bias.tolist(),
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
    from .trainer import check_setting  # the config type rule; trainer imports this module

    def layer(i: int, e: dict) -> Layer:
        in_dim, out_dim, act = (check_setting(f"layers[{i}].{name}", default, None, e[name])
                                for name, default in (("in_dim", 1), ("out_dim", 1),
                                                      ("activation", Activation.LINEAR)))
        try:
            layer = Layer(e["weights"], e["bias"], act)
            if layer.params.shape != (out_dim, in_dim + 1):
                raise ValueError(f"weight shape {layer.weights.shape} != ({out_dim}, {in_dim})")
        except ValueError as exc:
            raise ValueError(f"layer {i}: {exc}") from exc
        return layer

    try:
        return MLP(layers=[layer(i, e) for i, e in enumerate(doc["layers"])],
                   seed=check_setting("seed", 0, None, doc["seed"]))
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
