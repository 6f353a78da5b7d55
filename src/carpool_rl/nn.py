"""Minimal fully-connected network with explicit forward and backward passes.

Layer ``k`` holds a weight matrix shaped ``(fan_out, fan_in)`` and a bias
vector shaped ``(fan_out,)``. Hidden layers apply ReLU; the output layer is
always linear.

Each net keeps its parameters in one contiguous float64 vector ``params``
(layer by layer: row-major weights, then biases) and their gradient in a
twin ``grad``. ``weights``, ``biases`` and ``grads`` (the ``(dW, db)``
pairs :meth:`Mlp.backward` fills) are tuples of views into them, so a layer
is changed in place, never rebound; an SGD update is one
``params -= lr * grad`` and :func:`copy_weights` one copy. ``copy.deepcopy``
would not keep the views: build a fresh net and ``copy_weights`` into it.

Every network in the package trains on one loss, :func:`half_mse`: half
mean squared error over the batch, ``L = sum_i ||pred_i - target_i||^2 /
(2N)``. :meth:`Mlp.sgd_step` applies it to the whole output; the joint ETA
model adds one per head and the DQN applies it to the taken actions' Q.

:meth:`Mlp.forward` and :meth:`Mlp.backward` take ``(N, width)`` batches
only; ``forward`` keeps the cache ``backward`` needs (training).
:meth:`Mlp.forward_rows` is the cache-free inference pass, row-exact: its
row ``i`` equals the one-row ``forward`` of input row ``i`` bit for bit.

Checkpoint format (version ``mlp/1``): a JSON object with keys ``format``,
``layer_sizes``, ``activation`` (always ``"relu"``), ``weights`` (list of
row-major 2-D arrays, one per layer, each row one output unit) and
``biases``: the per-layer arrays, not the flat buffer.

The module holds no training settings: each trainer takes the learning
rate, batch size and epochs from its config section (``EtaConfig`` for the
travel-time estimators, ``DqnConfig`` for the Double-DQN).
"""

from __future__ import annotations

import json
import math

import numpy as np

CHECKPOINT_FORMAT = "mlp/1"
ACTIVATION = "relu"
ROW_BLOCK = 256  # rows per stacked matmul in Mlp.forward_rows


class Mlp:
    """Feed-forward network with a fixed layer stack.

    ``layer_sizes`` lists the input width followed by every layer's output
    width; weights are drawn uniformly from ``[-s, s]`` with
    ``s = sqrt(6 / (fan_in + fan_out))`` and biases start at zero.
    """

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        self.layer_sizes = _checked_sizes(layer_sizes, "Mlp")
        if rng is None:
            rng = np.random.default_rng(0)
        self._bind()
        for w in self.weights:
            fan_out, fan_in = w.shape
            s = np.sqrt(6.0 / (fan_in + fan_out))
            w[:] = rng.uniform(-s, s, size=(fan_out, fan_in))

    def _bind(self) -> None:
        """Allocate zeroed ``params`` and ``grad``; lay the views over them."""
        sizes = self.layer_sizes
        self.params = np.zeros(sum((a + 1) * b for a, b in zip(sizes, sizes[1:])))
        self.grad = np.zeros_like(self.params)
        self.weights, self.biases = _layer_views(self.params, sizes)
        self.grads = tuple(zip(*_layer_views(self.grad, sizes)))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_width(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_width(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, x):
        """Run the network on the batch ``x`` (shape ``(N, in)``).

        Returns ``(output, cache)``; the cache is the ``(inputs, zs)`` pair
        of every layer's input and pre-activation that :meth:`backward`
        consumes.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ValueError(f"input shape {x.shape} != (N, {self.layer_sizes[0]})")
        inputs = [x]  # post-activation input to each layer
        zs = []
        for w, b in zip(self.weights, self.biases):
            if zs:  # a hidden layer came before: its ReLU feeds this one
                x = np.maximum(zs[-1], 0.0)
                inputs.append(x)
            z = x @ w.T
            z += b
            zs.append(z)
        return zs[-1], (inputs, zs)

    def forward_rows(self, x) -> np.ndarray:
        """Outputs for the rows of ``x`` (shape ``(N, in)``); row ``i`` equals
        ``forward(x[i:i+1])[0][0]`` bit for bit. Each layer is one matmul
        over the ``(N, 1, in)`` stack, which numpy computes by the one-row
        product's routine, slice by slice (a 2-D batch product may round
        differently); ``ROW_BLOCK`` rows at a time bound the working memory."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ValueError(f"input shape {x.shape} != (N, {self.layer_sizes[0]})")
        if len(x) > ROW_BLOCK:
            return np.concatenate([self.forward_rows(x[s:s + ROW_BLOCK])
                                   for s in range(0, len(x), ROW_BLOCK)])
        a = x[:, None, :]
        last = self.n_layers - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w.T
            a += b
            if k < last:
                np.maximum(a, 0.0, out=a)
        return a.reshape(len(x), self.output_width)

    def backward(self, cache, grad_output):
        """Backpropagate ``dL/d(output)`` (shape ``(N, out)``) through the
        cached forward pass.

        Writes every layer's ``(dW, db)`` into ``grad``, where ``grads``
        views them, and returns ``dL/d(input)``, shaped like the forward
        input.
        """
        g = np.asarray(grad_output, dtype=float)
        if g.ndim != 2:
            raise ValueError(f"grad_output shape {g.shape} is not (N, out)")
        last = len(self.weights) - 1
        inputs, zs = cache
        for k in range(last, -1, -1):
            if k < last:  # g is this pass's own array here
                g *= zs[k] > 0.0
            dw, db = self.grads[k]
            np.matmul(g.T, inputs[k], out=dw)
            g.sum(axis=0, out=db)
            g = g @ self.weights[k]
        return g

    def apply_gradients(self, lr: float) -> None:
        """One SGD update from the gradient the last :meth:`backward` left."""
        self.params -= lr * self.grad

    def sgd_step(self, inputs, targets, lr: float) -> float:
        """One plain SGD step on a batch; returns the pre-update loss."""
        out, cache = self.forward(inputs)
        if len(out) == 0:
            raise ValueError("empty batch")
        loss, gout = half_mse(out, targets)
        self.backward(cache, gout)
        if not np.isfinite(self.grad).all():
            raise RuntimeError("non-finite gradient during SGD step")
        self.apply_gradients(lr)
        return loss

    def save(self, path) -> None:
        payload = {
            "format": CHECKPOINT_FORMAT,
            "layer_sizes": self.layer_sizes,
            "activation": ACTIVATION,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path) -> "Mlp":
        """Checks every shape before allocating; a ``ValueError`` names the file."""
        with open(path) as fh:
            ck = json_object(json.load(fh), path, format=str, activation=str,
                             layer_sizes=[int], weights=[[[float]]], biases=[[float]])
        for key, want in (("format", CHECKPOINT_FORMAT), ("activation", ACTIVATION)):
            if ck[key] != want:
                raise ValueError(f"{path}: unsupported {key} {ck[key]!r}")
        sizes = _checked_sizes(ck["layer_sizes"], path)
        layers, n = list(zip(ck["weights"], ck["biases"])), len(sizes) - 1
        if len(ck["weights"]) != n or len(ck["biases"]) != n:
            raise ValueError(f"{path}: needs {n} weight and {n} bias arrays")
        for k, (w, b) in enumerate(layers):
            want = (sizes[k + 1], sizes[k])
            if {len(w), len(b)} != {want[0]} or {len(row) for row in w} != {want[1]}:
                raise ValueError(f"{path}: layer {k} weights and biases do not "
                                 f"have shapes {want} and {want[:1]}")
        net = cls.__new__(cls)  # no random init: every array comes from the file
        net.layer_sizes = sizes
        net._bind()
        for k, (w, b) in enumerate(layers):
            net.weights[k][:] = w
            net.biases[k][:] = b
            if not (np.isfinite(net.weights[k]).all() and np.isfinite(net.biases[k]).all()):
                raise ValueError(f"{path}: layer {k} holds non-finite weights or biases")
        return net


def half_mse(pred, target):
    """The training loss of every network here: ``(loss, dL/d(pred))`` with
    ``loss = sum(d*d) / (2N)`` and gradient ``d / N``, for ``d = pred -
    target`` and ``N = len(pred)`` rows. The shapes must match exactly (no
    broadcasting); a non-finite loss raises ``RuntimeError``."""
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {target.shape}")
    n = len(pred)
    d = pred - target
    loss = float(np.add.reduce(d * d, axis=None)) / (2.0 * n)
    if not math.isfinite(loss):
        raise RuntimeError(f"non-finite training loss: {loss}")
    return loss, d / n


def is_json(value, kind) -> bool:
    """Whether ``value`` has the JSON type ``kind``, a type or ``[kind]`` (a
    list of that type); a ``float`` also takes an int, never a bool."""
    if type(kind) is list:
        return type(value) is list and all(is_json(v, kind[0]) for v in value)
    return type(value) is kind or (kind is float and type(value) is int)


def json_name(kind) -> str:
    """The name messages give the JSON type ``kind`` of :func:`is_json`."""
    if type(kind) is not list:
        return {float: "number", dict: "object"}.get(kind, kind.__name__)
    head, sep, tail = json_name(kind[0]).partition(" ")
    return f"list of {head}s{sep}{tail}"


def json_object(value, where, /, **kinds) -> dict:
    """``value``, read from ``where``, if it is a JSON object whose key ``k``
    holds a value of JSON type ``kinds[k]`` for each ``k``; else a
    ``ValueError`` naming ``where`` and the first missing key or wrong type."""
    if type(value) is not dict:
        raise ValueError(f"{where}: expected a JSON object, not {type(value).__name__}")
    for key, kind in kinds.items():
        if key not in value:
            raise ValueError(f"{where}: missing key {key!r}")
        if not is_json(value[key], kind):
            raise ValueError(f"{where}: {key!r} is not a JSON {json_name(kind)}")
    return value


def _checked_sizes(layer_sizes, where) -> list[int]:
    """``layer_sizes`` as a list if it holds at least two ints (never
    bools), each at least 1; else a ``ValueError`` names ``where``."""
    sizes = list(layer_sizes)
    if len(sizes) < 2 or not all(type(n) is int and n >= 1 for n in sizes):
        raise ValueError(f"{where}: bad layer sizes: {sizes}")
    return sizes


def _layer_views(buf: np.ndarray, sizes: list[int]):
    """``(weights, biases)``, each a tuple of per-layer views into ``buf``:
    layer ``k``'s row-major weights, then its biases, layer after layer."""
    weights, biases, o = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(buf[o:o + fan_out * fan_in].reshape(fan_out, fan_in))
        o += fan_out * fan_in
        biases.append(buf[o:o + fan_out])
        o += fan_out
    return tuple(weights), tuple(biases)


def copy_weights(src: Mlp, dst: Mlp) -> None:
    """Copy all parameters from ``src`` into ``dst`` (architectures must match)."""
    if src.layer_sizes != dst.layer_sizes:
        raise ValueError(
            f"architecture mismatch: {src.layer_sizes} vs {dst.layer_sizes}")
    dst.params[:] = src.params
