"""Minimal fully-connected network with explicit forward and backward passes.

Parameters are plain numpy arrays: layer ``k`` holds a weight matrix shaped
``(fan_out, fan_in)`` and a bias vector shaped ``(fan_out,)``. Hidden layers
apply ReLU; the output layer is always linear.

The loss convention used by :meth:`Mlp.sgd_step` and
:meth:`Mlp.gradient_check` is half mean squared error over the batch,
``L = sum_i ||pred_i - target_i||^2 / (2N)``.

Checkpoint format (version ``mlp/1``): a JSON object with keys ``format``,
``layer_sizes``, ``activation`` (always ``"relu"``), ``weights`` (list of
row-major 2-D arrays, one per layer, each row one output unit) and
``biases``.

The module holds no training settings: each trainer takes the learning
rate, batch size and epochs from its config section (``EtaConfig`` for the
travel-time estimators, ``DqnConfig`` for the Double-DQN).
"""

from __future__ import annotations

import json

import numpy as np

CHECKPOINT_FORMAT = "mlp/1"
ACTIVATION = "relu"


class Mlp:
    """Feed-forward network with a fixed layer stack.

    ``layer_sizes`` lists the input width followed by every layer's output
    width; weights are drawn uniformly from ``[-s, s]`` with
    ``s = sqrt(6 / (fan_in + fan_out))`` and biases start at zero.
    """

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        self.layer_sizes = _checked_sizes(layer_sizes)
        if rng is None:
            rng = np.random.default_rng(0)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            s = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-s, s, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

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
        """Run the network on ``x`` (shape ``(in,)`` or ``(N, in)``).

        Returns ``(output, cache)``; the cache holds every layer input and
        pre-activation and is what :meth:`backward` consumes.
        """
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"input width {x.shape[1]} != expected {self.layer_sizes[0]}")
        inputs = [x]  # post-activation input to each layer
        zs = []
        for w, b in zip(self.weights, self.biases):
            if zs:  # a hidden layer came before: its ReLU feeds this one
                x = np.maximum(zs[-1], 0.0)
                inputs.append(x)
            zs.append(x @ w.T + b)
        out = zs[-1]
        cache = {"inputs": inputs, "zs": zs, "squeeze": squeeze}
        return (out[0] if squeeze else out), cache

    def backward(self, cache, grad_output):
        """Backpropagate ``dL/d(output)`` through the cached forward pass.

        Returns ``(grads, grad_input)`` where ``grads`` is a list of
        ``(dW, db)`` pairs aligned with the layers and ``grad_input`` is
        ``dL/d(input)`` with the same leading shape as the forward input.
        """
        g = np.asarray(grad_output, dtype=float)
        if g.ndim == 1:
            g = g[None, :]
        last = len(self.weights) - 1
        zs, inputs = cache["zs"], cache["inputs"]
        grads = [None] * (last + 1)
        for k in range(last, -1, -1):
            if k < last:
                g = g * (zs[k] > 0.0)
            grads[k] = (g.T @ inputs[k], g.sum(axis=0))
            g = g @ self.weights[k]
        return grads, (g[0] if cache["squeeze"] else g)

    def apply_gradients(self, grads, lr: float) -> None:
        for k, (dw, db) in enumerate(grads):
            self.weights[k] -= lr * dw
            self.biases[k] -= lr * db

    def loss_and_grad_output(self, outputs, targets):
        """Half-MSE loss over a batch and its gradient w.r.t. the outputs."""
        t = np.asarray(targets, dtype=float)
        if t.ndim == 1:
            t = t[None, :]
        y = outputs if outputs.ndim == 2 else outputs[None, :]
        n = y.shape[0]
        diff = y - t
        loss = float(np.sum(diff * diff) / (2.0 * n))
        return loss, diff / n

    def sgd_step(self, inputs, targets, lr: float) -> float:
        """One plain SGD step on a batch; returns the pre-update loss."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if inputs.shape[0] == 0:
            raise ValueError("empty batch")
        out, cache = self.forward(inputs)
        loss, gout = self.loss_and_grad_output(out, targets)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite training loss: {loss}")
        grads, _ = self.backward(cache, gout)
        for dw, db in grads:
            if not (np.isfinite(dw).all() and np.isfinite(db).all()):
                raise RuntimeError("non-finite gradient during SGD step")
        self.apply_gradients(grads, lr)
        return loss

    def gradient_check(self, x, y, step: float = 1e-5) -> float:
        """Max relative error of backprop vs. central finite differences.

        Relative error per parameter is
        ``|analytic - numeric| / max(1e-8, |analytic| + |numeric|)``.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))

        def loss_at():
            out, _ = self.forward(x)
            loss, _ = self.loss_and_grad_output(out, y)
            return loss

        out, cache = self.forward(x)
        _, gout = self.loss_and_grad_output(out, y)
        grads, _ = self.backward(cache, gout)

        worst = 0.0
        for k in range(self.n_layers):
            for arr, g in ((self.weights[k], grads[k][0]),
                           (self.biases[k], grads[k][1])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + step
                    lp = loss_at()
                    arr[idx] = orig - step
                    lm = loss_at()
                    arr[idx] = orig
                    numeric = (lp - lm) / (2.0 * step)
                    analytic = g[idx]
                    denom = max(1e-8, abs(analytic) + abs(numeric))
                    worst = max(worst, abs(analytic - numeric) / denom)
        return worst

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
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format: {payload.get('format')!r}")
        if payload.get("activation") != ACTIVATION:
            raise ValueError(f"unsupported activation: {payload.get('activation')!r}")
        net = cls.__new__(cls)  # no random init: every array comes from the file
        net.layer_sizes = _checked_sizes(payload["layer_sizes"])
        net.weights = [np.asarray(w, dtype=float) for w in payload["weights"]]
        net.biases = [np.asarray(b, dtype=float) for b in payload["biases"]]
        n = len(net.layer_sizes) - 1
        if len(net.weights) != n or len(net.biases) != n:
            raise ValueError(f"checkpoint needs {n} weight and {n} bias arrays")
        for k, (w, b) in enumerate(zip(net.weights, net.biases)):
            want = (net.layer_sizes[k + 1], net.layer_sizes[k])
            if w.shape != want or b.shape != want[:1]:
                raise ValueError(f"layer {k} weights {w.shape} and biases "
                                 f"{b.shape} do not match {want} and {want[:1]}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {k} holds non-finite weights or biases")
        return net


def _checked_sizes(layer_sizes) -> list[int]:
    sizes = [int(n) for n in layer_sizes]
    if len(sizes) < 2 or any(n <= 0 for n in sizes):
        raise ValueError(f"bad layer sizes: {sizes}")
    return sizes


def copy_weights(src: Mlp, dst: Mlp) -> None:
    """Copy all parameters from ``src`` into ``dst`` (architectures must match)."""
    if src.layer_sizes != dst.layer_sizes:
        raise ValueError(
            f"architecture mismatch: {src.layer_sizes} vs {dst.layer_sizes}")
    dst.weights = [w.copy() for w in src.weights]
    dst.biases = [b.copy() for b in src.biases]
